"""The benchmark's workloads and metrics: the single source of BENCHMARK.json.

Run ``python3 perfbench/spec.py`` from the repository root to rewrite
BENCHMARK.json from these tables; ``test_bench.py`` checks that the committed
file matches them.
"""

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 36

# (name, why). Each workload is where one planned optimisation does most of
# its work; the others predict no change for it.
WORKLOADS = [
    ("dimer_sweep",
     "CLI entropy/adiabatic/force/discord on a seeded b>0 dimer J-sweep, 5 lambda x 25 T: "
     "many T per path, so T-batching and dropping the sweep pool show here"),
    ("ring_spectra",
     "library dS/dT routes on J-swept Heisenberg rings, 4 spins (dim 16) all four routes, "
     "6 spins (dim 64) direct+matching only: eigensolve-bound, no sweep"),
    ("decompose_stroke",
     "CLI decompose of the pinned J 0.5->1.5 b=0.3 stroke (T=1 on its grid) and a seeded "
     "stroke, 3 T each: thousands of dim-4 eigensolves per T in process_decompose"),
]

# (name, unit, better, bound, meaning)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "import qcaloric, seeded input generation and model/scenario construction; "
     "median of fresh-interpreter probes"),
    ("solve_s_p50", "s", "lower", 0.25,
     "median wall time of one pass (the workload's full solution set)"),
    ("points_per_s", "1/s", "higher", 0.25,
     "result points delivered per wall second over all timed passes"),
    ("cpu_s_per_point", "s", "lower", 0.25,
     "process CPU seconds per point"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident set of the workload's process"),
]

# (name, unit, better, should move, on which workload)
PER_LAYER = [
    ("linalg.eigensolves", "count", "lower", "solve_s_p50, points_per_s",
     "ring_spectra most, decompose_stroke next, dimer_sweep least"),
    ("linalg.eigen_s", "s", "lower", "solve_s_p50, points_per_s",
     "ring_spectra most, decompose_stroke next, dimer_sweep least"),
    ("linalg.eigen_us_per_call", "us", "lower", "solve_s_p50, points_per_s",
     "ring_spectra most, decompose_stroke next, dimer_sweep least"),
]
for _dim in ("d4", "d16", "d64"):
    PER_LAYER += [
        (f"linalg.eigensolves.{_dim}", "count", "lower", "solve_s_p50, points_per_s",
         "ring_spectra (d16, d64), decompose_stroke and dimer_sweep (d4)"),
        (f"linalg.eigen_s.{_dim}", "s", "lower", "solve_s_p50, points_per_s",
         "ring_spectra (d16, d64), decompose_stroke and dimer_sweep (d4)"),
        (f"linalg.eigen_us_per_call.{_dim}", "us", "lower", "solve_s_p50, points_per_s",
         "ring_spectra (d16, d64), decompose_stroke and dimer_sweep (d4)"),
    ]
PER_LAYER += [
    ("models.evaluate_calls", "count", "lower", "solve_s_p50", "decompose_stroke"),
    ("models.evaluate_s", "s", "lower", "solve_s_p50", "decompose_stroke"),
    ("thermal.populations_calls", "count", "lower", "solve_s_p50, cpu_s_per_point",
     "dimer_sweep (RK4 right-hand sides), decompose_stroke"),
    ("thermal.populations_s", "s", "lower", "solve_s_p50, cpu_s_per_point",
     "dimer_sweep (RK4 right-hand sides), decompose_stroke"),
    ("thermal.decompose_s", "s", "lower", "solve_s_p50",
     "decompose_stroke only; no change elsewhere"),
    ("thermal.decompose_eigensolves", "count", "lower", "solve_s_p50",
     "decompose_stroke only; no change elsewhere"),
    ("caloric.quad_s", "s", "lower", "solve_s_p50", "dimer_sweep, ring_spectra"),
    ("caloric.quad_levels", "count", "lower", "solve_s_p50", "dimer_sweep, ring_spectra"),
    ("caloric.quad_integrand_evals", "count", "lower", "solve_s_p50",
     "dimer_sweep, ring_spectra"),
    ("caloric.ode_s", "s", "lower", "solve_s_p50, points_per_s", "dimer_sweep"),
    ("caloric.ode_levels", "count", "lower", "solve_s_p50, points_per_s", "dimer_sweep"),
    ("caloric.ode_rhs_evals", "count", "lower", "solve_s_p50, points_per_s", "dimer_sweep"),
    ("caloric.lambda_reuse", "1", "higher", "solve_s_p50", "dimer_sweep"),
    ("caloric.direct_s", "s", "lower", "solve_s_p50", "ring_spectra"),
    ("caloric.match_s", "s", "lower", "solve_s_p50", "ring_spectra"),
    ("caloric.match_iters", "count", "lower", "solve_s_p50", "ring_spectra"),
    ("caloric.force_s", "s", "lower", "solve_s_p50",
     "dimer_sweep, the only workload that calls generalized_force"),
    ("discord.pair_correlation_calls", "count", "lower", "solve_s_p50",
     "dimer_sweep (a small share)"),
    ("discord.pair_correlation_s", "s", "lower", "solve_s_p50",
     "dimer_sweep (a small share)"),
    ("sweep.run_sweep_s", "s", "lower", "solve_s_p50, cpu_s_per_point",
     "dimer_sweep, decompose_stroke; nothing on ring_spectra"),
    ("sweep.self_s", "s", "lower", "solve_s_p50, cpu_s_per_point",
     "dimer_sweep, decompose_stroke; nothing on ring_spectra"),
    ("sweep.cpu_per_wall", "1", "lower", "solve_s_p50, cpu_s_per_point",
     "dimer_sweep, decompose_stroke; nothing on ring_spectra"),
    ("sweep.threads", "count", "lower", "solve_s_p50, cpu_s_per_point",
     "dimer_sweep, decompose_stroke; nothing on ring_spectra"),
    ("scenario.parse_s", "s", "lower", "setup_s, solve_s_p50",
     "dimer_sweep; predicted below noise"),
    ("curves.csv_s", "s", "lower", "setup_s, solve_s_p50", "dimer_sweep; predicted below noise"),
    ("curves.svg_s", "s", "lower", "setup_s, solve_s_p50", "dimer_sweep; predicted below noise"),
    ("curves.bytes_out", "B", "lower", "setup_s, solve_s_p50",
     "dimer_sweep; predicted below noise"),
    ("cli.self_s", "s", "lower", "setup_s, solve_s_p50", "dimer_sweep; predicted below noise"),
    ("trace_overhead_frac", "1", "lower",
     "none (traced pass time over untraced solve_s_p50, minus 1)", "every workload"),
    ("failed_frac", "1", "lower",
     "none (ops that raised or missed their oracle over ops attempted; can be 0)",
     "every workload"),
]


def benchmark_json() -> dict:
    """The BENCHMARK.json document these tables define."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _, _ in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").write_text(render())
