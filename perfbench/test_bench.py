"""Self-test of the benchmark: oracle gate, metric table, seeding, tracer.

    python3 -m pytest -q perfbench

Kept out of the package's own test suite (``testpaths = ["tests"]``); the
slowest test runs a few short benchmark passes, about half a minute in all.
"""

import dataclasses
import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))

import qcaloric  # noqa: E402
import qcaloric.thermal  # noqa: E402

import run  # noqa: E402
import spec  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Every workload and metric the benchmark's issue names, with its unit.
NAMED_WORKLOADS = {"dimer_sweep", "ring_spectra", "decompose_stroke"}
NAMED_METRICS = {
    "setup_s": "s", "solve_s_p50": "s", "points_per_s": "1/s", "cpu_s_per_point": "s",
    "failed_frac": "1", "peak_rss_mb": "MB",
    "models.evaluate_calls": "count", "models.evaluate_s": "s",
    "thermal.populations_calls": "count", "thermal.populations_s": "s",
    "thermal.decompose_s": "s", "thermal.decompose_eigensolves": "count",
    "caloric.quad_s": "s", "caloric.quad_levels": "count",
    "caloric.quad_integrand_evals": "count", "caloric.ode_s": "s",
    "caloric.ode_levels": "count", "caloric.ode_rhs_evals": "count",
    "caloric.lambda_reuse": "1", "caloric.direct_s": "s", "caloric.match_s": "s",
    "caloric.match_iters": "count", "caloric.force_s": "s",
    "discord.pair_correlation_calls": "count", "discord.pair_correlation_s": "s",
    "sweep.run_sweep_s": "s", "sweep.self_s": "s", "sweep.cpu_per_wall": "1",
    "sweep.threads": "count", "scenario.parse_s": "s", "curves.csv_s": "s",
    "curves.svg_s": "s", "curves.bytes_out": "B", "cli.self_s": "s",
    "trace_overhead_frac": "1",
}
for _suffix in ("", ".d4", ".d16", ".d64"):
    NAMED_METRICS.update({f"linalg.eigensolves{_suffix}": "count",
                          f"linalg.eigen_s{_suffix}": "s",
                          f"linalg.eigen_us_per_call{_suffix}": "us"})

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_generated_from_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.render()


def test_every_named_metric_and_workload_is_listed_with_its_unit():
    doc = _benchmark_json()
    assert {w["name"] for w in doc["workloads"]} == NAMED_WORKLOADS
    units = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    assert {name: units.get(name) for name in NAMED_METRICS} == NAMED_METRICS


def test_benchmark_json_keeps_the_format_limits():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60 and 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        names.append(m["name"])
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]


@pytest.mark.parametrize("name", sorted(NAMED_WORKLOADS))
def test_seed_changes_inputs_but_not_the_ops(name, tmp_path, monkeypatch):
    prepared = []
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        monkeypatch.chdir(tmp_path / str(seed))
        prepared.append(workloads.prepare(name, seed))
    a, b = prepared
    assert a.inputs != b.inputs
    assert a.inputs == workloads.prepare(name, 1).inputs
    assert len(a.ops) == len(b.ops)


def test_perturbed_library_result_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    prepared = workloads.prepare("ring_spectra", 3)
    direct = next(op for op in prepared.ops if op.name.startswith("ring4.direct"))
    quad = next(op for op in prepared.ops if op.name.startswith("ring4.quad"))
    result = direct.run()
    assert direct.check(result) == (1, [])
    # the direct result stands in for the quadrature: equal within 1e-8
    assert quad.check(result) == (1, [])
    for op in (direct, quad):
        points, failures = op.check(dataclasses.replace(result, value=result.value + 1e-6))
        assert points == 1 and len(failures) == 1


def test_perturbed_csv_row_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    prepared = workloads.prepare("dimer_sweep", 3)
    entropy = prepared.ops[0]
    rc = entropy.run()
    lines = Path("dimer.csv").read_text().splitlines()
    assert entropy.check(rc) == (25, [])
    with pytest.raises(FileNotFoundError):   # a pass must write its own output
        entropy.check(rc)
    t, ds, err = lines[7].split(",")
    lines[7] = ",".join((t, f"{float(ds) + 1e-6:.11e}", err))
    Path("dimer.csv").write_text("\n".join(lines) + "\n")
    points, failures = entropy.check(rc)
    assert points == 25 and len(failures) == 1


def test_tracer_wraps_every_binding_and_detects_a_missed_one():
    tracer = tracing.Tracer()
    original = qcaloric.linalg.hermitian_eigen
    tracer.install()
    try:
        for module in (qcaloric, qcaloric.linalg, qcaloric.caloric, qcaloric.thermal,
                       qcaloric.discord):
            assert module.hermitian_eigen is not original
            assert module.hermitian_eigen.__wrapped__ is original
        qcaloric.thermal.hermitian_eigen = original
        with pytest.raises(tracing.BindingError, match="qcaloric.thermal.hermitian_eigen"):
            tracer.check_bindings()
    finally:
        tracer.uninstall()
    assert qcaloric.thermal.hermitian_eigen is original
    assert qcaloric.caloric.hermitian_eigen is original


def test_union_length_counts_overlap_once():
    assert tracing._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def test_traced_passes_reproduce_their_counters(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QCAL_THREADS", "2")
    prepared = workloads.prepare("dimer_sweep", 5)
    prepared.ops = [op for op in prepared.ops if op.name in ("entropy-sweep", "discord")]
    untraced = run._run_passes(prepared, 0.0, 1)
    passes, metrics, _, counters = run._traced(prepared, 0.0, untraced)
    assert len(passes) == 2 and not any(p["failed"] for p in passes)
    assert metrics["sweep.threads"] == 2
    assert 0 < metrics["sweep.self_s"] < metrics["sweep.run_sweep_s"]
    assert metrics["discord.pair_correlation_calls"] == 25
    assert metrics["linalg.eigensolves"] == metrics["linalg.eigensolves.d4"] > 0
    assert counters["calls:cli.cli_main"] == 2


def test_run_prints_the_same_metric_names_for_every_seed():
    keys = []
    for seed in (1, 2):
        out = io.StringIO()
        with redirect_stdout(out):
            assert run.main(["--workload", "dimer_sweep", "--seed", str(seed),
                             "--seconds", "0.01", "--trace", "0"]) == 0
        result = json.loads(out.getvalue().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
        keys.append(sorted(result["metrics"]))
    assert keys[0] == keys[1] == sorted(m[0] for m in spec.END_TO_END)
