"""qcaloric benchmark: one workload as a closed loop, every result oracle-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. One
process issues the workload's ops back to back, and a pass starts only when
the previous one has finished. Passes repeat while the next one is expected
to end within ``--seconds``. Each op is timed alone; its output is then read
back and compared with an independent oracle outside the timing.

``--trace 0`` prints the end-to-end metrics of spec.END_TO_END. ``--trace 1``
runs untraced passes for half the time, then at least two passes with the
tracer installed, and prints the per-layer metrics of spec.PER_LAYER; every
work counter must be identical across the traced passes, or the run fails.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The sweep thread pool runs at its
default size: QCAL_THREADS is removed from the environment. Run as a script,
the benchmark first binds itself, and so the set-up probes it starts, to one
CPU of those it may use (see ``_pin_to_one_cpu``).
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spec
import tracer as tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


# CPUs the process could use before _pin_to_one_cpu; None when it did not run
ALLOWED_CPUS = None


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_probe(workload, seed):
    env = {k: v for k, v in os.environ.items() if k != "QCAL_THREADS"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def _pin_to_one_cpu():
    """Bind this process and the processes it starts to its lowest allowed CPU.

    The sweep pool's threads contend for the interpreter lock. Spread over
    two vCPUs of a shared host, each hand-off leaves a vCPU idle, the host
    gives it to other guests (18-42 % steal was seen), and pass times follow
    the host's load. Bound to one CPU, the pool keeps its default size
    (thread_count() reads os.cpu_count(), not the affinity) and its hand-offs
    stay on that CPU. It runs before numpy is imported, so that BLAS sizes its
    thread pool to the one CPU as well.
    """
    global ALLOWED_CPUS
    ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {ALLOWED_CPUS[0]})


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _cpu_ticks():
    """(all, steal) jiffies of the machine from /proc/stat, or None."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7] if len(fields) > 7 else 0


def _steal_frac(before, after):
    """Share of the machine's CPU time the hypervisor gave to other guests."""
    if before is None or after is None or after[0] == before[0]:
        return None
    return (after[1] - before[1]) / (after[0] - before[0])


def _manifest(args, prepared):
    import numpy
    import qcaloric.sweep
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(ALLOWED_CPUS or os.sched_getaffinity(0)),
        "cpu_affinity": sorted(os.sched_getaffinity(0)), "os_cpu_count": os.cpu_count(),
        "sweep_thread_count": qcaloric.sweep.thread_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "scenario_sha256": prepared.scenario_sha256,
        "inputs": prepared.inputs, "inputs_sha256": prepared.inputs_sha256,
    }


def _run_pass(prepared, tracer, index):
    """All ops once. Returns the timed wall/CPU seconds, points and failures."""
    wall = cpu = 0.0
    points, failed = 0, []
    for op in prepared.ops:
        if tracer is not None:
            tracer.begin_op(f"pass{index}:{op.name}")
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:   # an op that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if tracer is not None:
            tracer.end_op()
        if error is None:
            try:
                n, failures = op.check(result)
            except (OSError, ValueError, IndexError) as exc:   # unreadable output
                n, failures = 0, [f"output unreadable: {type(exc).__name__}: {exc}"]
        else:
            n, failures = 0, [error]
        points += n
        if failures:
            failed.append((op.name, failures))
    return {"wall": wall, "cpu": cpu, "points": points, "ops": len(prepared.ops),
            "failed": failed}


def _run_passes(prepared, budget_s, min_passes, tracer=None, on_pass=None):
    start, passes = time.perf_counter(), []
    while True:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        passes.append(_run_pass(prepared, tracer, len(passes)))
        if on_pass is not None:
            on_pass(passes[-1])
        now = time.perf_counter()
        if len(passes) >= min_passes and (now - start) + (now - t0) > budget_s:
            return passes


def _end_to_end(passes, setup_samples):
    wall = sum(p["wall"] for p in passes)
    points = sum(p["points"] for p in passes)
    return {
        "setup_s": statistics.median(setup_samples),
        "solve_s_p50": statistics.median(p["wall"] for p in passes),
        "points_per_s": points / wall if wall else 0.0,
        "cpu_s_per_point": sum(p["cpu"] for p in passes) / points if points else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(prepared, budget_s, untraced):
    """Traced passes; per-layer metrics with counters checked across passes."""
    tracer = tracing.Tracer()
    for key, model in prepared.models.items():
        prepared.models[key] = tracer.instrument_model(model)
    tracer.install()
    snapshots = []
    try:
        passes = _run_passes(
            prepared, budget_s, 2, tracer,
            on_pass=lambda p: snapshots.append(
                (tracing.layer_metrics(tracer), tracer.counters(),
                 {op: dict(spans) for op, spans in tracer.op_spans.items()},
                 {op: sorted(ids) for op, ids in tracer.op_threads.items()})))
        tracer.check_bindings()
    finally:
        tracer.uninstall()
    first = snapshots[0][1]
    for k, (_, counters, _, _) in enumerate(snapshots[1:], start=1):
        diff = sorted(key for key in set(first) | set(counters)
                      if first.get(key) != counters.get(key))
        if diff:
            raise BenchmarkError(
                f"work counters differ between traced passes 0 and {k}: "
                + ", ".join(f"{key} {first.get(key)} != {counters.get(key)}" for key in diff))
    metrics = {}
    for name in snapshots[0][0]:
        values = [s[0][name] for s in snapshots]
        metrics[name] = values[0] if name in tracing.COUNTER_METRICS else statistics.median(values)
    metrics["trace_overhead_frac"] = (
        statistics.median(p["wall"] for p in passes)
        / statistics.median(p["wall"] for p in untraced) - 1.0)
    spans = [{"pass": k, "op_spans": s[2], "op_threads": s[3]}
             for k, s in enumerate(snapshots)]
    return passes, metrics, spans, first


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "qcaloric" / "__init__.py").is_file():
        print(f"perfbench: no qcaloric sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("QCAL_THREADS", None)
    sys.path.insert(1, str(SRC))
    import qcaloric
    if Path(qcaloric.__file__).resolve().parent != SRC / "qcaloric":
        print(f"perfbench: imported qcaloric from {qcaloric.__file__}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    try:
        setup_samples = ([] if args.trace else
                         [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)])
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
        os.chdir(workdir)
        try:
            prepared = workloads.prepare(args.workload, args.seed)
            manifest = _manifest(args, prepared)
            ticks = _cpu_ticks()
            if args.trace:
                untraced = _run_passes(prepared, args.seconds / 2, 1)
                traced, metrics, spans, counters = _traced(prepared, args.seconds / 2, untraced)
                passes = untraced + traced
            else:
                passes = _run_passes(prepared, args.seconds, 1)
                metrics = _end_to_end(passes, setup_samples)
            manifest["host_steal_frac"] = _steal_frac(ticks, _cpu_ticks())
        finally:
            os.chdir(ROOT)
            shutil.rmtree(workdir)
    except (BenchmarkError, tracing.BindingError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    attempted = sum(p["ops"] for p in passes)
    failures = [f for p in passes for f in p["failed"]]
    failed_frac = len(failures) / attempted
    table = spec.PER_LAYER if args.trace else spec.END_TO_END
    if args.trace:
        metrics["failed_frac"] = failed_frac
    units = {row[0]: row[1] for row in table}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}

    print(f"# manifest {json.dumps(manifest, sort_keys=True)}")
    for name, unit, *rest in table:
        note = (f"  (moves {rest[1]} on {rest[2]})" if args.trace
                else f"  ({len(passes)} passes)" if name == "solve_s_p50"
                else f"  ({len(setup_samples)} probes)" if name == "setup_s" else "")
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}{note}")
    print(f"{args.workload} failed_frac = {failed_frac:.6g} 1  "
          f"({len(failures)} of {attempted} ops)")
    for op, messages in failures:
        print(f"# FAILED {args.workload}/{op}: " + "; ".join(messages[:3]))
    record = {"manifest": manifest, "result": result, "passes": passes}
    if args.trace:
        record.update(spans=spans, counters=counters)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _pin_to_one_cpu()
    sys.exit(main())
