"""Spans around every public function of qcaloric's modules, from outside.

``Tracer.install`` replaces each binding of a traced function, in every
loaded ``qcaloric.*`` module, by a timing wrapper; nothing in ``src/``
changes. Modules import functions by name (``hermitian_eigen`` is bound
separately in ``caloric``, ``thermal`` and ``discord``), so a binding left
untouched would let calls escape the counts: ``check_bindings`` fails if any
binding still holds an original function.

A span records its name, duration, self time (its duration minus the time
its child spans cover), the op id the benchmark set and the thread it ran
on. Spans are aggregated in memory as they close. Sweep worker threads start
with an empty stack; their root spans become children of the span that is
open on the op's own thread (``run_sweep``), so their time is attributed to
it and their overlap is counted once.
"""

import dataclasses
import functools
import inspect
import os
import sys
import threading
import time
from collections import Counter, defaultdict

import spec

LAYERS = ("linalg", "models", "thermal", "caloric", "discord", "sweep",
          "scenario", "curves", "cli")
_BUILDERS = ("models.build_dimer", "models.build_single_spin_zeeman",
             "models.build_tabulated")
_LEVELLED = ("caloric.isothermal_entropy_change",
             "caloric.adiabatic_temperature_change",
             "caloric.adiabatic_temperature_change_matching")
_QUAD = "caloric.isothermal_entropy_change"
_ODE = "caloric.adiabatic_temperature_change"
_EIGEN = "linalg.hermitian_eigen"
_POPS = "thermal.populations_from_levels"
_SWEEP = "sweep.run_sweep"


class BindingError(RuntimeError):
    """A qcaloric module still binds a function the tracer should wrap."""


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "cross", "parent",
                 "local", "cpu0")


class Tracer:
    """Timing wrappers plus the aggregates of the spans they record."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._originals = {}    # id(function) -> (function, wrapper)
        self._patched = []      # (module, attribute, original)
        self._op_stack = []
        self.recording = False
        self.op = None
        self.reset()

    # -- aggregates ---------------------------------------------------------

    def reset(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.cpu = defaultdict(float)
        self.under = Counter()      # (ancestor name or "layer:<x>", name)
        self.counts = Counter()     # work counters observed on results
        self.times = defaultdict(float)
        self.op_spans = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.op_threads = defaultdict(set)
        self.peak_workers = 0
        self._workers = 0

    def counters(self):
        """Every machine-independent count recorded since ``reset``."""
        out = {f"calls:{k}": v for k, v in self.calls.items()}
        out.update({f"under:{a}>{n}": v for (a, n), v in self.under.items()})
        out.update({f"count:{k}": v for k, v in self.counts.items()})
        return dict(sorted(out.items()))

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op):
        self.op = op
        self._op_stack = self._stack()
        self.recording = True

    def end_op(self):
        self.recording = False
        self.op = None

    # -- spans --------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _enter(self, name, layer):
        stack = self._stack()
        frame = _Frame()
        frame.name, frame.layer = name, layer
        frame.child, frame.cross, frame.cpu0 = 0.0, None, None
        frame.local = True
        frame.parent = stack[-1] if stack else None
        if not stack and stack is not self._op_stack and self._op_stack:
            frame.parent, frame.local = self._op_stack[-1], False
            with self._lock:
                self._workers += 1
                self.peak_workers = max(self.peak_workers, self._workers)
        if name == _SWEEP:
            frame.cpu0 = time.process_time()
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack().pop()
        duration = end - frame.start
        covered = frame.child
        if frame.cross:
            covered += _union_length(frame.cross)
        ancestors, layers = set(), set()
        parent = frame.parent
        while parent is not None:
            ancestors.add(parent.name)
            layers.add(parent.layer)
            parent = parent.parent
        name = frame.name
        with self._lock:
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += max(duration - covered, 0.0)
            for a in ancestors:
                self.under[(a, name)] += 1
            for layer in layers:
                self.under[("layer:" + layer, name)] += 1
            if frame.cpu0 is not None:
                self.cpu[name] += time.process_time() - frame.cpu0
            entry = self.op_spans[self.op][name]
            entry[0] += 1
            entry[1] += duration
            self.op_threads[self.op].add(threading.get_ident())
            if frame.parent is not None:
                if frame.local:
                    frame.parent.child += duration
                else:
                    if frame.parent.cross is None:
                        frame.parent.cross = []
                    frame.parent.cross.append((frame.start, end))
                    self._workers -= 1
        return duration

    def _observe(self, name, args, result, duration):
        """Counters read off a call's arguments and result."""
        if name == _EIGEN:
            arg = args[0]
            dim = arg.dim if hasattr(arg, "dim") else len(arg)
            with self._lock:
                self.counts[f"eigensolves.d{dim}"] += 1
                self.times[f"eigen_s.d{dim}"] += duration
        elif name in _LEVELLED:
            with self._lock:
                self.counts[f"levels:{name}"] += result.refinement_levels
        elif name == "curves.emit_csv":
            size = sum(os.path.getsize(p) for p in result)
            with self._lock:
                self.counts["bytes_out"] += size
        elif name == "curves.emit_svg":
            size = os.path.getsize(args[1])
            with self._lock:
                self.counts["bytes_out"] += size
        elif name in _BUILDERS:
            return self.instrument_model(result)
        return result

    def wrap(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(frame)
            return tracer._observe(name, args, result, duration)

        return traced

    def instrument_model(self, model):
        """The model with ``evaluate`` (building and validating H(lambda)) traced."""
        return dataclasses.replace(
            model, evaluate=self.wrap(model.evaluate, "models.evaluate", "models"))

    # -- bindings -----------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "qcaloric" or n.startswith("qcaloric."))]

    def install(self):
        """Wrap every public function of each layer, at every binding."""
        for layer in LAYERS:
            module = sys.modules[f"qcaloric.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    self._originals[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}", layer))
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                entry = self._originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))
        self.check_bindings()

    def check_bindings(self):
        """Raise BindingError if any qcaloric binding escaped the wrappers."""
        if not self._originals:
            raise BindingError("tracer is not installed")
        missed = [f"{module.__name__}.{attr}"
                  for module in self._modules()
                  for attr, obj in vars(module).items()
                  if id(obj) in self._originals and self._originals[id(obj)][0] is obj]
        if missed:
            raise BindingError("untraced bindings: " + ", ".join(sorted(missed)))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._originals.clear()


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics of spec.PER_LAYER measured since the last reset.

    ``trace_overhead_frac`` and ``failed_frac`` come from the runner.
    """
    calls, total, under, counts = tracer.calls, tracer.total, tracer.under, tracer.counts
    m = {
        "linalg.eigensolves": calls[_EIGEN],
        "linalg.eigen_s": total[_EIGEN],
        "linalg.eigen_us_per_call": _ratio(total[_EIGEN], calls[_EIGEN], 1e6),
    }
    for dim in ("d4", "d16", "d64"):
        n, s = counts[f"eigensolves.{dim}"], tracer.times[f"eigen_s.{dim}"]
        m[f"linalg.eigensolves.{dim}"] = n
        m[f"linalg.eigen_s.{dim}"] = s
        m[f"linalg.eigen_us_per_call.{dim}"] = _ratio(s, n, 1e6)
    m.update({
        "models.evaluate_calls": calls["models.evaluate"],
        "models.evaluate_s": total["models.evaluate"],
        "thermal.populations_calls": calls[_POPS],
        "thermal.populations_s": total[_POPS],
        "thermal.decompose_s": total["thermal.process_decompose"],
        "thermal.decompose_eigensolves": under[("thermal.process_decompose", _EIGEN)],
        "caloric.quad_s": total[_QUAD],
        "caloric.quad_levels": counts[f"levels:{_QUAD}"],
        # one populations_from_levels call per integrand evaluation / RK4 stage
        "caloric.quad_integrand_evals": under[(_QUAD, _POPS)],
        "caloric.ode_s": total[_ODE],
        "caloric.ode_levels": counts[f"levels:{_ODE}"],
        "caloric.ode_rhs_evals": under[(_ODE, _POPS)],
        # each spectral lookup in caloric is followed by exactly one
        # populations_from_levels call; a cache miss adds an eigensolve
        "caloric.lambda_reuse": 1.0 - _ratio(under[("layer:caloric", _EIGEN)],
                                             under[("layer:caloric", _POPS)])
        if under[("layer:caloric", _POPS)] else 0.0,
        "caloric.direct_s": total["caloric.isothermal_entropy_change_direct"],
        "caloric.match_s": total["caloric.adiabatic_temperature_change_matching"],
        "caloric.match_iters": counts["levels:caloric.adiabatic_temperature_change_matching"],
        "caloric.force_s": total["caloric.generalized_force"],
        "discord.pair_correlation_calls": calls["discord.pair_correlation"],
        "discord.pair_correlation_s": total["discord.pair_correlation"],
        "sweep.run_sweep_s": total[_SWEEP],
        "sweep.self_s": tracer.self_time[_SWEEP],
        "sweep.cpu_per_wall": _ratio(tracer.cpu[_SWEEP], total[_SWEEP]),
        "sweep.threads": tracer.peak_workers,
        "scenario.parse_s": total["scenario.parse_scenario"],
        "curves.csv_s": total["curves.emit_csv"],
        "curves.svg_s": total["curves.emit_svg"],
        "curves.bytes_out": counts["bytes_out"],
        "cli.self_s": tracer.self_time["cli.cli_main"],
    })
    return m


# per-layer metrics that are counts of work, hence reproducible exactly
COUNTER_METRICS = tuple(
    name for name, unit, *_ in spec.PER_LAYER
    if unit in ("count", "B") and name != "sweep.threads") + ("caloric.lambda_reuse",)
