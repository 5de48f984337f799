"""Per-layer tracing of covertsim from outside the package.

`Tracer.install()` replaces each public function named in TARGETS, in every
covertsim module namespace that binds it, with a wrapper that records one
span per call: target, layer group, parent span, start and end.  Spans stay
in memory; `summary()` reduces them to call counts, inclusive times (outermost
span of a group only, so recursion is not double counted) and self times
(span duration minus its child spans).

Integrand-level helpers (`log_gamma_density`, `LogDensity.__call__`) are not
wrapped: they run per quadrature node, and wrapping them would cost more than
the work they do.  A target that no longer exists is listed as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (layer group, module under covertsim, attribute or Class.method)
TARGETS = [
    ("synth.slot", "synth", "synthesize_willie_slot"),
    ("detectors.block_powers", "detectors", "block_powers"),
    ("detectors.lrt_term", "detectors", "log_lrt_block_term"),
    ("detectors.lrt_term", "detectors", "log_lrt_awgn"),
    ("detectors.lrt_term", "detectors", "log_lrt_m1"),
    ("detectors.lrt_term", "detectors", "log_lrt_mblock"),
    ("detectors.table", "detectors", "table_for_config"),
    ("detectors.table", "detectors", "BlockLrtTable.__init__"),
    ("detectors.table", "detectors", "BlockLrtTable._self_check"),
    ("detectors.table", "detectors", "BlockLrtTable.__call__"),
    ("numerics.block_integral", "numerics", "log_integral_block"),
    ("numerics.uniform_mixture", "numerics", "log_mixture_density_uniform"),
    ("numerics.adaptive_quad", "numerics", "adaptive_log_quad"),
    ("numerics.bisect", "numerics", "bisect_monotone"),
    ("harness.collect", "harness", "collect_statistics"),
    ("harness.threshold", "harness", "lrt_power_threshold"),
    ("harness.search", "harness", "covertness_curve"),
    ("harness.search", "harness", "willie_min_error"),
    ("harness.search", "harness", "sweep_thresholds"),
    ("theory.lr_order", "theory", "check_lr_order"),
    ("theory.monotone", "theory", "check_lrt_monotone"),
    ("theory.boundary_root", "theory", "boundary_root"),
    ("theory.boundary_mass", "theory", "estimate_boundary_mass"),
    ("throughput.capacity", "throughput", "outage_capacity"),
    ("cli", "cli", "main"),
]

_KEY, _GROUP, _PARENT, _NESTED, _START, _END = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = defaultdict(int)
        self.f_evals = 0
        self.samples = 0
        self.failures = 0
        self.absent = []

    @classmethod
    def install(cls):
        """Wrap every target; call after `import covertsim.cli`."""
        tracer = cls()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "covertsim" or name.startswith("covertsim."))]
        numerical_error = importlib.import_module("covertsim.numerics").NumericalError
        for group, module, attr in TARGETS:
            key = f"{module}:{attr}"  # distinct from the group names
            owner = importlib.import_module(f"covertsim.{module}")
            name = attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = None if owner is None else vars(owner).get(name)
            if original is None:
                tracer.absent.append(key)
                continue
            wrapped = tracer._wrap(key, group, original, numerical_error)
            if isinstance(owner, type):
                setattr(owner, name, wrapped)
                continue
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, bound, wrapped)
        return tracer

    def _wrap(self, key, group, fn, numerical_error):
        spans, stack, depth = self.spans, self._stack, self._depth
        count_f = group == "numerics.bisect"
        count_samples = group == "synth.slot"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_f:
                args, kwargs = self._counting_f(args, kwargs)
            span = [key, group, stack[-1] if stack else -1, depth[group] > 0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            depth[group] += 1
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except numerical_error as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.failures += 1
                raise
            finally:
                span[_END] = time.perf_counter()
                depth[group] -= 1
                stack.pop()
            if count_samples:
                self.samples += len(getattr(result, "samples", ()))
            return result

        return traced

    def _counting_f(self, args, kwargs):
        """Replace the `f` handed to bisect_monotone by one that counts calls."""
        f = kwargs["f"] if "f" in kwargs else args[0]

        def counted(x):
            self.f_evals += 1
            return f(x)

        if "f" in kwargs:
            return args, {**kwargs, "f": counted}
        return (counted, *args[1:]), kwargs

    def summary(self):
        """Counts, inclusive and self seconds per target and per group."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        targets = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        groups = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, span in enumerate(self.spans):
            dur = span[_END] - span[_START]
            for stats, nested in ((targets[span[_KEY]], False), (groups[span[_GROUP]], span[_NESTED])):
                stats["calls"] += 1
                stats["self_s"] += dur - child[i]
                if not nested:
                    stats["incl_s"] += dur
        return {
            "targets": dict(targets),
            "groups": dict(groups),
            "f_evals": self.f_evals,
            "samples": self.samples,
            "failures": self.failures,
            "absent": self.absent,
        }
