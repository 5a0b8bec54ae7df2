"""Spans and counts around the library's layer boundaries, for the traced run.

``Tracer.install`` wraps each traced callable under every name its callers
look up: the function in its own module and every splitnorm module that
imported it (``polyalg.convolve`` is also ``normprofile.convolve`` and
``splitcore.convolve``), and methods on their class.  A span records its
duration and adds it to its parent's child time, which gives self times.
Spans are kept per thread (the CLI's ``batch`` runs jobs on threads) and
aggregated in memory; nothing is written until the run ends.  Only spans of
the thread that runs the jobs count as roots, whose time the job time is
compared with.

The end-to-end metrics are measured with no tracer installed.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); "Class.method" attributes wrap the method
SPANS = (
    ("polyalg", "convolve", "polyalg.convolve"),
    ("polyalg", "correlate", "polyalg.correlate"),
    ("polyalg", "l2_inner", "polyalg.l2_inner"),
    ("polyalg", "is_nonincreasing_on", "polyalg.is_nonincreasing_on"),
    ("polyalg", "isolate_real_roots", "polyalg.isolate_real_roots"),
    ("splitcore", "split", "splitcore.split"),
    ("splitcore", "apply_split", "splitcore.apply_split"),
    ("splitcore", "class_s_check", "splitcore.class_s_check"),
    ("normprofile", "norm_profile", "normprofile.norm_profile"),
    ("normprofile", "check_constancy", "normprofile.check_constancy"),
    ("normprofile", "check_monotone", "normprofile.check_monotone"),
    ("normprofile", "newt_constant", "normprofile.newt_constant"),
    ("normprofile", "series_profile", "normprofile.series_profile"),
    ("normprofile", "SeriesProfile.value", "normprofile.series_value"),
    ("oscint", "norm_numeric", "oscint.norm_numeric"),
    ("oscint", "FTEvaluator.__init__", "oscint.FTEvaluator.init"),
    ("oscint", "FTEvaluator.__call__", "oscint.FTEvaluator.eval"),
    ("multnorm", "estimate_lower", "multnorm.estimate_lower"),
    ("multnorm", "halfline_multiplier", "multnorm.build"),
    ("multnorm", "segment_multiplier", "multnorm.build"),
    ("multnorm", "tent_multiplier", "multnorm.build"),
    ("multnorm", "split_multiplier", "multnorm.build"),
    ("cli", "main", "cli.main"),
    ("cli", "parse_function_spec", "cli.parse_function_spec"),
    ("cli", "canonical_json", "cli.canonical_json"),
    ("cli", "_run_batch", "cli.batch"),
)

FFT_FUNCTIONS = ("fft", "ifft")


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []
        self.reset()

    def reset(self) -> None:
        self.calls = Counter()
        self.busy = defaultdict(float)  # outermost spans of each name only
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.root_s = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack())

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # -- wrapping -----------------------------------------------------------
    def wrap(self, name: str, fn):
        tracer = self
        on_return = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.self_time[name] += dur - frame[1]
                    if outermost:
                        tracer.busy[name] += dur
                    if stack:
                        stack[-1][1] += dur
                    elif threading.current_thread() is threading.main_thread():
                        tracer.root_s += dur
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self) -> None:
        import numpy

        import splitnorm.cli  # noqa: F401  (loads every module below)

        modules = [m for n, m in sys.modules.items() if n == "splitnorm" or n.startswith("splitnorm.")]
        for mod_name, attr, span in SPANS:
            owner = sys.modules[f"splitnorm.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(span, original), original)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped, original)
        for fname in FFT_FUNCTIONS:
            original = getattr(numpy.fft, fname)
            self._set(numpy.fft, fname, self._fft_counter(original), original)

    def _fft_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if tracer.inside("multnorm.estimate_lower"):
                tracer.count("multnorm.fft.calls")
                tracer.count("multnorm.fft.points", len(a))
            return fn(a, *args, **kwargs)

        return counted

    def _set(self, owner, key, value, original) -> None:
        self._undo.append((owner, key, original))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


# -- counts taken from arguments and return values ---------------------------


def _count_convolve(tracer, args, result):
    tracer.count("polyalg.convolve.out_pieces", len(result.pieces))


def _count_nodes(tracer, args, result):
    import numpy

    tracer.count("oscint.FTEvaluator.nodes", int(numpy.size(args[1])))


def _count_estimate(tracer, args, result):
    tracer.count("multnorm.estimate_lower.iterations", result.iterations)
    history = result.history
    last_rise = max((k for k in range(1, len(history)) if history[k] > history[k - 1]), default=0)
    tracer.count("multnorm.iters_after_best", len(history) - 1 - last_rise if history else 0)


RESULT_COUNTS = {
    "polyalg.convolve": _count_convolve,
    "oscint.FTEvaluator.eval": _count_nodes,
    "multnorm.estimate_lower": _count_estimate,
}
