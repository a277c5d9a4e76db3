"""Span tracer that wraps listed public functions of the ``qmcs`` package.

A function imported with ``from .module import name`` is a separate binding
in the importing module, so wrapping it only where it is defined would miss
every call made through such a binding (``qmcs.mean.ae_median`` is one).
The tracer therefore replaces every ``qmcs.*`` module attribute that holds a
listed function, and ``unwrapped_bindings`` reports any it left behind.

Spans stay in memory as ``(name, start, end, parent, op)`` tuples, indexed
by span id; ``op`` is the id of the benchmark op that caused the span, or -1
for work done during set-up.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

LAYERS = {
    "amplitude": ("ae_sample", "ae_median", "ae_outcome_distribution"),
    "outcome": ("make_distribution", "truncate", "transform",
                "classical_sample_block"),
    "mean": ("estimate_mean_variance", "estimate_mean_relative",
             "estimate_mean_l2", "power_median", "powering_reps"),
    "walk": ("szegedy_walk", "approx_reflection", "warm_start_prepare"),
    "chains": ("glauber_chain", "matching_chain", "relaxation_time"),
    "gibbs": ("exact_partition", "gibbs_distribution", "overlap_squared"),
    "partition": ("build_schedule", "verify_schedule", "ratio_variable",
                  "reversed_ratio_variable", "estimate_partition"),
    "tvd": ("estimate_tvd", "tvd_subroutine_distribution", "median_law"),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def import_package():
    """Import every ``qmcs`` submodule, so that all its bindings exist.

    ``qmcs.__main__`` is skipped: importing it runs the command line.
    """
    import qmcs

    for info in pkgutil.iter_modules(qmcs.__path__):
        if info.name != "__main__":
            importlib.import_module(f"qmcs.{info.name}")


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qmcs" or name.startswith("qmcs."))]


def unwrapped_bindings(originals) -> list:
    """``module.attr`` names in ``qmcs.*`` still bound to an unwrapped original."""
    ids = {id(fn) for fn in originals}
    return sorted(f"{mod.__name__}.{attr}" for mod in _package_modules()
                  for attr, value in vars(mod).items() if id(value) in ids)


class Tracer:
    """Wraps the functions in ``LAYERS`` and records one span per call."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.originals = {}
        self.law_sizes = []
        self._outcome_keys = set()
        self.outcome_repeats = 0
        self._stack = []

    def install(self):
        import_package()
        for mod_name, fns in LAYERS.items():
            module = sys.modules[f"qmcs.{mod_name}"]
            for fn_name in fns:
                self.originals[f"{mod_name}.{fn_name}"] = getattr(module, fn_name)
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in self.originals.items()}
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        left = unwrapped_bindings(self.originals.values())
        if left:
            raise RuntimeError(f"tracer left bindings unwrapped: {left}")

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = {"amplitude.ae_outcome_distribution": self._see_outcome,
                   "tvd.tvd_subroutine_distribution": self._see_law}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _see_outcome(self, args, kwargs, result):
        key = (args, tuple(sorted(kwargs.items())))
        if key in self._outcome_keys:
            self.outcome_repeats += 1
        self._outcome_keys.add(key)

    def _see_law(self, args, kwargs, result):
        self.law_sizes.append(result.support_size)

    def layer_metrics(self) -> dict:
        """Per function ``calls`` and ``self_s``, plus the derived ratios."""
        calls = dict.fromkeys(TRACED, 0)
        self_s = dict.fromkeys(TRACED, 0.0)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        n_sample = calls["amplitude.ae_sample"]
        out["amplitude.ae_sample.us_per_call"] = (
            1e6 * self_s["amplitude.ae_sample"] / n_sample if n_sample else 0.0)
        n_outcome = calls["amplitude.ae_outcome_distribution"]
        out["amplitude.ae_outcome_distribution.repeat_share"] = (
            self.outcome_repeats / n_outcome if n_outcome else 0.0)
        out["tvd.law_support_mean"] = (
            sum(self.law_sizes) / len(self.law_sizes) if self.law_sizes else 0.0)
        return out

    def write(self, path):
        """Write every span as one JSON line ``[id, name, start, end, parent, op]``."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, op]))
                fh.write("\n")
