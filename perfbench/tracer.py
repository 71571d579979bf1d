"""Spans at the module boundaries of ``holerates``, recorded from outside.

The tracer replaces each traced function in every ``holerates`` module that
holds it (for example ``extremal.compare``, ``roots.refine`` and
``cli.escape_rate``), so a call is recorded where the calling module looks
the function up.  Nothing inside ``src/`` is changed; ``remove`` restores the
originals.

A span is ``[layer, function, parent index, start, end]``; parents come from
a call stack, since the benchmark is single-threaded.  A function's self time
is its span's duration minus the durations of its child spans.  Counts are
derived afterwards from the recorded arguments and return values.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: Traced functions per layer (the package's modules).  ``enumerate_words``
#: is a generator: each ``next`` is a span of its own.
TRACED = {
    "words": ("enumerate_words",),
    "measures": ("as_fraction", "hole_measure", "stationary_distribution", "is_allowed", "markov_weights"),
    "polynomials": ("survival_denominator",),
    "roots": (
        "smallest_positive_root",
        "rate_from_denominator",
        "escape_rate",
        "refine",
        "compare",
        "compare_with_rational",
    ),
    "extremal": (
        "families",
        "gamma_max",
        "gamma_max_two_symbols",
        "brute_force_gamma_max",
        "max_rate_bounds",
        "ordering_table",
        "markov_scan",
    ),
    "survival": ("survival_series", "genfun", "genfun_from_word_equations", "direct_enumeration"),
    "cli": ("main",),
}

#: Every per-layer metric, with its unit, in the order they are printed.
PER_LAYER = (
    ("words.enumerate_words.calls", "count"),
    ("words.enumerate_words.items", "count"),
    ("words.enumerate_words.self_s", "s"),
    ("measures.calls", "count"),
    ("measures.self_s", "s"),
    ("polynomials.survival_denominator.calls", "count"),
    ("polynomials.survival_denominator.self_s", "s"),
    ("polynomials.distinct_ratio", "ratio"),
    ("polynomials.coeff_bits_max", "bits"),
    ("roots.smallest_positive_root.calls", "count"),
    ("roots.smallest_positive_root.self_s", "s"),
    ("roots.rate_from_denominator.calls", "count"),
    ("roots.rate_from_denominator.self_s", "s"),
    ("roots.escape_rate.calls", "count"),
    ("roots.escape_rate.self_s", "s"),
    ("roots.refine.calls", "count"),
    ("roots.exact_ratio", "ratio"),
    ("roots.enclosure_bits_max", "bits"),
    ("roots.compare.calls", "count"),
    ("roots.compare.self_s", "s"),
    ("roots.compare_with_rational.calls", "count"),
    ("extremal.self_s", "s"),
    ("survival.survival_series.calls", "count"),
    ("survival.survival_series.self_s", "s"),
    ("survival.genfun.calls", "count"),
    ("survival.genfun.self_s", "s"),
    ("survival.genfun_from_word_equations.calls", "count"),
    ("survival.genfun_from_word_equations.self_s", "s"),
    ("survival.direct_enumeration.calls", "count"),
    ("survival.direct_enumeration.self_s", "s"),
    ("survival.direct_enumeration.words", "count"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

#: Functions whose arguments or return values feed a derived count.
_OBSERVED = {"survival_denominator", "smallest_positive_root", "rate_from_denominator", "direct_enumeration"}


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Installs wrappers, records one pass of spans, and summarises it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]
        self._observed: dict[str, list] = defaultdict(list)
        self._generator_calls = 0
        self._generator_items = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        modules = [
            module
            for name, module in sys.modules.items()
            if module is not None and (name == "holerates" or name.startswith("holerates."))
        ]
        for layer, names in TRACED.items():
            home = sys.modules[f"holerates.{layer}"]
            for name in names:
                original = getattr(home, name)
                if name == "enumerate_words":
                    wrapper = self._wrap_generator(layer, name, original)
                else:
                    wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))

    def remove(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []
        self._stack[:] = [-1]
        self._observed.clear()
        self._generator_calls = 0
        self._generator_items = 0

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        observed = self._observed if name in _OBSERVED else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            span = [layer, name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if observed is not None:
                observed[name].append((args, result))
            return result

        return wrapper

    def _wrap_generator(self, layer: str, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._generator_calls += 1
            inner = fn(*args, **kwargs)

            def items():
                while True:
                    spans = tracer.spans
                    span = [layer, name, stack[-1], clock(), 0.0]
                    stack.append(len(spans))
                    spans.append(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        span[4] = clock()
                    tracer._generator_items += 1
                    yield item

            return items()

        return wrapper

    # -- summary --------------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], list]:
        """(layer, function) -> [calls, self seconds] for the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        for (layer, name, _, start, end), inner in zip(spans, child):
            entry = out[(layer, name)]
            entry[0] += 1
            entry[1] += (end - start) - inner
        return out

    def summary(self, output_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the recorded pass (without trace.overhead_s)."""
        times = self.self_times()

        def calls(layer, name):
            return times[(layer, name)][0] if (layer, name) in times else 0

        def self_s(layer, name=None):
            return sum(
                value[1] for (lay, fn), value in times.items() if lay == layer and (name is None or fn == name)
            )

        polys = [result.coeffs for _, result in self._observed["survival_denominator"]]
        distinct = set(polys)
        rates = [result for _, result in self._observed["rate_from_denominator"]]
        enclosures = [result for _, result in self._observed["smallest_positive_root"]]
        enum_words = sum(
            args[0].alphabet.size ** args[2] for args, _ in self._observed["direct_enumeration"]
        )
        metrics = {
            "words.enumerate_words.calls": self._generator_calls,
            "words.enumerate_words.items": self._generator_items,
            "words.enumerate_words.self_s": self_s("words"),
            "measures.calls": sum(calls("measures", fn) for fn in TRACED["measures"]),
            "measures.self_s": self_s("measures"),
            "polynomials.survival_denominator.calls": len(polys),
            "polynomials.survival_denominator.self_s": self_s("polynomials"),
            "polynomials.distinct_ratio": len(distinct) / len(polys) if polys else 0.0,
            "polynomials.coeff_bits_max": max((_bits(c) for p in distinct for c in p), default=0),
            "roots.exact_ratio": sum(r.exact for r in rates) / len(rates) if rates else 0.0,
            "roots.enclosure_bits_max": max(
                (max(_bits(r.lower), _bits(r.upper)) for r in enclosures), default=0
            ),
            "extremal.self_s": self_s("extremal"),
            "survival.direct_enumeration.words": enum_words,
            "cli.self_s": self_s("cli"),
            "cli.output_bytes": output_bytes,
        }
        for fn in ("smallest_positive_root", "rate_from_denominator", "escape_rate", "compare"):
            metrics[f"roots.{fn}.calls"] = calls("roots", fn)
            metrics[f"roots.{fn}.self_s"] = self_s("roots", fn)
        for fn in ("refine", "compare_with_rational"):
            metrics[f"roots.{fn}.calls"] = calls("roots", fn)
        for fn in TRACED["survival"]:
            metrics[f"survival.{fn}.calls"] = calls("survival", fn)
            metrics[f"survival.{fn}.self_s"] = self_s("survival", fn)
        return metrics


def combine(passes: list[dict[str, float]], overhead_s: float) -> dict[str, float]:
    """One value per metric over several traced passes: the least of each
    time, and the first pass's counts (they repeat exactly)."""
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = overhead_s
        elif unit == "s":
            out[name] = min(p[name] for p in passes)
        else:
            out[name] = passes[0][name]
    return out
