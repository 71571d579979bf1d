"""Output checks for the benchmark, independent of ``holerates.roots``.

Every escape rate is verified in two ways that share no code with the
package's root isolation:

* exact: the survival denominator changes sign across the printed enclosure
  ``[z0_lower, z0_upper]``, or vanishes at it when the enclosure is a point;
* numeric: a reference root, computed with mpmath from the exact
  coefficients, lies in the enclosure.

The float bounds ``gamma_lower``/``gamma_upper`` are compared in mpmath with
``log z0_lower`` and ``log z0_upper`` (or with the log of the reference root,
for tables that print no enclosure).

Failures are collected per check kind; nothing stops at the first one.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import mpmath
import numpy as np

#: Working precision of every mpmath computation, in bits.
PREC = 256
#: Two reference values of z0 - 1 closer than this relative distance are the
#: same root (the references are good to far more bits than this).
_TIE = mpmath.mpf(2) ** -100
#: Above this degree, numpy's float roots are too coarse to seed the search.
_NUMPY_MAX_DEGREE = 24

#: The check kinds a run reports failures for.  ``gamma_bounds`` is the float
#: rate interval; every other kind checks an exact, certified output.
KINDS = (
    "exception",
    "exit_code",
    "repeat",
    "enclosure",
    "reference_root",
    "gamma_bounds",
    "table_order",
    "maxima_agree",
    "oracle_checks",
)
#: Check kinds whose failures make ``correct`` false.  ``gamma_bounds`` is
#: left out: it is the known float-bound defect, counted in ``failed``.
EXACT_KINDS = tuple(kind for kind in KINDS if kind != "gamma_bounds")


def _mpf(value: Fraction) -> mpmath.mpf:
    return mpmath.mpf(value.numerator) / value.denominator


def scaled_ints(coeffs: Sequence[Fraction]) -> list[int]:
    """Integer multiple of the polynomial, index = degree."""
    den = lcm(*(c.denominator for c in coeffs))
    return [int(c * den) for c in coeffs]


def sign_at(ints: Sequence[int], x: Fraction) -> int:
    """Exact sign of the polynomial at x > 0 (homogeneous Horner)."""
    deg = len(ints) - 1
    num, den = x.numerator, x.denominator
    acc = 0
    scale = 1
    for i in range(deg, -1, -1):
        acc = acc * num + ints[i] * scale
        scale *= den
    return (acc > 0) - (acc < 0)


class Reference:
    """Smallest root z0 > 0 of one survival denominator, computed in mpmath
    as ``shift = z0 - 1`` so that tiny rates keep their digits."""

    __slots__ = ("ints", "shift")

    def __init__(self, coeffs: Sequence[Fraction]):
        self.ints = scaled_ints(coeffs)
        with mpmath.workprec(PREC):
            self.shift = _smallest_root_shift(self.ints)

    def contains(self, lower: Fraction, upper: Fraction) -> bool:
        """True when the reference root lies in [lower, upper]."""
        if self.shift is None:
            return False
        with mpmath.workprec(PREC):
            slack = abs(self.shift) * _TIE
            return _mpf(lower - 1) - slack <= self.shift <= _mpf(upper - 1) + slack

    def log_z0(self) -> mpmath.mpf:
        with mpmath.workprec(PREC):
            return mpmath.log1p(self.shift)

    def same_root(self, other: "Reference") -> bool:
        if self.shift is None or other.shift is None:
            return False
        with mpmath.workprec(PREC):
            return abs(self.shift - other.shift) <= _TIE * max(abs(self.shift), abs(other.shift))


def _taylor_shift(ints: list[int]) -> list[int]:
    """Coefficients of p(1 + d) in d, exactly."""
    b = list(ints)
    n = len(b)
    for i in range(n - 1):
        for k in range(n - 2, i - 1, -1):
            b[k] += b[k + 1]
    return b


def _eval(bs: list, d) -> tuple:
    """Value and derivative of sum bs[k] d^k."""
    value = mpmath.mpf(0)
    slope = mpmath.mpf(0)
    for c in reversed(bs):
        slope = slope * d + value
        value = value * d + c
    return value, slope


def _newton(bs: list, d, lo=None, hi=None):
    """Newton's method on sum bs[k] d^k from d, kept inside (lo, hi) by
    bisection when a bracket is given (g > 0 at lo, g < 0 at hi)."""
    stop = mpmath.mpf(2) ** -(PREC - 40)
    for _ in range(400):
        value, slope = _eval(bs, d)
        if value == 0:
            return d
        if lo is not None:
            if value > 0:
                lo = d
            else:
                hi = d
        new = d - value / slope if slope != 0 else d
        if lo is not None and not lo < new < hi:
            new = (lo + hi) / 2
        if abs(new - d) <= stop * abs(new):
            return new
        d = new
    return d


def _smallest_root_shift(ints: list[int]):
    """z0 - 1 for the smallest positive root z0, or None if none is found."""
    bs_int = _taylor_shift(ints)
    bs = [mpmath.mpf(c) for c in bs_int]
    deg = len(ints) - 1
    if deg <= _NUMPY_MAX_DEGREE:
        top = max(abs(c) for c in ints)
        floats = [c / top for c in reversed(ints)]
        roots = np.roots(floats)
        real = [z.real for z in roots if z.real > 0 and abs(z.imag) <= 1e-6 * abs(z)]
        if not real:
            return None
        return _newton(bs, mpmath.mpf(float(min(real))) - 1)
    # High degree: bracket the first sign change of g(d) = p(1 + d) from d = 0,
    # where g(0) = p(1) > 0, scanning up from a fraction of the Newton step.
    if bs[0] <= 0:
        return mpmath.mpf(0) if bs[0] == 0 else None
    d = bs[0] / -bs[1] / 64 if bs[1] < 0 else mpmath.mpf(2) ** -64
    lo = mpmath.mpf(0)
    factor = mpmath.mpf(2) ** 0.25
    while _eval(bs, d)[0] > 0:
        lo = d
        d *= factor
        if d > 2**30:
            return None
    return _newton(bs, (lo + d) / 2, lo, d)


class CheckLog:
    """Failures per check kind, with one example message each."""

    def __init__(self) -> None:
        self.counts = {kind: 0 for kind in KINDS}
        self.examples: dict[str, str] = {}

    def fail(self, kind: str, message: str) -> None:
        self.counts[kind] += 1
        self.examples.setdefault(kind, message)


class Checker:
    """Caches one reference root per distinct polynomial."""

    def __init__(self) -> None:
        self._refs: dict[tuple, Reference] = {}

    def reference(self, coeffs: Iterable[Fraction]) -> Reference:
        key = tuple(coeffs)
        ref = self._refs.get(key)
        if ref is None:
            ref = self._refs[key] = Reference(key)
        return ref

    def check_enclosure(
        self, coeffs: Sequence[Fraction], lower: Fraction, upper: Fraction
    ) -> list[str]:
        """Failed kinds for the claim 'the smallest root lies in [lower, upper]'."""
        ref = self.reference(coeffs)
        failed = []
        if lower == upper:
            exact_ok = sign_at(ref.ints, lower) == 0
        else:
            exact_ok = lower < upper and sign_at(ref.ints, lower) * sign_at(ref.ints, upper) < 0
        if not exact_ok:
            failed.append("enclosure")
        if not ref.contains(lower, upper):
            failed.append("reference_root")
        return failed

    @staticmethod
    def gamma_bounds_hold(gamma_lower: float, gamma_upper: float, lower: Fraction, upper: Fraction) -> bool:
        """gamma_lower <= log(lower) and log(upper) <= gamma_upper, in mpmath."""
        with mpmath.workprec(PREC):
            return mpmath.mpf(gamma_lower) <= mpmath.log1p(_mpf(lower - 1)) and mpmath.log1p(
                _mpf(upper - 1)
            ) <= mpmath.mpf(gamma_upper)

    @staticmethod
    def gamma_bounds_contain(gamma_lower: float, gamma_upper: float, ref: Reference) -> bool:
        """gamma_lower <= log(reference z0) <= gamma_upper, in mpmath."""
        if ref.shift is None:
            return False
        with mpmath.workprec(PREC):
            log_z0 = ref.log_z0()
            return mpmath.mpf(gamma_lower) <= log_z0 <= mpmath.mpf(gamma_upper)

    def check_rate(
        self,
        coeffs: Sequence[Fraction],
        lower: Fraction,
        upper: Fraction,
        gamma_lower: float,
        gamma_upper: float,
    ) -> list[str]:
        failed = self.check_enclosure(coeffs, lower, upper)
        if not self.gamma_bounds_hold(gamma_lower, gamma_upper, lower, upper):
            failed.append("gamma_bounds")
        return failed
