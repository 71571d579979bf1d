"""Certified smallest-positive-root enclosures and escape rates.

Each root is held by one private enclosure: one integer core, which counts
its positive roots, and beside it a bracket state that is refined in place
and never restarted.  The core starts as ``poly.ints``, the primitive
integers a survival denominator is built as, so nothing is rescaled.  The
same core counts for the tie test in ``compare`` and the brute-force
pruning test in ``extremal``.  A :class:`RootResult` is only ever a frozen
snapshot of the enclosure, the one holder of the root's bounds; ``refine``,
``compare`` and ``compare_with_rational`` read and narrow the shared state
and never change a snapshot a caller already holds.

A count at x is the sign test p(x) < 0 wherever the core has at most one
root in (0, x], a simple one.  Descartes' rule certifies that at every x
when the coefficients show at most one sign variation; the shape of a
survival denominator, p(1) z^d + (1 - z) c with c > 0 on [0, 1] (the
autocorrelation form of Guibas and Odlyzko), certifies it on (0, 1] and as
far beyond as a slope bound stays negative (``_Core``).  Only a count this
certificate cannot decide builds an exact Sturm sequence over the integers,
so "smallest" is unconditional.  A rational root a/b known in advance (a
supplied candidate such as 1/p) or hit exactly by a probe is divided out by
integer synthetic division by (b z - a), and pinned as the answer when the
rest of the core has no root below it.

An enclosure first lands on the cell where bisection stops: a float
estimate of t = z0 - 1 (``_estimate``) aims at the stop level s and a cell
(n, n + 1) / 2^s, moved by one exact integer Newton step when its signs
miss, and exact signs, p > 0 at its lower end and p < 0 at its upper one,
with the core's certificate there, decide it (``_land``).
Anything less certain leaves the bracket to the probes.

Otherwise the bracket comes from the probes 2, 4, 8, ..., and bisection
narrows it.  The core is positive on (0, lo], so a negative sign at a probe
or midpoint makes it hi with no count; a positive one is counted, which
finds roots of even multiplicity too.  Once a negative point is certified,
the interval holds a single root and quadratic interval refinement takes
over: it splits the interval into 2^m cells of the finer dyadic grid, tests
the cell the secant through the endpoint values points at, and doubles m on
a hit or falls back to one bisection step on a miss.  Every cell it keeps is
a cell of the bisection tree, and no jump passes the first level at which
the stop rule could hold, so it ends on the endpoints bisection would reach,
in far fewer evaluations.  ``compare`` still bisects both enclosures in
lockstep.  Two roots are equal exactly when both enclosures isolate a single
root and the gcd of the two cores has a root in their overlap; otherwise the
enclosures are refined until they separate, which the Mahler-Mignotte root
separation bound guarantees.

Every endpoint is dyadic, so the enclosure keeps both as integers over one
power of two, 2^k: a step doubles the two numerators and takes their sum as
the midpoint, and the width and order tests are integer comparisons.  A
value at n / 2^k needs only a certified sign: a long polynomial runs Horner
at working precision under an a-priori error bound (after Sagraloff, and
Kobel, Rouillier and Sagraloff), and a short one, or a sign that bound
cannot decide, the exact integer Horner 2^(kd) p(n / 2^k) with shifts.
No point is evaluated twice: a count reuses the core's value at its point
when the caller has it, a landing the values at the ends it keeps, and a
count at 0 reads the constant terms.  ``Fraction`` endpoints are made only
for snapshots and the tie test; a comparison with a rational
cross-multiplies integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import NoPositiveRootError
from .measures import BernoulliMeasure, MarkovChain, as_fraction
from .polynomials import RationalPolynomial, _primitive
from .polynomials import survival_denominator as _survival_denominator

DEFAULT_TOL = Fraction(1, 10**14)


def _frac_log(x: Fraction) -> float:
    # math.log takes arbitrary-size ints, so this never overflows.
    return math.log(x.numerator) - math.log(x.denominator)


# --------------------------------------------------------------------------
# integer polynomial helpers (certified signs)
# --------------------------------------------------------------------------


def _dyadic_value(ints: Sequence[int], num: int, k: int) -> int:
    """An integer with the sign of p(x), x = num / 2^k >= 0, near 2^(kd) p(x).

    Horner with prec fractional bits floors each step, so 2^prec p(x) lies in
    [acc, acc + 2^bound) with 2^bound > sum_{j<d} x^j; a sign that certifies
    returns acc << (kd - prec), else prec doubles.  That runs only while prec
    is below a 16th of the kd bits of the exact Horner (so d > 16, as prec >
    k), which then gives 2^(kd) p(x) itself: a root at x reads 0."""
    d = len(ints) - 1
    if d > 16:
        bound = (d + 1).bit_length() + (num >> k).bit_length() * d
        prec = k + bound
        while prec << 4 < k * d:
            acc = 0
            for c in reversed(ints):
                acc = (acc * num >> k) + (c << prec)
            if acc > 0 or acc + (1 << bound) <= 0:
                return acc << (k * d - prec)
            prec *= 2
    acc = 0
    for i in range(d, -1, -1):
        acc = acc * num + (ints[i] << k * (d - i))
    return acc


def _sign_at(ints: Sequence[int], num: int, den: int) -> int:
    """Sign of p(num/den) for num >= 0 and den > 0, or at inf for den = 0."""
    if not den:
        acc = ints[-1]
    elif den & (den - 1) == 0:
        # den = 2^k, as at every enclosure endpoint
        acc = _dyadic_value(ints, num, den.bit_length() - 1)
    else:
        # homogeneous Horner: acc ends as den^d p(num / den)
        acc, scale = 0, 1
        for c in reversed(ints):
            acc, scale = acc * num + c * scale, scale * den
    return (acc > 0) - (acc < 0)


def _divide_out(ints: Sequence[int], root: Fraction) -> Sequence[int]:
    """Every factor (b z - a) of the root a/b divided out of ``ints``; exact
    by Gauss's lemma, which also keeps a primitive polynomial primitive."""
    a, b = root.numerator, root.denominator
    while _sign_at(ints, a, b) == 0:
        quot = [0] * (len(ints) - 1)
        acc = 0
        for i in range(len(ints) - 1, 0, -1):
            acc = (ints[i] + a * acc) // b
            quot[i - 1] = acc
        ints = quot
    return ints


def _estimate(ints: Sequence[int]) -> tuple[float, int] | None:
    """(u, e) with u 2^e a float estimate of a root t of p(1 + t), or None.

    Newton's method on p(1 + t) = p(1) (1 + t)^d - t c(1 + t), where c's
    coefficients are the partial sums of p's, from the first-order law
    t = p(1) / (c(1) - d p(1)) (Keller and Liverani).  p(1) = P 2^a and c =
    C 2^b are scaled to floats apart, and t = u 2^e with e = a - b, so no
    integer overflows a float and a t far below 2^-52 keeps its digits."""
    d, c, p1 = len(ints) - 1, list(accumulate(ints[:-1])), sum(ints)
    if not (d and p1):
        return None
    a, b = p1.bit_length() - 60, max(x.bit_length() for x in c) - 60
    try:
        P = p1 / (1 << a) if a > 0 else float(p1 << -a)
        C = [x / (1 << b) if b > 0 else float(x << -b) for x in c]
        e = a - b
        u = P / (sum(C) - d * math.ldexp(P, e))
        for _ in range(30):
            t = math.ldexp(u, e)
            z, cz, dc = 1 + t, 0.0, 0.0
            for x in reversed(C):
                cz, dc = cz * z + x, dc * z + cz
            zd = math.exp(d * math.log1p(t))
            step = (P * zd - u * cz) / (math.ldexp(P * d * zd / z - u * dc, e) - cz)
            u -= step
            if abs(step) <= abs(u) * 1e-12:
                return u, e
    except (ArithmeticError, ValueError):
        pass
    return None


def _neg_prem_primitive(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Primitive part of -(f mod g), the next Sturm chain element."""
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    rounds = 0
    while len(r) - 1 >= dg and r:
        lead = r[-1]
        if lead != 0:
            dr = len(r) - 1
            r = [lg * c for c in r]
            for i in range(dg + 1):
                r[dr - dg + i] -= lead * g[i]
            rounds += 1
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    # r == lg**rounds * (f mod g); renormalize to a positive multiple.
    if lg < 0 and rounds % 2:
        r = [-c for c in r]
    return _primitive([-c for c in r])


def _sturm_chain(ints: Sequence[int]) -> list[list[int]]:
    chain = [_primitive(list(ints))]
    deriv = _primitive([k * c for k, c in enumerate(chain[0]) if k])
    if deriv:
        chain.append(deriv)
        while len(chain[-1]) > 1:
            nxt = _neg_prem_primitive(chain[-2], chain[-1])
            if not nxt:
                break
            chain.append(nxt)
    return chain


def _variations(values: Iterable[Fraction | int]) -> int:
    """Sign changes along the values, zeros skipped."""
    seq = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


# --------------------------------------------------------------------------
# the root core and the enclosure
# --------------------------------------------------------------------------


class _Core:
    """An integer polynomial p, made positive at 0, that counts its positive
    roots.

    The count in (0, x] is the sign test p(x) < 0 wherever p has at most one
    root there, a simple one: at every x when the coefficients show at most
    one sign variation (Descartes' rule), and at x <= 1 when p has the shape
    p(1) z^d + (1 - z) c with p(1) > 0 and c > 0 on [0, 1], which Abel
    summation shows when the partial sums of c's coefficients (themselves
    the partial sums of p's) are >= 0, the last > 0.  On [1, inf) the slope
    bound q = sum_{a_i > 0} i a_i z^(i-1) + sum_{a_i < 0} i a_i is at least
    p' and nondecreasing, so q(x) < 0 makes p fall on [1, x]: x is certified
    too.  The core keeps the largest point so certified and the smallest
    refused, and evaluates q only between them.  Any other count reads the
    Sturm chain, built on the first count needing it."""

    def __init__(self, ints: Sequence[int]) -> None:
        self.ints = ints if ints[0] > 0 else [-c for c in ints]
        self._certified = self._refused = self._slope = self._chain = self._count_at_zero = None

    def _shape(self) -> None:
        # _certified and _refused are points (num, den), (1, 0) standing for inf
        ints, self._certified, self._refused = self.ints, (0, 1), (0, 1)
        if _variations(ints) <= 1:
            self._certified = (1, 0)
            return
        sums = list(accumulate(accumulate(ints[:-1])))
        if sum(ints) > 0 and all(s >= 0 for s in sums[:-1]) and sums[-1] > 0:
            self._certified, self._refused = (1, 1), (1, 0)
            slope = [i * a if a > 0 else 0 for i, a in enumerate(ints)][1:]
            slope[0] += sum(i * a for i, a in enumerate(ints) if a < 0)
            self._slope = _primitive(slope)

    def certifies(self, num: int, den: int) -> bool:
        """True when the core has at most one root in (0, num / den], a simple
        one; den = 0 stands for inf."""
        if self._certified is None:
            self._shape()
        (cert_n, cert_d), (ref_n, ref_d) = self._certified, self._refused
        if num * cert_d <= cert_n * den:
            return True
        if num * ref_d >= ref_n * den:
            return False
        if _sign_at(self._slope, num, den) < 0:
            self._certified = num, den
            return True
        self._refused = num, den
        return False

    @cached_property
    def estimate(self) -> tuple[float, int] | None:
        """``_estimate`` of the core, made once."""
        return _estimate(self.ints)

    def sign(self, x: Fraction | int) -> int:
        """Sign of the core at x."""
        return _sign_at(self.ints, x.numerator, x.denominator)

    def count_upto(self, x: Fraction | int | None, den: int = 1, value: int | None = None) -> int:
        """Distinct roots of the core in (0, x / den], or in (0, inf) for
        None; x / den must not be a root of the core.  ``value``, when the
        caller has it, has the sign of the core at x / den."""
        num, den = (1, 0) if x is None else (x.numerator, x.denominator * den)
        if value is None:
            value = _sign_at(self.ints, num, den)
        if self.certifies(num, den):
            return int(value < 0)
        if self._chain is None:
            self._chain = _sturm_chain(self.ints)
            self._count_at_zero = _variations(p[0] for p in self._chain)
        return self._count_at_zero - _variations([value, *(_sign_at(p, num, den) for p in self._chain[1:])])

    def root_below(self, x: Fraction) -> bool:
        """True when the core has a root in the open interval (0, x), x > 0.
        A root at x itself does not count: x may be a root the caller ties
        with.  A negative sign at x answers before any count is made."""
        sign = self.sign(x)
        if sign == 0:  # x is a root: divided out, the quotient decides
            return _Core(_divide_out(self.ints, x)).root_below(x)
        # positive at 0, negative at x: a root in between
        return sign < 0 or self.count_upto(x, 1, sign) > 0


class _Enclosure:
    """The smallest positive root of ``poly``, refined in place.

    The root is ``exact`` once known as a rational.  Until then it is the
    smallest positive root of the integer ``core`` and lies in the open
    interval (lo, hi) = (lo_n, hi_n) / 2^k, and the core has no root in
    (0, lo].  ``cap`` is the smallest rational root divided out of the core;
    the root lies below it.
    """

    def __init__(self, poly: RationalPolynomial, candidates: tuple = (), tol: Fraction | None = None) -> None:
        self.poly = poly
        self.exact: Fraction | None = None
        self.cap: Fraction | None = None
        self.lo_n, self.hi_n, self.k = 0, None, 0
        self._set_core(poly.ints)
        self._single = False  # (lo, hi) holds one root, a simple one
        self._m = 2  # a refinement jump splits (lo, hi) into 2^m cells
        # a root a/b of the core has a | p(0) and b | its leading term
        ints = self.core.ints
        roots = [c for c in set(candidates) if c.numerator > 0 and not ints[0] % c.numerator + ints[-1] % c.denominator]
        if roots := [c for c in roots if self.core.sign(c) == 0]:
            self._deflate(roots)
        if tol is not None and self.exact is None:
            self._land(tol)
        probe = 2
        while self.exact is None and self.hi_n is None:
            sign = self.core.sign(probe)
            if sign == 0:
                self._hit(probe)
            elif sign < 0 or self.core.count_upto(probe, 1, sign):
                self.hi_n = probe
            elif probe == 2 and self.core.count_upto(None) == 0:
                raise NoPositiveRootError(f"{poly!r} has no positive root")
            probe *= 2

    def _set_core(self, ints: Sequence[int]) -> None:
        self.core = _Core(ints)
        # (n, j, 2^(jd) p(n / 2^j)) kept for the endpoints lo and hi
        self._lo_val = self._hi_val = None

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_n, 1 << self.k)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_n, 1 << self.k)

    def _deflate(self, roots: list[Fraction]) -> None:
        """Divide the rational roots out of the core and lower the cap to
        the smallest of them; the cap is the root when the rest of the core
        has no root below it."""
        ints = self.core.ints
        for x in roots:
            ints = _divide_out(ints, x)
        self._set_core(ints)
        self.cap = min(roots if self.cap is None else [self.cap, *roots])
        if self.core.count_upto(self.cap) == 0:
            self.exact = self.cap

    def _hit(self, num: int) -> None:
        """The point num / 2^k is a root of the core: pin it, or make it hi."""
        self._deflate([Fraction(num, 1 << self.k)])
        if self.exact is None:
            self.hi_n = num

    def step(self) -> None:
        mid = self.lo_n + self.hi_n  # (lo + hi) / 2 on the scale 2^(k+1)
        self.lo_n <<= 1
        self.hi_n <<= 1
        self.k += 1
        value = _dyadic_value(self.core.ints, mid, self.k)
        if value == 0:
            self._hit(mid)
            return
        # The core is positive on [0, lo]: positive at 0 by _Core, with
        # no root in (0, lo].  So a negative sign at mid puts a root below,
        # the only one there when the core's certificate covers mid.
        if value < 0:
            self._single = self._single or self.core.certifies(mid, 1 << self.k)
        if value < 0 or not self._single and self.core.count_upto(mid, 1 << self.k, value):
            self.hi_n, self._hi_val = mid, (mid, self.k, value)
        else:
            self.lo_n, self._lo_val = mid, (mid, self.k, value)

    def _value(self, n: int, k: int, kept: tuple[int, int, int] | None) -> tuple[int, int, int]:
        """(n, k, 2^(kd) p(n / 2^k)), or ``kept`` when it holds the same point
        on its own scale."""
        if kept is not None and kept[0] << k == n << kept[1]:
            return kept
        return n, k, _dyadic_value(self.core.ints, n, k)

    def _land(self, tol: Fraction) -> bool:
        """Make (lo, hi) the cell (n, n + 1) / 2^s on which plain bisection
        stops for tol and return True, or change nothing and return False.

        Bisection stops at the least s with floor(z0 2^s) >= least.  The
        estimate aims at s and n; p(n / 2^s) > 0 > p((n + 1) / 2^s) and the
        certificate at (n + 1) / 2^s put the smallest root alone in the cell.
        A sign miss (a float Newton can stall a few cells off) takes one
        exact Newton step from n, then at most two moves to a neighbour; n
        then shows s to be the least level.  A cell above the cap is a cell
        of the same tree, which ``refine`` bisects on until it lies below."""
        estimate, least = self.core.estimate, -(-tol.denominator // tol.numerator)
        if estimate is None or not math.isfinite(estimate[0]):
            return False
        num, den = estimate[0].as_integer_ratio()
        shift = estimate[1] + 1 - den.bit_length()  # the estimate is num 2^shift

        def cell(s: int) -> int:  # floor((1 + num 2^shift) 2^s)
            return (1 << s) + (num << s + shift if s + shift >= 0 else num >> -s - shift)

        if cell(max(-shift, 0)) <= 0:  # the aim z itself, times 2^s, at that s
            return False
        s = max(least.bit_length() - cell(0).bit_length() - 1, 0)
        while cell(s) < least:
            s += 1
        n = cell(s)
        lo = self._value(n, s, self._lo_val)
        hi = self._value(n + 1, s, self._hi_val) if lo[2] > 0 else None
        if lo[2] < 0 or hi and hi[2] > 0:
            # a miss: one exact Newton step to floor(n - V / V'), V = 2^(sd) p and
            # V' = 2^(s(d-1)) p' at n / 2^s, where p falls through its smallest root
            slope = _dyadic_value([i * c for i, c in enumerate(self.core.ints)][1:], n, s)
            if slope < 0 and (step := -lo[2] // slope):
                n, lo, hi = n + step, self._value(n + step, s, None), None
        for moves in range(3):
            if lo[2] > 0:
                hi = hi or self._value(n + 1, s, self._hi_val)
                if hi[2] <= 0 or moves == 2:
                    break
                n, lo, hi = n + 1, hi, None  # positive at both ends: the root lies higher
            elif lo[2] < 0 and moves < 2:
                n, lo, hi = n - 1, self._value(n - 1, s, self._lo_val), lo  # a root below
            else:
                break
        if hi is None or not lo[2] > 0 > hi[2] or not n >= least > n >> 1 or not self.core.certifies(n + 1, 1 << s):
            return False
        self.lo_n, self.hi_n, self.k, self._lo_val, self._hi_val = n, n + 1, s, lo, hi
        self._single = True
        return True

    def _jump(self, m: int) -> None:
        """One step of quadratic interval refinement on an isolating (lo, hi):
        test the one of its 2^m cells on the scale 2^(k+m) that the secant
        through the endpoint values meets, and make it (lo, hi) when the sign
        changes across it, doubling m; otherwise halve m, down to 2, and
        bisect once.  A zero at a tested point is the root."""
        lo = self._lo_val = self._value(self.lo_n, self.k, self._lo_val)
        hi = self._hi_val = self._value(self.hi_n, self.k, self._hi_val)
        d, top = len(self.core.ints) - 1, max(lo[1], hi[1])
        f_lo, f_hi = lo[2] << d * (top - lo[1]), hi[2] << d * (top - hi[1])
        cell = min((f_lo << m) // (f_lo - f_hi), (1 << m) - 1)
        k, width = self.k + m, self.hi_n - self.lo_n
        a = (self.lo_n << m) + cell * width
        left = self._value(a, k, lo)
        right = self._value(a + width, k, hi) if left[2] > 0 else None
        if left[2] == 0 or right is not None and right[2] == 0:
            # _hit reads the point on the enclosure's own scale
            self.lo_n, self.hi_n, self.k = self.lo_n << m, self.hi_n << m, k
            self._hit(a if left[2] == 0 else a + width)
        elif right is not None and right[2] < 0:
            self.lo_n, self.hi_n, self.k = a, a + width, k
            self._lo_val, self._hi_val = left, right
            self._m *= 2
        else:
            self._m = max(2, self._m // 2)
            self.step()

    def refine(self, tol: Fraction) -> None:
        """Narrow (lo, hi) until its relative width is at most tol and it lies
        below the cap.

        An enclosure that already isolates its root first lands on the cell
        where bisection stops for tol (``_land``), as a new one does.  Where
        that is refused, bisection isolates the root; then quadratic interval
        refinement (J. Abbott, "Quadratic interval refinement for real
        roots") jumps down the same dyadic tree.  Every cell it tests is a
        cell of that tree, and no jump passes the first level whose width is
        at most tol * hi.  The stop rule needs that width and holds on no
        coarser level, so the enclosure ends on the very cell, or the very
        exact root, that plain bisection reaches.
        """
        tn, td = tol.numerator, tol.denominator
        landing = self._single
        while self.exact is None:
            cap, width = self.cap, (self.hi_n - self.lo_n) * td
            if (
                self.lo_n > 0
                and width <= tn * self.lo_n
                and (cap is None or self.hi_n * cap.denominator <= cap.numerator << self.k)
            ):
                return
            if landing:
                landing = False
                if self._land(tol):
                    continue
            # levels down to the first whose width is at most tol * hi
            levels = (-(-width // (tn * self.hi_n)) - 1).bit_length()
            if self._single and min(self._m, levels) >= 2:
                self._jump(min(self._m, levels))
            else:
                self.step()

    def isolates(self) -> bool:
        """True when (lo, hi) holds no root of the core but the smallest."""
        return self._single or self.core.count_upto(self.hi_n, 1 << self.k) == 1

    def compare_with(self, value: Fraction) -> int:
        """Certified sign of (root - value); the core is positive on (0, lo],
        so a negative sign at value puts the root below it uncounted."""
        if self.exact is None:
            num, den = value.numerator, value.denominator
            if num << self.k <= self.lo_n * den:
                return 1
            if num << self.k >= self.hi_n * den:
                return -1
            sign = self.core.sign(value)
            if sign != 0:
                return -1 if sign < 0 or self.core.count_upto(value, 1, sign) else 1
            self._deflate([value])
            if self.exact is None:
                return -1
        return (self.exact > value) - (self.exact < value)

    def snapshot(self) -> "RootResult":
        lower, upper = (self.exact, self.exact) if self.exact is not None else (self.lo, self.hi)
        return RootResult(self.poly, lower, upper, self)


def _below(a: _Enclosure, b: _Enclosure) -> bool:
    """a.hi <= b.lo, with both numerators shifted to the finer scale."""
    shift = a.k - b.k
    return a.hi_n << max(-shift, 0) <= b.lo_n << max(shift, 0)


def _common_root(a: _Enclosure, b: _Enclosure) -> bool:
    """True when the cores share a root in the overlap of the intervals,
    counted on the core of their gcd."""
    f, g = a.core.ints, b.core.ints
    while g:
        f, g = g, _neg_prem_primitive(f, g)
    if len(f) < 2:
        return False
    # Each end is an end of one enclosure, never a root of that enclosure's
    # core, so never a root of the gcd: both counts are sound.
    gcd = _Core(f)
    return gcd.count_upto(min(a.hi, b.hi)) > gcd.count_upto(max(a.lo, b.lo))


# --------------------------------------------------------------------------
# results
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RootResult:
    """A snapshot of the certified enclosure [lower, upper] of the smallest
    positive root of ``poly``, with the escape rate gamma = log(root) as a
    float interval.  ``lower == upper`` means the root is known exactly."""

    poly: RationalPolynomial
    lower: Fraction
    upper: Fraction
    _enclosure: _Enclosure = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.lower <= self.upper:
            raise ValueError("invalid enclosure")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def z0(self) -> float:
        mid = (self.lower + self.upper) / 2
        return mid.numerator / mid.denominator

    @property
    def gamma_lower(self) -> float:
        return math.nextafter(_frac_log(self.lower), -math.inf)

    @property
    def gamma_upper(self) -> float:
        return math.nextafter(_frac_log(self.upper), math.inf)

    @property
    def gamma(self) -> float:
        return _frac_log(self.lower) if self.exact else math.log(self.z0)

    def rel_width(self) -> Fraction:
        return (self.upper - self.lower) / self.lower


# --------------------------------------------------------------------------
# isolation, refinement and comparison
# --------------------------------------------------------------------------


def smallest_positive_root(
    poly: RationalPolynomial,
    tol: Fraction = DEFAULT_TOL,
    candidates: tuple[Fraction, ...] = (),
) -> RootResult:
    """Certified enclosure of the smallest root of ``poly`` in (0, inf).

    ``candidates`` are Fractions to try as exact roots first; any that
    check out are deflated away by exact synthetic division, which is what
    pins regime-boundary roots like 1/p exactly instead of enclosing them.
    Raises NoPositiveRootError when there is no positive root.
    """
    if poly.is_zero():
        raise ValueError("zero polynomial")
    if poly.ints[0] == 0:
        raise ValueError("polynomial must not vanish at 0")
    tol = as_fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    enclosure = _Enclosure(poly, candidates, tol)
    enclosure.refine(tol)
    return enclosure.snapshot()


def refine(result: RootResult, tol: Fraction) -> RootResult:
    """A (possibly) tighter enclosure of the same root, narrowed in place
    from the shared state."""
    tol = as_fraction(tol)
    if result.exact or result.rel_width() <= tol:
        return result
    enclosure = result._enclosure
    enclosure.refine(tol)
    return enclosure.snapshot()


def compare(a: RootResult, b: RootResult) -> int:
    """-1, 0, +1 ordering of two certified roots, decided exactly on the
    shared enclosures, never on the snapshots' wider ends.

    Identical polynomials compare equal immediately.  Overlapping roots are
    equal when both enclosures isolate a single root and the gcd of the two
    cores has a root in the overlap; otherwise both are bisected until they
    separate.
    """
    if a.poly == b.poly:
        return 0
    ea, eb = a._enclosure, b._enclosure
    tie_checked = False
    while True:
        if ea.exact is not None:
            return -eb.compare_with(ea.exact)
        if eb.exact is not None:
            return ea.compare_with(eb.exact)
        if _below(ea, eb):
            return -1
        if _below(eb, ea):
            return 1
        if not tie_checked and ea.isolates() and eb.isolates():
            if _common_root(ea, eb):
                return 0
            tie_checked = True
        ea.step()
        eb.step()


# --------------------------------------------------------------------------
# escape rates
# --------------------------------------------------------------------------


def rate_from_denominator(
    poly: RationalPolynomial,
    measure: BernoulliMeasure | MarkovChain,
    tol: Fraction = DEFAULT_TOL,
) -> RootResult:
    """Escape rate from a prebuilt survival denominator; the enclosure is
    refined until it certifies z0 > 1."""
    result = smallest_positive_root(poly, tol, measure.root_candidates)
    if result.lower <= 1:
        # z0 > 1, so the narrowing ends; at lower = 1 the enclosure's
        # invariant (no root of the core in (0, lo]) certifies it uncounted.
        if compare_with_rational(result, 1) <= 0:
            raise AssertionError(f"escape-rate root of {poly!r} is not above 1")
        # From a cell (1, 1 + 2^-s) each narrowing by 1/1024 lands ten levels
        # deeper.  Go at once to the first such level at which the estimate
        # z0 - 1 = u 2^e puts lower above 1, once z0 lies below the one before.
        width, enclosure, jumps = result.rel_width(), result._enclosure, 1
        u, e = enclosure.core.estimate or (math.nan, 0)
        if width.numerator == 1 and 0 < u < math.inf:
            jumps = max(1, math.ceil((-math.log2(u) - e - width.denominator.bit_length() + 1) / 10))
            if enclosure.compare_with(1 + width / (1 << 10 * jumps - 10)) >= 0:
                jumps = 1
        result = refine(result, width / (1 << 10 * jumps))
        while result.lower <= 1:
            result = refine(result, result.rel_width() / 1024)
    return result


def escape_rate(
    word,
    measure: BernoulliMeasure | MarkovChain,
    tol: Fraction = DEFAULT_TOL,
) -> RootResult:
    """Certified escape rate of the cylinder hole on ``word``: the enclosure
    of the smallest positive root z0 of the survival denominator, with
    gamma = log z0."""
    return rate_from_denominator(_survival_denominator(word, measure), measure, tol)


def compare_with_rational(result: RootResult, value: Fraction | int | str) -> int:
    """Certified sign of (enclosed root - value) for an exact rational value."""
    return result._enclosure.compare_with(as_fraction(value))
