"""Extremal holes of a fixed length: which word leaks fastest.

Two families compete for the maximal escape rate at length r: the
unbordered holes of maximal measure (canonical witness a^(r-1) b, with a
the most probable symbol and b the runner-up) and the holes of maximal
measure outright (canonical witness a^r).  ``gamma_max``, the one entry
point, compares the two certified rates and checks the verdict against the
closed forms: where p sits against 1 - 1/r and 1 - 1/(r+1) over two
symbols, q < p(1-p) over more.  Rigorous bounds, brute-force maxima,
ordering tables and Markov-chain scans complete the module.

Every scan over all words of a length (families, brute-force maxima,
ordering tables) checks the cap, then groups the words of one
``polynomials.border_walk`` into correlation classes by border data (and a
chain's end letters), all a survival denominator depends on: words with
equal keys share denominator, measure and border pattern, so each is
computed once per class, the denominator from the class's border data with
no second walk.  Under a product measure the classes are exactly the
distinct denominators.

Brute-force maxima (product measures only) walk only the holes that can
still win.  A hole of measure mu has survival denominator at most
T(z) = mu z^r - z + 1 on [1, inf), the unbordered trinomial of that
measure, so T(L) < 0 puts its root below L.  With L the certified lower end
of the heaviest hole's rate, a prefix whose heaviest completion fails
T(L) >= 0 is cut from the walk, and the classes are rated by decreasing
measure until one fails it for the leader's lower end.  Only a rated class
builds a denominator: a class pruned by a root below the leader builds no
polynomial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, cmp_to_key
from operator import attrgetter
from typing import NamedTuple

from .measures import BernoulliMeasure, MarkovChain, as_fraction
from .polynomials import _denominator_ints, border_walk, survival_denominator
from .roots import (
    DEFAULT_TOL,
    RootResult,
    _Core,
    _frac_log,
    compare,
    rate_from_denominator,
)
from .roots import escape_rate as _escape_rate
from .words import DEFAULT_ENUMERATION_CAP, Word, check_enumeration


# --------------------------------------------------------------------------
# correlation classes
# --------------------------------------------------------------------------


@dataclass
class _HoleClass:
    """Words of one length with equal border data (and chain end letters),
    hence one survival denominator, one measure (and cycle weight), one border pattern.
    ``words`` are in enumeration order; the first stands for the class.  ``data``, the walk's
    border data, builds its denominator; entry r, ``measure`` times d^r, is one weight scale."""

    words: list[Word]
    data: tuple[int, ...]
    measure: Fraction
    cycle_weight: Fraction | None  # set for Markov chains only
    unbordered: bool
    min_period: int


def _hole_classes(
    r: int, measure: BernoulliMeasure | MarkovChain, cap: int
) -> list[_HoleClass]:
    """Every word of length r (every allowed word, for a chain) in one walk,
    grouped by border data, classes in order of their first word; a chain's
    denominator also reads the first and last letters, so its key holds the
    walk's (the one grouping by end letters).  Weight: the data's entry r,
    d^r times the hole's measure; a chain's cycle weight trades the first
    letter's start weight for the wrap-around transition, and stays None
    for a product measure, whose ``mu_tilde`` column prints empty.  Period:
    least border shift j > 0."""
    alphabet = measure.alphabet
    check_enumeration(alphabet, r, cap)
    d, start, rows = measure.integer_factors
    chain = isinstance(measure, MarkovChain)
    classes: dict[tuple, _HoleClass] = {}
    for letters, data in border_walk([range(alphabet.size)] * r, measure):
        w = Word._in_range(letters, alphabet)  # the walk's letters index the alphabet
        key = (data, letters[0], letters[-1]) if chain else data
        hole_class = classes.get(key)
        if hole_class is not None:
            hole_class.words.append(w)
            continue
        cw = Fraction(data[r] // start[letters[0]] * rows[letters[-1]][letters[0]], d**r) if chain else None
        period = next(j for j in range(1, r + 1) if data[j])
        classes[key] = _HoleClass([w], data, Fraction(data[r], d**r), cw, period == r, period)
    return list(classes.values())


def _class_rates(
    classes: list[_HoleClass], measure: BernoulliMeasure | MarkovChain, tol: Fraction
) -> list[RootResult]:
    """The certified rate of each class, from its border data; classes whose
    unreduced denominator integers (constant term always d^r) agree share
    one build, one root isolation and one snapshot."""
    cache: dict[tuple, RootResult] = {}
    rates = []
    for hole_class in classes:
        word = hole_class.words[0]
        ints = _denominator_ints(hole_class.data, word.letters[0], word.letters[-1], measure)
        res = cache.get(tuple(ints))
        if res is None:
            poly = survival_denominator(word, measure, ints=ints)
            res = cache[tuple(ints)] = rate_from_denominator(poly, measure, tol)
        rates.append(res)
    return rates


def _in_order(classes: list[_HoleClass]) -> tuple[Word, ...]:
    """The words of the given classes, in enumeration order."""
    return tuple(sorted((w for c in classes for w in c.words), key=lambda w: w.letters))


class Regime(Enum):
    """Which family achieves the maximal escape rate, and in which shape."""

    PRIME_LOW = "PRIME_LOW"  # unbordered family wins, rate below log(1/p)
    PRIME_FLAT = "PRIME_FLAT"  # unbordered family wins with rate exactly log(1/p)
    MEASURE_MAX = "MEASURE_MAX"  # maximal-measure hole a^r wins
    TIE = "TIE"  # both families achieve the same rate


@dataclass(frozen=True)
class HoleFamilies:
    """Exhaustive enumeration of the two competing families at length r."""

    max_unbordered: tuple[Word, ...]
    max_measure: tuple[Word, ...]
    unbordered_measure: Fraction
    top_measure: Fraction


@dataclass(frozen=True)
class RegimeReport:
    """The maximal escape rate at length r: the winning family, the rule that
    decided it, both candidates' rates, and the winner's rate and words."""

    r: int
    regime: Regime
    reason: str
    gamma_unbordered: RootResult
    gamma_max_measure: RootResult
    gamma: RootResult
    witnesses: tuple[Word, ...]


def families(
    r: int, measure: BernoulliMeasure, cap: int = DEFAULT_ENUMERATION_CAP
) -> HoleFamilies:
    """Scan all words of length r and collect both extremal families."""
    if r < 2:
        raise ValueError("r must be >= 2")
    classes = _hole_classes(r, measure, cap)
    top_measure = max(c.measure for c in classes)
    unbordered_measure = max(c.measure for c in classes if c.unbordered)
    return HoleFamilies(
        max_unbordered=_in_order(
            [c for c in classes if c.unbordered and c.measure == unbordered_measure]
        ),
        max_measure=_in_order([c for c in classes if c.measure == top_measure]),
        unbordered_measure=unbordered_measure,
        top_measure=top_measure,
    )


def gamma_max(
    r: int, measure: BernoulliMeasure, tol: Fraction = DEFAULT_TOL
) -> RegimeReport:
    """Maximal escape rate over all holes of length r.  It is reached by
    a^(r-1) b (of maximal measure among unbordered words, as is b a^(r-1)) or
    by a^r (of maximal measure), a the most probable symbol, of probability
    p, and b the runner-up, of probability q.  Their rates are compared once
    and the closed forms checked against the verdict.  Over two symbols,
    with b1 = 1 - 1/r and b2 = 1 - 1/(r+1):
      p in [1/2, b1)  -> PRIME_LOW, rate log of the trinomial root below 1/p;
      p in [b1, b2)   -> PRIME_FLAT, rate exactly log(1/p);
      p = b2          -> TIE, both families at log(1/p);
      p in (b2, 1)    -> MEASURE_MAX, rate log of the trinomial root above 1/p.
    Over more symbols a^r wins when p >= b2, or once q < p(1-p)."""
    if r < 2:
        raise ValueError("r must be >= 2")
    a, b = measure.top_two()
    p, q = measure.probs[a], measure.probs[b]
    unbordered = Word((a,) * (r - 1) + (b,), measure.alphabet)
    reversal = Word((b,) + (a,) * (r - 1), measure.alphabet)
    top = Word((a,) * r, measure.alphabet)
    gp = _escape_rate(unbordered, measure, tol)
    gm = _escape_rate(top, measure, tol)
    order = compare(gp, gm)
    # the unbordered rate is exactly log(1/p) on the flat stretch
    flat = gp.exact and gp.lower == 1 / p
    if order > 0:
        regime = Regime.PRIME_FLAT if flat else Regime.PRIME_LOW
    else:
        regime = Regime.TIE if order == 0 else Regime.MEASURE_MAX
    b1, b2 = 1 - Fraction(1, r), 1 - Fraction(1, r + 1)
    if measure.alphabet.size == 2:
        reason = "two-symbol regime classification"
        predicted = (Regime.PRIME_LOW if p < b1 else Regime.PRIME_FLAT if p < b2
                     else Regime.TIE if p == b2 else Regime.MEASURE_MAX)
        # 1/p is a root of the unbordered trinomial, its smallest once p >= b1
        if (regime, flat) != (predicted, p >= b1):
            raise AssertionError(f"r = {r}, p = {p}: closed form {predicted.value}, "
                                 f"comparison {regime.value}, flat {flat}")
    elif p >= b2 or q < p * (1 - p):
        reason = "p >= 1 - 1/(r+1)" if p >= b2 else "q < p(1-p)"
        if order > 0:
            raise AssertionError(f"maximal-measure hole must win for {reason}")
        regime = Regime.MEASURE_MAX
    else:
        reason = "direct comparison"
    if regime is Regime.MEASURE_MAX:
        return RegimeReport(r, regime, reason, gp, gm, gm, (top,))
    witnesses = (unbordered, reversal, top) if regime is Regime.TIE else (unbordered, reversal)
    return RegimeReport(r, regime, reason, gp, gm, gp, witnesses)


def gamma_max_two_symbols(
    r: int, p: Fraction | int | str, tol: Fraction = DEFAULT_TOL
) -> RegimeReport:
    """``gamma_max`` under Bernoulli(p, 1 - p), for p in [1/2, 1)."""
    p = as_fraction(p)
    if not Fraction(1, 2) <= p < 1:
        raise ValueError("p must lie in [1/2, 1)")
    return gamma_max(r, BernoulliMeasure.from_rationals([p, 1 - p]), tol)


def brute_force_gamma_max(
    r: int,
    measure: BernoulliMeasure,
    tol: Fraction = DEFAULT_TOL,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[RootResult, tuple[Word, ...]]:
    """Certified maximum of the escape rate over every word of length r,
    with the full argmax set in enumeration order, under a product measure.

    A hole of measure mu has survival denominator mu z^r + (1 - z) C(z),
    C its correlation polynomial, with C(0) = 1 and coefficients >= 0; so on
    [1, inf) it lies below the trinomial T(z) = mu z^r - z + 1 of the
    unbordered hole of that measure.  The proof that T(L) < 0 puts the
    hole's rate strictly below log L:
      T is convex with T(1) = mu > 0, so its smallest root z_T lies in (1, L);
      the denominator is positive on [0, 1] and at most T(z_T) = 0 at z_T,
      so the hole's root z0 <= z_T < L;
      T grows with mu, so every lighter hole has z0 < L as well.
    With L = a/b the test T(L) < 0 reads d^r mu a^r < (a - b) b^(r-1) d^r
    in integers.

    The heaviest hole, the top letter repeated, is rated first, with no
    walk: every shift of it is a border.  Its lower end L sets one floor per
    depth, so ``border_walk`` drops a prefix whose heaviest completion (the
    top letter to the end) fails T(L) >= 0.  The walk's words are grouped by
    border data, one denominator per class, and the classes visited by
    decreasing measure (equal measures in class order), the seed's class
    first, reusing its rating.  The loop stops at the first class whose
    measure fails T(leader.lower) >= 0.  A class whose denominator has a
    root in the open interval (0, leader.lower) is dropped, its test read off
    ``_denominator_ints`` of its border data with no polynomial built; every
    other class is built, rated and compared with the leader.  Both tests
    are strict: a class tying the leader may share its exact root.  The
    result is the snapshot, taken when it was rated, of the first enumerated
    argmax word's class; a ``Word`` is made only for a rated class and a
    witness."""
    if not isinstance(measure, BernoulliMeasure):
        raise TypeError(f"brute_force_gamma_max takes a product measure, not {type(measure).__name__}; "
                        "rank a chain's holes with ordering_table (the markov-scan command)")
    alphabet = measure.alphabet
    check_enumeration(alphabet, r, cap)
    d, nums, _ = measure.integer_factors
    t = measure.top_two()[0]
    heavy, scale = nums[t], d**r
    seed_data = tuple(heavy**j for j in range(r + 1))
    seed_ints = _denominator_ints(seed_data, t, t, measure)
    seed_word = Word._in_range((t,) * r, alphabet)
    seed = rate_from_denominator(survival_denominator(seed_word, measure, ints=seed_ints), measure, tol)

    def need(lower: Fraction) -> tuple[int, int]:
        # a class of weight m = d^r mu can win only if m * a^r >= (a - b) b^(r-1) d^r
        a, b = lower.numerator, lower.denominator
        return a**r, (a - b) * b ** (r - 1) * scale

    ar, bar = need(seed.lower)
    # the least prefix product of i letters whose completion by the top letter clears the bar
    floor = [max(1, -(-bar // (heavy ** (r - i) * ar))) for i in range(r + 1)]
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for letters, data in border_walk([range(alphabet.size)] * r, measure, floor):
        classes.setdefault(data, []).append(letters)
    groups = list(classes.items())
    leader, top = seed, []  # (class index, snapshot) of the classes tying the leader
    for i in sorted(range(len(groups)), key=lambda i: groups[i][0][r], reverse=True):
        data, words = groups[i]
        if data == seed_data:  # the first class visited, while the seed still leads
            top.append((i, seed))
            continue
        if data[r] * ar < bar:
            break
        ints = _denominator_ints(data, words[0][0], words[0][-1], measure)
        if _Core(ints).root_below(leader.lower):
            continue
        word = Word._in_range(words[0], alphabet)
        res = rate_from_denominator(survival_denominator(word, measure, ints=ints), measure, tol)
        order = compare(res, leader)
        if order > 0:
            leader, top = res, [(i, res)]
            ar, bar = need(res.lower)
        elif order == 0:
            top.append((i, res))
    witnesses = sorted(letters for i, _ in top for letters in groups[i][1])
    return min(top)[1], tuple(Word._in_range(letters, alphabet) for letters in witnesses)


# --------------------------------------------------------------------------
# rigorous bounds
# --------------------------------------------------------------------------


def unbordered_rate_bounds(r: int, m: Fraction | int | str) -> tuple[float, float]:
    """Lower and upper bounds on the escape rate of any unbordered hole of
    length r and measure m, from the osculating parabola at z = 1 and from
    the location of the trinomial's minimum."""
    m = as_fraction(m)
    if r < 2:
        raise ValueError("r must be >= 2")
    if m <= 0:
        raise ValueError("m must be positive")
    # the largest m for which the trinomial m z^r - z + 1 has a positive root
    threshold = Fraction(1, r) * (1 - Fraction(1, r)) ** (r - 1)
    if m > threshold:
        raise ValueError(f"m = {m} exceeds the existence threshold {threshold}")
    disc = 1 - r * m * (2 + (r - 2) * m)
    if disc < 0:
        raise AssertionError("negative discriminant for m below the threshold")
    mf = m.numerator / m.denominator
    lower_arg = (1 + r * (r - 2) * mf - math.sqrt(disc.numerator / disc.denominator)) / (
        r * (r - 1) * mf
    )
    lower = math.log(lower_arg)
    upper = -_frac_log(r * m) / (r - 1)
    return lower, upper


def unbordered_lower_estimate(r: int, p: Fraction | int | str) -> float:
    """The parabola lower bound evaluated at the unbordered-family measure
    p^(r-1)(1-p).  Valid for every p in (0, 1) and every r >= 2, whichever
    family actually achieves the maximum."""
    p = as_fraction(p)
    return unbordered_rate_bounds(r, p ** (r - 1) * (1 - p))[0]


def max_rate_bounds(r: int, p: Fraction | int | str) -> tuple[float, float]:
    """Regime-wise rigorous bounds on the maximal escape rate at length r
    over a two-symbol alphabet; on the flat stretch the bounds collapse to
    the exact value log(1/p)."""
    p = as_fraction(p)
    if not Fraction(1, 2) <= p < 1:
        raise ValueError("p must lie in [1/2, 1)")
    if r < 2:
        raise ValueError("r must be >= 2")
    q = 1 - p
    if p < 1 - Fraction(1, r):
        return unbordered_rate_bounds(r, p ** (r - 1) * q)
    if p <= 1 - Fraction(1, r + 1):
        exact = -_frac_log(p)
        return exact, exact
    pf, qf = float(p), float(q)
    lower = -_frac_log(p) - math.log((r + 1) * qf) / r
    upper = math.log((-1 + pf + math.sqrt(qf * qf + 4 * pf * qf)) / (2 * pf * qf))
    return lower, upper


# --------------------------------------------------------------------------
# ordering tables
# --------------------------------------------------------------------------


class OrderingRow(NamedTuple):
    """One hole of an ordering table; the rows of a class share every field
    but ``word``, and the rows of equal rates share ``rank``."""

    word: Word
    measure: Fraction
    cycle_weight: Fraction | None  # set for Markov chains only
    gamma: RootResult
    unbordered: bool
    min_period: int
    rank: int


def _descending_groups(rates: list[RootResult]) -> list[int]:
    """For each rate, the index of its value among the distinct values,
    largest first.  The distinct roots are sorted once and adjacent ties
    grouped; ``compare`` is exact, so equal roots end up adjacent."""
    distinct = list({id(res): res for res in rates}.values())
    distinct.sort(key=cmp_to_key(lambda a, b: compare(b, a)))
    group_of: dict[int, int] = {}
    group = -1
    for i, res in enumerate(distinct):
        if i == 0 or compare(res, distinct[i - 1]) != 0:
            group += 1
        group_of[id(res)] = group
    return [group_of[id(res)] for res in rates]


def ordering_table(
    r: int,
    measure: BernoulliMeasure | MarkovChain,
    tol: Fraction = DEFAULT_TOL,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[OrderingRow]:
    """Every hole of length r (every allowed hole, for a chain), sorted by
    certified escape rate, largest first, ties by letters.  Equal rates share
    a rank: the position of the first row with that rate.

    The scan runs per correlation class: one denominator per class, one
    root per distinct denominator, one sort of the distinct roots.  The
    walk lists each class's words in letter order, so the rows need no sort
    of their own: a group of equal rates is its one class's run, or the
    merge of its classes' runs by letters."""
    classes = _hole_classes(r, measure, cap)
    rates = _class_rates(classes, measure, tol)
    groups: dict[int, list[int]] = {}
    for i, group in enumerate(_descending_groups(rates)):
        groups.setdefault(group, []).append(i)
    rows: list[OrderingRow] = []
    for group in sorted(groups):
        rank = len(rows) + 1
        runs = []
        for i in groups[group]:
            c = classes[i]
            runs.append([OrderingRow(w, c.measure, c.cycle_weight, rates[i], c.unbordered, c.min_period, rank)
                         for w in c.words])
        # sorted merges the runs it finds, and letters are distinct
        rows += runs[0] if len(runs) == 1 else sorted(itertools.chain(*runs), key=attrgetter("word.letters"))
    return rows


def rate_difference_sign(
    w1: Word, w2: Word, p: Fraction, tol: Fraction = DEFAULT_TOL
) -> int:
    """Certified sign of gamma(w1) - gamma(w2) under Bernoulli(p, 1-p)."""
    measure = BernoulliMeasure.from_rationals([p, 1 - p])
    return compare(_escape_rate(w1, measure, tol), _escape_rate(w2, measure, tol))


def find_order_switch(
    w1: Word,
    w2: Word,
    p_low: Fraction | int | str,
    p_high: Fraction | int | str,
    width: Fraction = Fraction(1, 10**6),
) -> tuple[Fraction, Fraction]:
    """Certified enclosure of a crossing point p* where the escape-rate order
    of w1 and w2 flips.  The signs at p_low and p_high must be strict and
    opposite."""
    lo, hi = as_fraction(p_low), as_fraction(p_high)
    s_lo = rate_difference_sign(w1, w2, lo)
    s_hi = rate_difference_sign(w1, w2, hi)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise ValueError(f"no certified sign change on [{lo}, {hi}] (signs {s_lo}, {s_hi})")
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = rate_difference_sign(w1, w2, mid)
        if s_mid == 0:
            # The rates agree beyond refinement depth at this grid point;
            # both sides of it then bracket the crossing.
            return mid, mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


# --------------------------------------------------------------------------
# Markov scans
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PairCheck:
    """One same-cycle-weight word pair with its predicted and certified
    escape-rate order.

    ``predicted`` is the expected sign of gamma(unbordered) - gamma(other):
    +1 when the chain's second eigenvalue is positive, or when it is
    negative and the other word has distinct endpoints; 0 when the other
    word is unbordered too; None when the theory makes no claim.
    """

    unbordered_word: Word
    other: Word
    cycle_weight: Fraction
    second_eig_sign: int
    other_unbordered: bool
    endpoints_distinct: bool
    predicted: int | None
    observed: int

    @property
    def holds(self) -> bool:
        return self.predicted is None or self.observed == self.predicted


@dataclass(frozen=True)
class MarkovScanReport:
    r: int
    second_eigenvalue: Fraction
    rows: tuple[OrderingRow, ...]
    argmax: tuple[Word, ...]
    chain: MarkovChain

    @cached_property
    def pair_checks(self) -> tuple[PairCheck, ...]:
        """Computed on first use: only the JSON output shows them."""
        return _pair_checks(self.rows, self.chain)


def _pair_checks(
    rows: tuple[OrderingRow, ...], chain: MarkovChain
) -> tuple[PairCheck, ...]:
    """Every (unbordered word, other word) pair of equal cycle weight in a
    ranked table.  A rank names the class of equal rates, so the observed
    order of a pair is read from the two ranks, with no root comparison."""
    chi = chain.second_eigenvalue
    chi_sign = (chi > 0) - (chi < 0)
    by_weight: dict[Fraction, list[OrderingRow]] = {}
    for row in rows:
        assert row.cycle_weight is not None
        by_weight.setdefault(row.cycle_weight, []).append(row)
    checks: list[PairCheck] = []
    for weight, group in sorted(by_weight.items()):
        for first in group:
            if not first.unbordered:
                continue
            for second in group:
                if second.word == first.word:
                    continue
                distinct_ends = second.word.letters[0] != second.word.letters[-1]
                if second.unbordered:
                    predicted: int | None = 0
                elif chi_sign > 0 or (chi_sign < 0 and distinct_ends):
                    predicted = 1
                else:
                    predicted = None
                checks.append(
                    PairCheck(
                        unbordered_word=first.word,
                        other=second.word,
                        cycle_weight=weight,
                        second_eig_sign=chi_sign,
                        other_unbordered=second.unbordered,
                        endpoints_distinct=distinct_ends,
                        predicted=predicted,
                        observed=(second.rank > first.rank) - (second.rank < first.rank),
                    )
                )
    return tuple(checks)


def markov_scan(
    r: int,
    chain: MarkovChain,
    tol: Fraction = DEFAULT_TOL,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> MarkovScanReport:
    """Escape rates of every allowed hole of length r under the chain, the
    certified argmax set, and the pairwise order checks for words of equal
    cycle weight."""
    rows = tuple(ordering_table(r, chain, tol, cap))
    argmax = tuple(row.word for row in rows if row.rank == 1)
    return MarkovScanReport(
        r=r,
        second_eigenvalue=chain.second_eigenvalue,
        rows=rows,
        argmax=argmax,
        chain=chain,
    )
