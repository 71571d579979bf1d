"""Independent verification of escape rates.

Three ways to compute the survival probabilities p_n (the measure of the
sequences whose first n+r symbols avoid the hole word as a factor), built
so they can cross-check one another and the root-isolation layer:

* a weighted pattern-avoidance automaton (KMP prefix states), its table
  built in one pass over the word that reads each restart state off a row
  already built, stepped exactly on integer weights held in a flat list
  indexed by state;
* one brute-force enumerator for both measures: one walk over the window
  states (the last r - 1 letters) of every length up to a given one, held
  as a flat list of exact weights indexed by the states' codes; each length
  extends every state by every letter, zeroes the pairs whose last r
  letters are the hole, and folds away the letter that leaves the window;
* the rational generating function sum p_n z^n, the one solution of the
  classical word-counting equations (append a letter / append the whole
  pattern), one system for every measure with one unknown per distinct
  row of the factor table, expanded by linear recurrence.

Every series is integers over a known power: b^n times the weight at length
n from the automaton and the enumerator (b the common denominator of the
measure's ``integer_factors``), q_n over d_0^(n+1) from a generating
function.  ``Fraction``s are made only in the view of a ``SurvivalSeries``
that printing and the float estimates read.

The word equations are solved symbolically, by Cramer's rule on
determinants of integer polynomials, each equation scaled to integers
once: 2 x 2 for one distinct row (a product measure), 3 x 3 for a chain
whose rows differ.  Like every oracle here they read the measure only
through ``integer_factors``, never its type, and the word's border
polynomial and weight from ``polynomials.border_data``, but never the
closed-form survival denominator: the generating function's denominator
is the system's determinant, which the ``oracle`` CLI command checks
against that closed form.  Every polynomial here is built as integer
numerators over one integer, and a series is read off the ``ints`` and
``scale`` of its two polynomials, so no polynomial here has ``Fraction``
coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul

from .errors import AlphabetMismatchError, ForbiddenWordError
from .measures import BernoulliMeasure, MarkovChain, is_allowed
from .polynomials import RationalPolynomial, border_data
from .roots import _frac_log
from .words import Word

#: Default cap on the window states of the brute-force enumerator.
DEFAULT_STATE_CAP = 1 << 16


@dataclass(frozen=True)
class AvoidanceAutomaton:
    """Deterministic automaton whose live states are the proper prefixes of
    the hole word; reading the word's next letter advances, anything else
    moves as the prefix's restart state (its longest proper border) would,
    and completing the word absorbs."""

    word: Word
    measure: BernoulliMeasure | MarkovChain
    transitions: tuple[tuple[int, ...], ...]

    def integer_totals(self, max_length: int) -> list[int]:
        """b^n times the total non-absorbed weight after reading n symbols,
        n = 0..max_length: after n symbols every weight is an integer over
        b^n (see the measure's ``integer_factors``), so the live states
        carry integers, held in a flat list indexed by state."""
        _, start, rows = self.measure.integer_factors
        letters, r = self.word.letters, len(self.word)
        # a live state reads the row of the last letter read: the word's
        # letter before the state, at state 0 a letter the word does not
        # start with (over two letters, the other one); before the first
        # letter only state 0 is live, and it reads the start weights
        live = [rows[c] for c in (int(letters[0] == 0), *letters[:-1])]
        weights, totals = [1] + [0] * (r - 1), [1]
        for n in range(max_length):
            nxt = [0] * (r + 1)
            for state, (weight, row) in enumerate(zip(weights, live if n else [start])):
                for target, num in zip(self.transitions[state], row):
                    nxt[target] += weight * num
            weights = nxt[:r]
            totals.append(sum(weights))
        return totals


def build_automaton(
    word: Word, measure: BernoulliMeasure | MarkovChain
) -> AvoidanceAutomaton:
    """KMP-style avoidance automaton for ``word`` weighted by ``measure``."""
    if word.alphabet != measure.alphabet:
        raise AlphabetMismatchError("word and measure use different alphabets")
    if not is_allowed(word, measure):
        raise ForbiddenWordError(f"word {word} uses a zero-probability transition")
    r, size = len(word), word.alphabet.size
    # row s >= 1 copies the row of its restart state x, the longest proper
    # border of the length-s prefix, and x moves on along that row
    delta, x = [[0] * size], 0
    for s, c in enumerate(word.letters):
        if s:
            delta.append(list(delta[x]))
            x = delta[x][c]
        delta[s][c] = s + 1
    delta.append([r] * size)
    return AvoidanceAutomaton(
        word=word,
        measure=measure,
        transitions=tuple(tuple(row) for row in delta),
    )


@dataclass(frozen=True)
class SurvivalSeries:
    """Exact survival probabilities p_0, p_1, ..., p_N of a hole of length
    r, held as the integers b^(n+r) p_n with b the common denominator of
    the measure's ``integer_factors``."""

    totals: tuple[int, ...]
    base: int  # b
    offset: int  # r

    def __post_init__(self) -> None:
        totals, b = self.totals, self.base
        if not totals:
            raise ValueError("empty series")
        if totals[0] > b**self.offset:
            raise ValueError("p_0 cannot exceed 1")
        if any(later > b * t for t, later in zip(totals, totals[1:])):
            raise ValueError("survival probabilities must be nonincreasing")
        if totals[-1] <= 0:
            raise ValueError("survival probability hit zero: the hole covers everything")

    def __len__(self) -> int:
        return len(self.totals)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The p_n as ``Fraction``s: the view printing and the float
        estimates read."""
        b, r = self.base, self.offset
        return tuple(Fraction(t, b ** (n + r)) for n, t in enumerate(self.totals))

    def matches(self, q: list[int], d0: int) -> bool:
        """Whether a series with term n q_n / d0^(n+1), as from
        ``RationalGenFun.series``, has this length and these terms:
        q_n b^(n+r) = d0^(n+1) b^(n+r) p_n for every n."""
        b, r = self.base, self.offset
        return len(q) == len(self) and all(
            q_n * b ** (n + r) == t * d0 ** (n + 1) for n, (q_n, t) in enumerate(zip(q, self.totals))
        )

    @cached_property
    def ratio_estimates(self) -> tuple[float, ...]:
        """-log(p_n / p_{n-1}) for n = 1..N, computed once for the printed
        column and ``empirical_rate``, from one log of each p_n."""
        logs = [_frac_log(v) for v in self.values]
        return tuple(a - b for a, b in zip(logs, logs[1:]))


def survival_series(
    word: Word, measure: BernoulliMeasure | MarkovChain, n: int
) -> SurvivalSeries:
    """p_0 .. p_n computed exactly by the avoidance automaton; p_k is the
    measure of the words of length k + len(word) avoiding the hole."""
    if n < 0:
        raise ValueError("n must be >= 0")
    r = len(word)
    totals = build_automaton(word, measure).integer_totals(n + r)
    return SurvivalSeries(tuple(totals[r:]), measure.integer_factors[0], r)


# --------------------------------------------------------------------------
# brute-force enumeration
# --------------------------------------------------------------------------


def direct_enumeration(
    word: Word,
    measure: BernoulliMeasure | MarkovChain,
    length: int,
    cap: int = DEFAULT_STATE_CAP,
) -> list[int]:
    """b^n times the measure of the words of length n avoiding ``word`` as a
    factor, for n = 0, 1, ..., L, summed in one walk over window states
    (the form of ``AvoidanceAutomaton.integer_totals``).  Deliberately
    simple-minded: this is the oracle the automaton and the generating
    function are checked against.

    A state is the base-A code of the last k letters of a surviving word,
    k = r - 1, or 1 for a one-letter hole when the factor table's rows
    differ (the next factor then depends on the last letter; ``cap``
    counts states, so one row keeps k = 0), and entry ``state`` of a flat
    list holds the exact integer sum of the weights of the survivors that
    end in it.  Each length is three list operations:

    * extend: entry state * A + c of a list A times as long is the weight
      times the factor of c from the measure's ``integer_factors``: its
      start weight for the first letter, then its entry in the row of the
      state's last letter;
    * zero: from length r on, every entry whose last r letters, its index
      mod A^r, are the hole is set to 0;
    * fold: once the list outgrows A^k entries, its chunks of A^k entries,
      one per letter leaving the window, are added entry by entry, so each
      pair moves to state (state * A + c) mod A^k.

    Survival thus depends on the windows alone, with no prefix states.  The
    total at length n is the sum of the list.

    At length n the walk holds A^min(n, k) states.  L is ``length``, or the
    length before the first one whose state count exceeds ``cap``; the
    list may be shorter than ``length + 1`` (empty when ``cap < 1``).
    """
    if word.alphabet != measure.alphabet:
        raise AlphabetMismatchError("word and measure use different alphabets")
    if length < 0:
        raise ValueError("length must be >= 0")
    if cap < 1:
        return []
    size = word.alphabet.size
    _, start, rows = measure.integer_factors
    r = len(word)
    k = max(r - 1, int(len(set(rows)) > 1))
    window, states = size**r, size**k
    needle = 0
    for c in word.letters:
        needle = needle * size + c
    weights = [1]
    totals = [1]
    # the factor rows the states read in turn: the start weights for the
    # first letter, then the row of each state's last letter, its code mod A
    read = [start]
    for n in range(1, length + 1):
        if size ** min(n, k) > cap:
            break
        ext = [w * f for w, row in zip(weights, itertools.cycle(read)) for f in row]
        read = rows
        if n >= r:
            ext[needle::window] = [0] * (len(ext) // window)
        weights = ext[:states]
        for i in range(states, len(ext), states):
            weights = list(map(add, weights, ext[i : i + states]))
        totals.append(sum(weights))
    return totals


# --------------------------------------------------------------------------
# generating function
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalGenFun:
    """P(z) = numerator / denominator with the survival probabilities as
    series coefficients."""

    numerator: RationalPolynomial
    denominator: RationalPolynomial

    def series(self, count: int) -> tuple[list[int], int]:
        """The first ``count`` coefficients as (q, d_0), coefficient n being
        q_n / d_0^(n+1).  With both polynomials as integers N and d times
        one factor (``_over_one``), the q_n follow the integer recurrence
        q_n = N_n d_0^n - sum_{i>=1} d_i d_0^(i-1) q_(n-i)."""
        nums, dens = _over_one(self.numerator, self.denominator)
        if not dens or dens[0] == 0:
            raise ValueError("denominator must not vanish at 0")
        d0 = dens[0]
        weights = [d * d0**j for j, d in enumerate(dens[1:])]  # d_(j+1) d_0^j
        q: list[int] = []
        for n in range(count):
            acc = nums[n] * d0**n if n < len(nums) else 0
            q.append(acc - sum(map(mul, weights, reversed(q))))
        return q, d0


def _over_one(num: RationalPolynomial, den: RationalPolynomial) -> tuple[list[int], list[int]]:
    """The coefficients of the two polynomials as integers times one factor."""
    ratio = num.scale / den.scale
    return [ratio.numerator * c for c in num.ints], [ratio.denominator * c for c in den.ints]


def genfun(word: Word, measure: BernoulliMeasure | MarkovChain) -> RationalGenFun:
    """The survival generating function as an explicit rational function,
    for both measures the survival part of the word equations' solution:
    its denominator is their determinant over its constant term, and no
    automaton and no closed-form denominator are built."""
    return genfun_from_word_equations(word, measure).survival_genfun(len(word))


# --------------------------------------------------------------------------
# the word-counting equations, solved by Cramer's rule
# --------------------------------------------------------------------------


def _det(matrix: list[list[list[int]]]) -> list[int]:
    """Determinant of a matrix of integer coefficient lists, by cofactor
    expansion along the first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = [0] * sum(max(map(len, row)) for row in matrix)
    for j, entry in enumerate(matrix[0]):
        minor = _det([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for a, x in enumerate(entry):
            for b, y in enumerate(minor):
                total[a + b] += (-1) ** j * x * y
    return total


def _cramer(system: list[list[list[int]]]) -> tuple[list[list[int]], list[int]]:
    """Numerators of the unknowns over the common denominator, the
    determinant of the coefficients, whose constant term must not vanish;
    each equation lists its coefficients, then its right-hand side."""
    det = _det([row[:-1] for row in system])
    if not det[0]:
        raise ValueError("the determinant vanishes at z = 0")
    numerators = [
        _det([row[:j] + row[-1:] + row[j + 1 : -1] for row in system]) for j in range(len(system))
    ]
    return numerators, det


@dataclass(frozen=True)
class WordEquationSolution:
    """Generating functions obtained by solving the append-a-letter /
    append-the-pattern equations symbolically in z.  Cramer's rule leaves
    each an integer numerator over the system's integer determinant; every
    field divides them by the determinant's constant term, so
    ``denominator`` has constant term 1."""

    avoiding: RationalPolynomial  # words with no occurrence of the pattern
    terminal: RationalPolynomial  # words whose single occurrence is a suffix
    avoiding_by_last: tuple[RationalPolynomial, ...] | None  # one per distinct row, None for one
    denominator: RationalPolynomial

    def survival_genfun(self, r: int) -> RationalGenFun:
        """sum p_n z^n over ``denominator``, from the avoiding words' integer
        numerator over the determinant: every word shorter than r avoids
        the hole, so subtracting that window, det * (1 + z + ... +
        z^(r-1)), leaves a multiple of z^r, which is verified."""
        avoiding, det = _over_one(self.avoiding, self.denominator)
        padded = avoiding + [0] * (len(det) + r - 1 - len(avoiding))
        shifted = [a - sum(det[max(k - r + 1, 0) : k + 1]) for k, a in enumerate(padded)]
        if any(shifted[:r]):
            raise AssertionError("avoiding numerator minus the window is not divisible by z^r")
        return RationalGenFun(RationalPolynomial._over(shifted[r:], det[0]), self.denominator)


def genfun_from_word_equations(
    word: Word, measure: BernoulliMeasure | MarkovChain
) -> WordEquationSolution:
    """Solve the counting identities for the avoiding and terminal
    generating functions, with probabilities substituted, from the factor
    table (d, start, rows) alone, in one system sized by its distinct rows.
    The unknowns are S_h, the avoiding words whose last letter reads h, one
    per distinct row h in order of the row's first letter, then T, the
    terminal words.  Appending a letter to an avoiding or the empty word
    yields an avoiding or a terminal word: d S_h - z sum_g S_g g(h) +
    d T [last reads h] = z start(h), g(h) and start(h) summed over the
    letters that read h, each equation over its content.  Appending the
    whole pattern yields a terminal word followed by one of its borders:
    z^r path sum_g S_g g[first] - border T = -mu z^r, scaled by d^r."""
    if word.alphabet != measure.alphabet:
        raise AlphabetMismatchError("word and measure use different alphabets")
    r = len(word)
    d, start, rows = measure.integer_factors
    data = border_data(word, measure)
    if data is None:
        raise ForbiddenWordError(f"word {word} uses a zero-probability transition")
    # d^r times the border polynomial (entry j is the z^j term times d^j)
    # and the hole's measure
    border, mu = [d ** (r - j) * v for j, v in enumerate(data[:r])], data[r]
    first, last = word.letters[0], word.letters[-1]
    path = mu // start[first]  # d^(r-1) times the factors after the first letter
    distinct = list(dict.fromkeys(rows))
    system = []
    for h, own in enumerate(distinct):
        letters = [c for c, row in enumerate(rows) if row == own]  # the letters that read h
        # g(h) and start(h) sum the factors over them
        equation = [[d if g == h else 0, -sum(row[c] for c in letters)] for g, row in enumerate(distinct)]
        equation += [[d] if last in letters else [], [0, sum(start[c] for c in letters)]]
        content = math.gcd(*itertools.chain(*equation))
        system.append([[c // content for c in entry] for entry in equation])
    pattern = [[0] * r + [row[first] * path] for row in distinct]
    system.append([*pattern, [-c for c in border], [0] * r + [-mu]])
    (*by_last, terminal), det = _cramer(system)
    avoiding = [sum(c) for c in itertools.zip_longest(det, *by_last, fillvalue=0)]

    def over(ints: list[int]) -> RationalPolynomial:
        return RationalPolynomial._over(ints, det[0])

    split = tuple(map(over, by_last)) if len(by_last) > 1 else None
    return WordEquationSolution(over(avoiding), over(terminal), split, over(det))


# --------------------------------------------------------------------------
# empirical estimation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalRate:
    """Escape-rate estimates read off a finite survival series."""

    ratio_estimate: float  # -log(p_N / p_{N-1})
    cumulative_estimate: float  # -log(p_N) / N
    converged: bool  # last five ratio estimates agree within 1e-6


def empirical_rate(series: SurvivalSeries) -> EmpiricalRate:
    """Ratio and cumulative estimators; float arithmetic in the log domain,
    so arbitrarily long exact series are fine."""
    if len(series) < 10:
        raise ValueError("need at least 10 survival values")
    ratios = series.ratio_estimates
    tail = ratios[-5:]
    n = len(series) - 1
    return EmpiricalRate(
        ratio_estimate=ratios[-1],
        cumulative_estimate=-_frac_log(series.values[-1]) / n,
        converged=max(tail) - min(tail) <= 1e-6,
    )
