"""Independent verification of escape rates.

Three ways to compute the survival probabilities p_n (the measure of the
sequences whose first n+r symbols avoid the hole word as a factor), built
so they can cross-check one another and the root-isolation layer:

* a weighted pattern-avoidance automaton (KMP prefix states), stepped
  exactly in rational arithmetic;
* brute-force enumeration of all words of a given length with an explicit
  substring test (vectorized with exact integer aggregation when the word
  count is large);
* the rational generating function sum p_n z^n, whose denominator is the
  survival denominator from the ``polynomials`` module and whose series
  expands by linear recurrence.

The classical word-counting equations (append a letter / append the whole
pattern) are also solvable symbolically over the rational-function field;
that path exists for tests and the ``oracle`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import EnumerationCapError, ForbiddenWordError
from .measures import BernoulliMeasure, MarkovChain, hole_measure, is_allowed
from .polynomials import (
    ONE,
    RationalPolynomial,
    markov_weighted_autocorrelation,
    survival_denominator,
    weighted_autocorrelation,
)
from .roots import _frac_log
from .words import Word, failure_function

_LOOP_LIMIT = 1 << 9
_ENUM_CAP = 1 << 21


@dataclass(frozen=True)
class AvoidanceAutomaton:
    """Deterministic automaton whose live states are the proper prefixes of
    the hole word; reading the word's next letter advances, anything else
    follows the failure links, and completing the word absorbs."""

    word: Word
    measure: BernoulliMeasure | MarkovChain
    transitions: tuple[tuple[int, ...], ...]
    failure: tuple[int, ...]

    @property
    def absorbing(self) -> int:
        return len(self.word)

    def survival_totals(self, max_length: int) -> list[Fraction]:
        """Total non-absorbed weight after reading 0..max_length symbols."""
        if isinstance(self.measure, BernoulliMeasure):
            return self._totals_bernoulli(max_length)
        return self._totals_markov(max_length)

    def _totals_bernoulli(self, max_length: int) -> list[Fraction]:
        measure = self.measure
        assert isinstance(measure, BernoulliMeasure)
        r = self.absorbing
        size = measure.alphabet.size
        vec = [Fraction(0)] * r
        vec[0] = Fraction(1)
        totals = [Fraction(1)]
        for _ in range(max_length):
            nxt = [Fraction(0)] * r
            for state, weight in enumerate(vec):
                if weight == 0:
                    continue
                row = self.transitions[state]
                for c in range(size):
                    target = row[c]
                    if target < r:
                        nxt[target] += weight * measure.probs[c]
            vec = nxt
            totals.append(sum(vec))
        return totals

    def _totals_markov(self, max_length: int) -> list[Fraction]:
        chain = self.measure
        assert isinstance(chain, MarkovChain)
        r = self.absorbing
        totals = [Fraction(1)]
        # state = (prefix length matched, last symbol read)
        vec: dict[tuple[int, int], Fraction] = {}
        if max_length >= 1:
            for c in (0, 1):
                target = self.transitions[0][c]
                if target < r:
                    vec[(target, c)] = vec.get((target, c), Fraction(0)) + chain.stationary[c]
            totals.append(sum(vec.values(), Fraction(0)))
        for _ in range(max_length - 1):
            nxt: dict[tuple[int, int], Fraction] = {}
            for (state, last), weight in vec.items():
                for c in (0, 1):
                    step = chain.matrix[last][c]
                    if step == 0:
                        continue
                    target = self.transitions[state][c]
                    if target < r:
                        key = (target, c)
                        nxt[key] = nxt.get(key, Fraction(0)) + weight * step
            vec = nxt
            totals.append(sum(vec.values(), Fraction(0)))
        return totals


def build_automaton(
    word: Word, measure: BernoulliMeasure | MarkovChain
) -> AvoidanceAutomaton:
    """KMP-style avoidance automaton for ``word`` weighted by ``measure``."""
    if isinstance(measure, MarkovChain) and not is_allowed(word, measure):
        raise ForbiddenWordError(f"word {word} uses a zero-probability transition")
    letters = word.letters
    r = len(letters)
    size = word.alphabet.size
    fail = failure_function(letters)
    delta: list[list[int]] = [[0] * size for _ in range(r + 1)]
    for state in range(r):
        for c in range(size):
            if c == letters[state]:
                delta[state][c] = state + 1
            elif state == 0:
                delta[state][c] = 0
            else:
                delta[state][c] = delta[fail[state]][c]
    delta[r] = [r] * size
    return AvoidanceAutomaton(
        word=word,
        measure=measure,
        transitions=tuple(tuple(row) for row in delta),
        failure=fail,
    )


@dataclass(frozen=True)
class SurvivalSeries:
    """Exact survival probabilities p_0, p_1, ..., p_N of a hole."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("empty series")
        if self.values[0] > 1:
            raise ValueError("p_0 cannot exceed 1")
        for a, b in zip(self.values, self.values[1:]):
            if b > a:
                raise ValueError("survival probabilities must be nonincreasing")
        if self.values[-1] <= 0:
            raise ValueError("survival probability hit zero: the hole covers everything")

    def __len__(self) -> int:
        return len(self.values)

    def ratio_estimates(self) -> list[float]:
        """-log(p_n / p_{n-1}) for n = 1..N."""
        return [
            _frac_log(a) - _frac_log(b)
            for a, b in zip(self.values, self.values[1:])
        ]


def survival_series(
    word: Word, measure: BernoulliMeasure | MarkovChain, n: int
) -> SurvivalSeries:
    """p_0 .. p_n computed exactly by the avoidance automaton; p_k is the
    measure of the words of length k + len(word) avoiding the hole."""
    if n < 0:
        raise ValueError("n must be >= 0")
    automaton = build_automaton(word, measure)
    totals = automaton.survival_totals(n + len(word))
    return SurvivalSeries(tuple(totals[len(word) :]))


# --------------------------------------------------------------------------
# brute-force enumeration
# --------------------------------------------------------------------------


def _contains(haystack: tuple[int, ...], needle: tuple[int, ...]) -> bool:
    n, r = len(haystack), len(needle)
    return any(haystack[i : i + r] == needle for i in range(n - r + 1))


def _enumerate_loop(
    word: Word, measure: BernoulliMeasure | MarkovChain, length: int
) -> Fraction:
    total = Fraction(0)
    bernoulli = isinstance(measure, BernoulliMeasure)
    size = word.alphabet.size
    for tup in product(range(size), repeat=length):
        if _contains(tup, word.letters):
            continue
        if bernoulli:
            m = Fraction(1)
            for c in tup:
                m *= measure.probs[c]
        else:
            m = measure.stationary[tup[0]]
            for i, j in zip(tup, tup[1:]):
                m *= measure.matrix[i][j]
        total += m
    return total


_digit_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _digit_table(size: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """All words of a length as a digit matrix, plus each word's
    symbol-count key; cached since scans reuse them across hole words."""
    cached = _digit_cache.get((size, length))
    if cached is not None:
        return cached
    n_words = size**length
    codes = np.arange(n_words, dtype=np.int64)
    digits = np.empty((n_words, length), dtype=np.int8)
    for j in range(length - 1, -1, -1):
        digits[:, j] = codes % size
        codes //= size
    base = length + 1
    keys = np.zeros(n_words, dtype=np.int64)
    for c in range(size - 1):
        keys = keys * base + (digits == c).sum(axis=1)
    _digit_cache[(size, length)] = (digits, keys)
    return digits, keys


def _enumerate_vector(word: Word, measure: BernoulliMeasure, length: int) -> Fraction:
    """Same enumeration, vectorized: a word's index is its base-A code, so
    the substring test is integer shift/mask arithmetic on the index array
    (exact), and the measure is assembled from the integer histogram of
    symbol-count vectors."""
    size = word.alphabet.size
    n_words = size**length
    _, keys = _digit_table(size, length)
    r = len(word.letters)
    needle_code = 0
    for c in word.letters:
        needle_code = needle_code * size + c
    window = size**r
    index = np.arange(n_words, dtype=np.int64)
    hit = np.zeros(n_words, dtype=bool)
    for off in range(length - r + 1):
        shift = size ** (length - off - r)
        hit |= (index // shift) % window == needle_code
    survivors = ~hit
    # histogram over symbol-count vectors (last symbol's count is implied)
    base = length + 1
    counts = np.bincount(keys[survivors], minlength=base ** (size - 1))
    total = Fraction(0)
    powers = [[measure.probs[c] ** k for k in range(length + 1)] for c in range(size)]
    for key, cnt in enumerate(counts):
        if cnt == 0:
            continue
        rest = key
        ks = []
        for _ in range(size - 1):
            ks.append(rest % base)
            rest //= base
        ks.reverse()
        ks.append(length - sum(ks))
        m = Fraction(int(cnt))
        for c in range(size):
            m *= powers[c][ks[c]]
        total += m
    return total


def direct_enumeration(
    word: Word,
    measure: BernoulliMeasure | MarkovChain,
    length: int,
    cap: int = _ENUM_CAP,
) -> Fraction:
    """Measure of the length-``length`` words avoiding ``word`` as a factor,
    summed word by word.  Deliberately simple-minded: this is the oracle the
    automaton and the generating function are checked against."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return Fraction(1)
    n_words = word.alphabet.size**length
    if n_words > cap:
        raise EnumerationCapError(f"{n_words} words exceeds the cap of {cap}")
    if isinstance(measure, BernoulliMeasure) and n_words > _LOOP_LIMIT:
        return _enumerate_vector(word, measure, length)
    return _enumerate_loop(word, measure, length)


# --------------------------------------------------------------------------
# generating function
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalGenFun:
    """P(z) = numerator / denominator with the survival probabilities as
    series coefficients."""

    numerator: RationalPolynomial
    denominator: RationalPolynomial

    def series(self, count: int) -> list[Fraction]:
        d0 = self.denominator[0]
        if d0 == 0:
            raise ValueError("denominator must not vanish at 0")
        out: list[Fraction] = []
        for n in range(count):
            acc = self.numerator[n]
            for i in range(1, self.denominator.degree + 1):
                if n - i >= 0:
                    acc -= self.denominator[i] * out[n - i]
            out.append(acc / d0)
        return out


def genfun(word: Word, measure: BernoulliMeasure | MarkovChain) -> RationalGenFun:
    """The survival generating function as an explicit rational function.

    The denominator is the survival denominator in both cases.  For a
    product measure the numerator is closed-form.  For a chain the
    numerator is recovered from the first few automaton values: multiplying
    the series by the known denominator must truncate to a polynomial of
    degree < r, which is verified, and all later coefficients are then pure
    predictions of the linear recurrence.
    """
    r = len(word)
    denominator = survival_denominator(word, measure)
    if isinstance(measure, BernoulliMeasure):
        border = weighted_autocorrelation(word, measure)
        window = RationalPolynomial([1] * r)
        shifted = border - denominator * window
        if any(shifted[k] != 0 for k in range(r)):
            raise AssertionError("closed-form numerator is not divisible by z^r")
        numerator = RationalPolynomial(shifted.coeffs[r:])
        return RationalGenFun(numerator, denominator)
    seed_len = 2 * r + 8
    # Raw automaton totals: unlike SurvivalSeries these may legitimately hit
    # zero (a hole that covers everything in a subshift).
    seeds = build_automaton(word, measure).survival_totals(seed_len + r)[r:]
    conv = [
        sum(denominator[i] * seeds[n - i] for i in range(min(n, r) + 1))
        for n in range(seed_len + 1)
    ]
    if any(c != 0 for c in conv[r:]):
        raise AssertionError("series times denominator did not truncate to degree < r")
    return RationalGenFun(RationalPolynomial(conv[:r]), denominator)


# --------------------------------------------------------------------------
# rational-function field and the word-counting equations
# --------------------------------------------------------------------------


def _poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    while not b.is_zero():
        _, rem = a.divmod(b)
        a, b = b, rem
    if a.is_zero():
        return a
    return a * (1 / a.coeffs[-1])


class RationalFunction:
    """Quotient of two RationalPolynomials, kept in lowest terms with a
    monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: RationalPolynomial, den: RationalPolynomial = ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = RationalPolynomial([]), ONE
        else:
            g = _poly_gcd(num, den)
            if g.degree >= 1:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
            lead = den.coeffs[-1]
            num = num * (1 / lead)
            den = den * (1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, poly: RationalPolynomial) -> "RationalFunction":
        return cls(poly, ONE)

    @classmethod
    def constant(cls, c: Fraction | int) -> "RationalFunction":
        return cls(RationalPolynomial([c]), ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r} / {self.den!r})"

    def series(self, count: int) -> list[Fraction]:
        return RationalGenFun(self.num, self.den).series(count)


def _solve_linear(
    matrix: list[list[RationalFunction]], rhs: list[RationalFunction]
) -> list[RationalFunction]:
    """Gaussian elimination over the rational-function field."""
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if not m[i][col].is_zero()), None)
        if pivot is None:
            raise ValueError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = RationalFunction.constant(1) / m[col][col]
        m[col] = [entry * inv for entry in m[col]]
        for i in range(n):
            if i != col and not m[i][col].is_zero():
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


@dataclass(frozen=True)
class WordEquationSolution:
    """Generating functions obtained by solving the append-a-letter /
    append-the-pattern equations symbolically in z."""

    avoiding: RationalFunction  # words with no occurrence of the pattern
    terminal: RationalFunction  # words whose single occurrence is a suffix
    avoiding_by_last: tuple[RationalFunction, ...] | None  # chains: split by last letter

    def survival_genfun(self, r: int) -> RationalFunction:
        window = RationalFunction.from_poly(RationalPolynomial([1] * r))
        z_r = RationalFunction.from_poly(RationalPolynomial([0] * r + [1]))
        return (self.avoiding - window) / z_r


def genfun_from_word_equations(
    word: Word, measure: BernoulliMeasure | MarkovChain
) -> WordEquationSolution:
    """Solve the counting identities for the avoiding and terminal
    generating functions, with probabilities substituted.

    Product measure: appending one letter to an avoiding word yields an
    avoiding or a terminal word (equation 1); appending the whole pattern
    yields a terminal word followed by one of the pattern's borders
    (equation 2).  Chains: the same two moves, with the avoiding words split
    by their last letter.
    """
    r = len(word)
    if isinstance(measure, BernoulliMeasure):
        z = RationalFunction.from_poly(RationalPolynomial([0, 1]))
        border = RationalFunction.from_poly(weighted_autocorrelation(word, measure))
        mu_zr = RationalFunction.from_poly(
            RationalPolynomial([0] * r + [hole_measure(word, measure)])
        )
        one = RationalFunction.constant(1)
        # (1 - z) * avoiding + terminal = 1 ;  mu z^r * avoiding - border * terminal = 0
        sigma, terminal = _solve_linear(
            [[one - z, one], [mu_zr, -border]],
            [one, RationalFunction.constant(0)],
        )
        return WordEquationSolution(sigma, terminal, None)

    chain = measure
    if not is_allowed(word, chain):
        raise ForbiddenWordError(f"word {word} uses a zero-probability transition")
    w = word.letters
    first, last = w[0], w[-1]
    pi = chain.matrix
    x = chain.stationary
    path = Fraction(1)
    for i, j in zip(w, w[1:]):
        path *= pi[i][j]
    border_full, _ = markov_weighted_autocorrelation(word, chain)

    def poly(coeffs) -> RationalFunction:
        return RationalFunction.from_poly(RationalPolynomial(coeffs))

    z = poly([0, 1])
    one = RationalFunction.constant(1)
    zero = RationalFunction.constant(0)
    z_r = poly([0] * r + [1])
    # unknowns: avoiding-ending-in-a, avoiding-ending-in-b, terminal
    matrix = [
        [poly([0, pi[0][0]]) - one, poly([0, pi[1][0]]), -(one if last == 0 else zero)],
        [poly([0, pi[0][1]]), poly([0, pi[1][1]]) - one, -(one if last == 1 else zero)],
        [
            z_r * RationalFunction.constant(pi[0][first] * path),
            z_r * RationalFunction.constant(pi[1][first] * path),
            -RationalFunction.from_poly(border_full),
        ],
    ]
    rhs = [
        -RationalFunction.constant(x[0]) * z,
        -RationalFunction.constant(x[1]) * z,
        -z_r * RationalFunction.constant(x[first] * path),
    ]
    sigma_a, sigma_b, terminal = _solve_linear(matrix, rhs)
    sigma = one + sigma_a + sigma_b
    return WordEquationSolution(sigma, terminal, (sigma_a, sigma_b))


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
    ratios = series.ratio_estimates()
    tail = ratios[-5:]
    n = len(series) - 1
    return EmpiricalRate(
        ratio_estimate=ratios[-1],
        cumulative_estimate=-_frac_log(series.values[-1]) / n,
        converged=max(tail) - min(tail) <= 1e-6,
    )
