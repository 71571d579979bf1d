"""Independent verification of escape rates.

Three ways to compute the survival probabilities p_n (the measure of the
sequences whose first n+r symbols avoid the hole word as a factor), built
so they can cross-check one another and the root-isolation layer:

* a weighted pattern-avoidance automaton (KMP prefix states), stepped
  exactly in rational arithmetic;
* one brute-force enumerator for both measures: every word of a given
  length, built letter by letter, with an explicit test of each window and
  the survivors' weights summed exactly;
* the rational generating function sum p_n z^n, whose denominator is the
  survival denominator from the ``polynomials`` module and whose series
  expands by linear recurrence.

The classical word-counting equations (append a letter / append the whole
pattern) are also solved symbolically, by Cramer's rule on polynomial
determinants; that path exists for tests and the ``oracle`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AlphabetMismatchError, EnumerationCapError, ForbiddenWordError
from .measures import BernoulliMeasure, MarkovChain, hole_measure, is_allowed, markov_weights
from .polynomials import (
    ONE,
    RationalPolynomial,
    markov_weighted_autocorrelation,
    survival_denominator,
    weighted_autocorrelation,
)
from .roots import _frac_log
from .words import Word, failure_function

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
    if word.alphabet != measure.alphabet:
        raise AlphabetMismatchError("word and measure use different alphabets")
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


def direct_enumeration(
    word: Word,
    measure: BernoulliMeasure | MarkovChain,
    length: int,
    cap: int = _ENUM_CAP,
) -> Fraction:
    """Measure of the length-``length`` words avoiding ``word`` as a factor,
    summed word by word.  Deliberately simple-minded: this is the oracle the
    automaton and the generating function are checked against.

    Every word is built letter by letter as its base-A code; a word survives
    if its prefix survived and its last r letters are not the hole.  Each
    word's weight is a monomial in the measure's factors, whose exponents
    are packed into one int64 key; the survivors are grouped by key and
    their total is summed exactly.
    """
    if word.alphabet != measure.alphabet:
        raise AlphabetMismatchError("word and measure use different alphabets")
    if length < 0:
        raise ValueError("length must be >= 0")
    size = word.alphabet.size
    bernoulli = isinstance(measure, BernoulliMeasure)
    if bernoulli:
        factors = list(measure.probs)
    else:  # the four transitions, row-major, then the two stationary weights
        factors = [entry for row in measure.matrix for entry in row] + list(measure.stationary)
    base = length + 1  # no exponent exceeds the length
    if size**length > cap:
        raise EnumerationCapError(f"{size**length} words exceeds the cap of {cap}")
    if max(size**length, base ** len(factors)) > np.iinfo(np.int64).max:
        raise EnumerationCapError(f"word codes or weight keys of length {length} overflow int64")
    if length == 0:
        return Fraction(1)
    place = np.array([base**i for i in range(len(factors))], dtype=np.int64)
    r = len(word)
    needle = 0
    for c in word.letters:
        needle = needle * size + c
    letters = np.arange(size, dtype=np.int64)
    codes = letters
    keys = place[letters] if bernoulli else place[4 + letters]
    for n in range(1, length + 1):
        if n > 1:  # append every letter to every surviving word
            prefix = np.repeat(codes, size)
            new = np.tile(letters, codes.size)
            step = new if bernoulli else 2 * (prefix % size) + new
            codes = prefix * size + new
            keys = np.repeat(keys, size) + place[step]
        if n >= r:
            alive = codes % size**r != needle
            codes, keys = codes[alive], keys[alive]
    unique, counts = np.unique(keys, return_counts=True)
    powers = [[f**e for e in range(base)] for f in factors]
    total = Fraction(0)
    for key, count in zip(unique.tolist(), counts.tolist()):
        weight = Fraction(count)
        for factor_powers in powers:
            key, exponent = divmod(key, base)
            weight *= factor_powers[exponent]
        total += weight
    return total


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


def _survival_part(
    avoiding: RationalPolynomial, denominator: RationalPolynomial, r: int
) -> RationalGenFun:
    """sum p_n z^n from the avoiding-words generating function
    avoiding / denominator: every word shorter than r avoids the hole, so
    subtracting that window leaves a multiple of z^r, which is verified."""
    shifted = avoiding - denominator * RationalPolynomial([1] * r)
    if any(shifted[k] != 0 for k in range(r)):
        raise AssertionError("avoiding numerator minus the window is not divisible by z^r")
    return RationalGenFun(RationalPolynomial(shifted.coeffs[r:]), denominator)


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
        return _survival_part(weighted_autocorrelation(word, measure), denominator, r)
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
# the word-counting equations, solved by Cramer's rule
# --------------------------------------------------------------------------


def _det(matrix: list[list[RationalPolynomial]]) -> RationalPolynomial:
    """Determinant by cofactor expansion along the first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = RationalPolynomial([])
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        term = entry * _det([row[:j] + row[j + 1 :] for row in matrix[1:]])
        total = total - term if j % 2 else total + term
    return total


def _cramer(
    matrix: list[list[RationalPolynomial]], rhs: list[RationalPolynomial]
) -> tuple[list[RationalPolynomial], RationalPolynomial]:
    """Numerators of the unknowns over the common denominator det(matrix)."""
    det = _det(matrix)
    if det.is_zero():
        raise ValueError("singular system")
    numerators = [
        _det([row[:j] + [b] + row[j + 1 :] for row, b in zip(matrix, rhs)])
        for j in range(len(matrix))
    ]
    return numerators, det


def _monomial(k: int, c: Fraction | int) -> RationalPolynomial:
    """c * z**k."""
    return RationalPolynomial([0] * k + [c])


@dataclass(frozen=True)
class WordEquationSolution:
    """Generating functions obtained by solving the append-a-letter /
    append-the-pattern equations symbolically in z; each is a numerator over
    the one ``denominator``, the determinant of the system."""

    avoiding: RationalPolynomial  # words with no occurrence of the pattern
    terminal: RationalPolynomial  # words whose single occurrence is a suffix
    avoiding_by_last: tuple[RationalPolynomial, ...] | None  # chains: split by last letter
    denominator: RationalPolynomial

    def survival_genfun(self, r: int) -> RationalGenFun:
        return _survival_part(self.avoiding, self.denominator, r)


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
    zero = RationalPolynomial([])
    if isinstance(measure, BernoulliMeasure):
        border = weighted_autocorrelation(word, measure)
        # (1 - z) * avoiding + terminal = 1 ;  mu z^r * avoiding - border * terminal = 0
        (sigma, terminal), det = _cramer(
            [[ONE - _monomial(1, 1), ONE], [_monomial(r, hole_measure(word, measure)), -border]],
            [ONE, zero],
        )
        return WordEquationSolution(sigma, terminal, None, det)

    first, last = word.letters[0], word.letters[-1]
    pi = measure.matrix
    x = measure.stationary
    path = markov_weights(word, measure).path_weight  # raises on a forbidden word
    border_full, _ = markov_weighted_autocorrelation(word, measure)
    # unknowns: avoiding-ending-in-a, avoiding-ending-in-b, terminal
    matrix = [
        [_monomial(1, pi[0][0]) - ONE, _monomial(1, pi[1][0]), -ONE if last == 0 else zero],
        [_monomial(1, pi[0][1]), _monomial(1, pi[1][1]) - ONE, -ONE if last == 1 else zero],
        [_monomial(r, pi[0][first] * path), _monomial(r, pi[1][first] * path), -border_full],
    ]
    rhs = [_monomial(1, -x[0]), _monomial(1, -x[1]), _monomial(r, -x[first] * path)]
    (sigma_a, sigma_b, terminal), det = _cramer(matrix, rhs)
    return WordEquationSolution(det + sigma_a + sigma_b, terminal, (sigma_a, sigma_b), det)


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
