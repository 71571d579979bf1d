"""Dense exact-rational polynomials in one variable z, and the constructors
for every survival-denominator polynomial used by the escape-rate theory.

The key objects:

* ``weighted_autocorrelation(word, measure)``: the border polynomial of a
  word with each border term weighted by the product measure of the
  overhanging suffix.
* ``survival_denominator(word, measure_or_chain)``: the polynomial whose
  smallest positive root z0 gives the escape rate log(z0) of the cylinder
  hole on ``word``.  It is the denominator of the generating function of
  the survival probabilities (see the ``survival`` module).
* ``unbordered_denominator(r, m)``: the trinomial m z^r - z + 1 shared by
  every unbordered hole of length r and measure m.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import AlphabetMismatchError, ForbiddenWordError
from .measures import BernoulliMeasure, MarkovChain, as_fraction, hole_measure, markov_weights
from .words import Word, autocorrelation, occurrence_count


class RationalPolynomial:
    """Immutable dense polynomial with Fraction coefficients, index = degree.

    The zero polynomial has an empty coefficient tuple; trailing zero
    coefficients are trimmed on construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "RationalPolynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{k}")
        return "RationalPolynomial(" + " + ".join(terms) + ")"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial(self[k] + other[k] for k in range(n))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial(self[k] - other[k] for k in range(n))

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(-c for c in self.coeffs)

    def __mul__(self, other: Union["RationalPolynomial", Fraction, int]) -> "RationalPolynomial":
        if isinstance(other, (Fraction, int)):
            return RationalPolynomial(c * other for c in self.coeffs)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "RationalPolynomial":
        """Multiply by z**k."""
        return RationalPolynomial([Fraction(0)] * k + list(self.coeffs))

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def divmod(self, other: "RationalPolynomial") -> tuple["RationalPolynomial", "RationalPolynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.coeffs[-1]
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            factor = rem[-1] / lead
            pos = len(rem) - 1 - d
            quot[pos] = factor
            for i in range(d + 1):
                rem[pos + i] -= factor * other.coeffs[i]
            rem.pop()
        return RationalPolynomial(quot), RationalPolynomial(rem)

    def deflate_root(self, root: Fraction) -> "RationalPolynomial":
        """Exact synthetic division by (z - root); raises if root is not a root."""
        if self.eval(root) != 0:
            raise ValueError(f"{root} is not a root")
        q: list[Fraction] = [Fraction(0)] * self.degree
        acc = Fraction(0)
        for k in range(self.degree, 0, -1):
            acc = self.coeffs[k] + root * acc
            q[k - 1] = acc
        return RationalPolynomial(q)

    # -- evaluation and output --------------------------------------------

    def eval(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coeff_strings(self) -> list[str]:
        """Coefficients as 'num/den' strings, index = degree."""
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "RationalPolynomial":
        return cls(Fraction(s) for s in strings)


ONE = RationalPolynomial([1])
ONE_MINUS_Z = RationalPolynomial([1, -1])


def weighted_autocorrelation(word: Word, measure: BernoulliMeasure) -> RationalPolynomial:
    """Border polynomial of ``word`` with the z^j term weighted by the
    measure of the last j letters.  Constant term is always 1."""
    if word.alphabet != measure.alphabet:
        raise AlphabetMismatchError("word and measure use different alphabets")
    bits = autocorrelation(word)
    n = len(word)
    coeffs = []
    for j in range(n):
        if not bits[j]:
            coeffs.append(Fraction(0))
            continue
        weight = Fraction(1)
        for a in range(measure.alphabet.size):
            k = occurrence_count(word, a, n - j, n)
            if k:
                weight *= measure.probs[a] ** k
        coeffs.append(weight)
    return RationalPolynomial(coeffs)


def unbordered_denominator(r: int, m: Fraction | int | str) -> RationalPolynomial:
    """The trinomial m z^r - z + 1: survival denominator of any unbordered
    hole of length r and measure m."""
    m = as_fraction(m)
    if r < 2:
        raise ValueError("r must be >= 2")
    if m <= 0:
        raise ValueError("m must be positive")
    coeffs = [Fraction(0)] * (r + 1)
    coeffs[0] = Fraction(1)
    coeffs[1] = Fraction(-1)
    coeffs[r] = m
    return RationalPolynomial(coeffs)


def max_unbordered_denominator(r: int, p: Fraction | int | str) -> RationalPolynomial:
    """unbordered_denominator(r, p^(r-1) (1-p)): the trinomial for the
    maximal-measure unbordered hole over a two-symbol alphabet with top
    probability p.  It vanishes at z = 1/p for every p."""
    p = as_fraction(p)
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    return unbordered_denominator(r, p ** (r - 1) * (1 - p))


def _bernoulli_denominator(word: Word, measure: BernoulliMeasure) -> RationalPolynomial:
    mu = hole_measure(word, measure)
    r = len(word)
    poly = RationalPolynomial([Fraction(0)] * r + [mu]) + ONE_MINUS_Z * weighted_autocorrelation(
        word, measure
    )
    if poly.degree != r:
        raise AssertionError(f"survival denominator of {word} has degree {poly.degree}, expected {r}")
    return poly


def markov_weighted_autocorrelation(
    word: Word, chain: MarkovChain
) -> tuple[RationalPolynomial, RationalPolynomial]:
    """Border polynomial of ``word`` weighted by transition probabilities.

    Returns (full, reduced): the z^j term of ``full`` carries the product of
    the last j transition probabilities of the word; ``reduced`` drops the
    j = r-1 term (present exactly when the word starts and ends with the
    same letter).
    """
    if word.alphabet != chain.alphabet:
        raise AlphabetMismatchError("word and chain use different alphabets")
    bits = autocorrelation(word)
    w = word.letters
    n = len(w)
    coeffs = [Fraction(0)] * n
    weight = Fraction(1)
    for j in range(n):
        if bits[j]:
            coeffs[j] = weight
        if j + 1 < n:
            weight *= chain.matrix[w[n - j - 2]][w[n - j - 1]]
    full = RationalPolynomial(coeffs)
    reduced = RationalPolynomial(coeffs[: n - 1])
    return full, reduced


def _markov_denominator(word: Word, chain: MarkovChain) -> RationalPolynomial:
    weights = markov_weights(word, chain)  # raises ForbiddenWordError if not allowed
    w = word.letters
    r = len(w)
    chi = chain.second_eigenvalue
    full, reduced = markov_weighted_autocorrelation(word, chain)
    wrap = chain.matrix[w[-1]][w[0]]
    endpoints_equal = w[0] == w[-1]

    head = RationalPolynomial([wrap] + ([-chi] if endpoints_equal else []))
    one_minus_chi_z = RationalPolynomial([1, -chi])
    poly = (head * weights.path_weight).shift(r) + ONE_MINUS_Z * one_minus_chi_z * full

    # Second construction: cycle-weight form.  The degree-(r+1) terms of the
    # first form cancel; building the polynomial both ways guards against
    # transcription slips.
    alt = RationalPolynomial([Fraction(0)] * r + [weights.cycle_weight])
    alt = alt + ONE_MINUS_Z * one_minus_chi_z * reduced
    if endpoints_equal:
        tail = RationalPolynomial([1, -(1 + chi)]) * weights.path_weight
        alt = alt + tail.shift(r - 1)
    if poly != alt:
        raise AssertionError(f"the two survival-denominator constructions disagree for {word}")
    # The degree-(r+1) terms always cancel.  For a strictly positive matrix
    # the degree is exactly r; a vanishing diagonal entry can cancel further
    # (e.g. the word bab when the aa-transition is forbidden).
    if poly.degree > r:
        raise AssertionError(f"survival denominator of {word} has degree {poly.degree} > {r}")
    if poly.degree != r and all(e > 0 for row in chain.matrix for e in row):
        raise AssertionError(f"degree dropped below {r} for {word} under a positive matrix")
    return poly


def survival_denominator(
    word: Word, measure: BernoulliMeasure | MarkovChain
) -> RationalPolynomial:
    """The degree-r polynomial whose smallest positive root z0 satisfies
    escape rate = log(z0), for a Bernoulli measure or a two-symbol Markov
    chain.  Raises ForbiddenWordError when the word is not allowed under the
    chain."""
    if isinstance(measure, BernoulliMeasure):
        return _bernoulli_denominator(word, measure)
    if isinstance(measure, MarkovChain):
        return _markov_denominator(word, measure)
    raise TypeError(f"unsupported measure type {type(measure).__name__}")
