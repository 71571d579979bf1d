"""Dense exact-rational polynomials in one variable z, and the constructors
for every survival-denominator polynomial used by the escape-rate theory.

The key objects:

* ``border_data(word, measure_or_chain)``: the border (autocorrelation)
  polynomial of a word as small integers over the measure's
  ``integer_factors`` -- entry j over b^j, or over D^j for a chain, is the
  z^j term weighted by the overhanging suffix -- with what the rest of the
  denominator reads of the word.  It is everything the denominator depends
  on, so scans group words by it, and the survival oracles read their
  border polynomials from it; ``border_walk`` computes it, the one border
  routine of the package.
* ``survival_denominator(word, measure_or_chain)``: the polynomial whose
  smallest positive root z0 gives the escape rate log(z0) of the cylinder
  hole on ``word``.  It is the denominator of the generating function of
  the survival probabilities (see the ``survival`` module), built from the
  border data alone.

Every polynomial also has ``ints``, its coefficients as integers with
content 1 and the same signs, which is all that root isolation reads.  A
survival denominator is built directly as these primitive integers, and no
polynomial arithmetic is done on ``Fraction`` coefficients anywhere: a
``RationalPolynomial`` is a value to compare and print, and any polynomial
not built from integers computes them once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import AlphabetMismatchError, ForbiddenWordError
from .measures import BernoulliMeasure, MarkovChain, _over_common_denominator
from .words import Word


class RationalPolynomial:
    """Immutable dense polynomial with Fraction coefficients, index = degree.

    The zero polynomial has an empty coefficient tuple; trailing zero
    coefficients are trimmed on construction.
    """

    __slots__ = ("_coeffs", "_ints")

    def __init__(self, coeffs: Iterable[Fraction | int]) -> None:
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))
        object.__setattr__(self, "_ints", None)

    @classmethod
    def _from_ints(cls, ints: list[int]) -> "RationalPolynomial":
        """The polynomial ints / ints[0], from integers with content 1 and a
        positive constant term, which become its ``ints``; its ``coeffs``
        are made on first access."""
        poly = cls.__new__(cls)
        object.__setattr__(poly, "_coeffs", None)
        object.__setattr__(poly, "_ints", tuple(ints))
        return poly

    # -- basic structure -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Fraction coefficients, index = degree."""
        if self._coeffs is None:
            lead = self._ints[0]
            object.__setattr__(self, "_coeffs", tuple(Fraction(c, lead) for c in self._ints))
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs if self._ints is None else self._ints) - 1

    @property
    def ints(self) -> tuple[int, ...]:
        """Integer coefficients with content 1 and the signs of ``coeffs``."""
        if self._ints is None:
            object.__setattr__(self, "_ints", tuple(_int_coeffs(self)))
        return self._ints

    def is_zero(self) -> bool:
        return self.degree < 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self._coeffs is None and other._coeffs is None:
            return self._ints == other._ints  # both are ints / ints[0]
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = [f"{c}*z^{k}" if k > 1 else f"{c}*z" if k else str(c) for k, c in enumerate(self.coeffs) if c]
        return "RationalPolynomial(" + (" + ".join(terms) or "0") + ")"

    # -- output ------------------------------------------------------------

    def coeff_strings(self) -> list[str]:
        """Coefficients as 'num/den' strings, index = degree."""
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]


def _primitive(ints: list[int]) -> list[int]:
    """Trailing zeros trimmed and the content (a positive gcd) divided out."""
    while ints and ints[-1] == 0:
        ints.pop()
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _int_coeffs(poly: RationalPolynomial) -> list[int]:
    """Scale to integer coefficients with content 1; sign pattern preserved."""
    return _primitive(list(_over_common_denominator(poly.coeffs)[1]))


def border_walk(
    branches: Sequence[Iterable[int]], measure: BernoulliMeasure | MarkovChain
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(letters, ``border_data``) of every word whose letter i is taken from
    ``branches[i]``, depth first in branch order; a chain's zero transition
    prunes its subtree.  Each depth extends its parent's prefix product pp
    and failure links fail, on an explicit stack so any length works; a leaf
    sets entry r - L to pp[r] // pp[L] for each border L down its failure links."""
    r = len(branches)
    nums = measure.integer_factors[1]
    chain = isinstance(measure, MarkovChain)
    w, pp, fail = [0] * r, [1] * (r + 1), [-1] + [0] * r  # fail[0] = -1 ends every chain
    untried = []  # the letter iterators of the depths above i
    i, letters = 0, iter(branches[0])
    while True:
        c = next(letters, None)
        if c is None:
            if not untried:
                return
            i, letters = i - 1, untried.pop()
            continue
        factor = (nums[2 * w[i - 1] + c] if i else 1) if chain else nums[c]
        if not factor:
            continue
        w[i], pp[i + 1] = c, pp[i] * factor
        k = fail[i]
        while k >= 0 and c != w[k]:
            k = fail[k]
        fail[i + 1] = k = k + 1
        if i + 1 < r:
            untried.append(letters)
            i, letters = i + 1, iter(branches[i + 1])
            continue
        data = [1] + [0] * (r - 1)
        while k:
            data[-k] = pp[r] // pp[k]
            k = fail[k]
        yield tuple(w), (*data, pp[r], w[0], c) if chain else (*data, pp[r])


def border_data(word: Word, measure: BernoulliMeasure | MarkovChain) -> tuple[int, ...] | None:
    """Everything the survival denominator of ``word`` depends on, as small
    integers over the measure's ``integer_factors``: entry j is the product
    of the numerators of the last j factors (letters, or a chain's
    transitions) on a border shift j, else 0; then the whole word's product
    (entry r), and for a chain the first and last letters.  Words with equal
    data have one denominator; None for a word the chain forbids.  The
    alphabet is not checked.  This is ``border_walk`` down one branch."""
    for _, data in border_walk([(x,) for x in word.letters], measure):
        return data
    return None


def _times_linear(seq: list[int], c0: int, c1: int) -> list[int]:
    """Coefficients of (c0 + c1 z) * sum_j seq[j] z^j."""
    return [c0 * a + c1 * b for a, b in zip(seq + [0], [0] + seq)]


def _bernoulli_denominator(data: tuple[int, ...], b: int) -> RationalPolynomial:
    # With probabilities a_i / b, b^r times mu z^r + (1 - z) * (border
    # polynomial) is (1 - z) * sum_{j<=r} b^(r-j) data_j z^j without its
    # z^(r+1) term (see border_data).
    r = len(data) - 1
    weights = [b ** (r - j) * v if v else 0 for j, v in enumerate(data)]
    ints = _primitive(_times_linear(weights, 1, -1)[:-1])
    if len(ints) != r + 1:
        raise AssertionError(f"survival denominator of length {r} has degree {len(ints) - 1}")
    return RationalPolynomial._from_ints(ints)


def _markov_denominator(
    data: tuple[int, ...], factors: tuple[int, tuple[int, ...]]
) -> RationalPolynomial:
    # With entries e_xy / D and x = chi D, D^r times the path-weight form
    # (wrap - chi z) * path * z^r + (1 - z)(1 - chi z) * full is
    # (e_wrap - x z) * E z^r + (D - x z)(1 - z) * sum_{j<r} D^(r-1-j) data_j z^j,
    # where E is the product of all the transition numerators (see
    # border_data); the x z term of the head is there only when the word
    # starts and ends with the same letter.
    d, nums = factors
    e = (nums[:2], nums[2:4])
    x = e[0][0] + e[1][1] - d
    *weights, path, first, last = data
    r = len(weights)
    weights = [d ** (r - 1 - j) * v if v else 0 for j, v in enumerate(weights)]
    ints = _times_linear(_times_linear(weights, 1, -1), d, -x)
    ints[r] += e[last][first] * path
    if first == last:
        ints[r + 1] -= x * path
    ints = _primitive(ints)
    # The degree-(r+1) terms always cancel.  For a strictly positive matrix
    # the degree is exactly r; a vanishing diagonal entry can cancel further
    # (e.g. the word bab when the aa-transition is forbidden).
    if len(ints) > r + 1:
        raise AssertionError(f"survival denominator of length {r} has degree {len(ints) - 1}")
    if len(ints) != r + 1 and 0 not in nums:
        raise AssertionError(f"degree dropped below {r} under a positive matrix")
    return RationalPolynomial._from_ints(ints)


def survival_denominator(
    word: Word, measure: BernoulliMeasure | MarkovChain
) -> RationalPolynomial:
    """The degree-r polynomial whose smallest positive root z0 satisfies
    escape rate = log(z0), for a Bernoulli measure or a two-symbol Markov
    chain.  Raises ForbiddenWordError when the word is not allowed under the
    chain."""
    if not isinstance(measure, (BernoulliMeasure, MarkovChain)):
        raise TypeError(f"unsupported measure type {type(measure).__name__}")
    if word.alphabet != measure.alphabet:
        raise AlphabetMismatchError("word and measure use different alphabets")
    data = border_data(word, measure)
    if data is None:
        raise ForbiddenWordError(f"word {word} uses a zero-probability transition")
    if isinstance(measure, BernoulliMeasure):
        return _bernoulli_denominator(data, measure.integer_factors[0])
    return _markov_denominator(data, measure.integer_factors)
