"""Dense exact-rational polynomials in one variable z, and the one
survival-denominator constructor of the escape-rate theory.

The key objects:

* ``border_data(word, measure_or_chain)``: the border (autocorrelation)
  polynomial of a word as integers read off the measure's factor table
  ``integer_factors`` = (d, start, rows) -- entry j over d^j is the z^j
  term weighted by the overhanging suffix, entry r over d^r the hole's
  measure -- one shape for both measures.  With the word's first and last
  letters it is everything the denominator depends on, so scans group words
  by it, and the survival oracles read their border polynomials and hole
  weights from it; ``border_walk`` computes it, the one border routine of
  the package.
* ``survival_denominator(word, measure_or_chain)``: the polynomial whose
  smallest positive root z0 gives the escape rate log(z0) of the cylinder
  hole on ``word``.  It is the denominator of the generating function of
  the survival probabilities (see the ``survival`` module), built from the
  border data and the word's end letters by one formula
  (``_denominator_ints``), whose second-eigenvalue terms vanish for a
  product measure.  Scans pass the data their walk already holds.

A ``RationalPolynomial`` has one form: ``ints``, its coefficients as
integers with content 1 and the same signs, which is all that root
isolation reads, times one positive rational ``scale``.  Survival
denominators and the survival oracles' polynomials are built as integer
numerators over one integer; no polynomial arithmetic is done on
``Fraction`` coefficients anywhere, and the ``Fraction`` coefficients are
made only when printed or asked for.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import AlphabetMismatchError, ForbiddenWordError
from .measures import BernoulliMeasure, MarkovChain
from .words import Word


class RationalPolynomial:
    """Immutable dense polynomial with rational coefficients, index = degree.

    It is held as ``ints``, integers with content 1, the signs of the
    coefficients and trailing zeros trimmed (empty for the zero
    polynomial), times one positive rational ``scale`` (1 for the zero
    polynomial): coefficient i is scale * ints[i].  That pair is canonical,
    so equality and hashing read it; the ``Fraction`` coefficients are made
    on first access.
    """

    __slots__ = ("ints", "scale", "_coeffs")

    def __init__(self, coeffs: Iterable[Fraction | int]) -> None:
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        poly = self._over([c.numerator * (den // c.denominator) for c in cs], den)
        self.ints, self.scale, self._coeffs = poly.ints, poly.scale, None

    @classmethod
    def _over(cls, nums: list[int], den: int) -> "RationalPolynomial":
        """The polynomial sum_i nums[i] / den z^i, for a nonzero ``den``."""
        while nums and nums[-1] == 0:
            nums = nums[:-1]
        g = math.gcd(*nums) if nums else abs(den)  # the content; scale 1 for zero
        g = g if den > 0 else -g
        poly = cls.__new__(cls)
        poly.ints, poly.scale, poly._coeffs = tuple(v // g for v in nums), Fraction(g, den), None
        return poly

    # -- basic structure -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Fraction coefficients, index = degree."""
        if self._coeffs is None:
            n, d = self.scale.numerator, self.scale.denominator
            self._coeffs = tuple(Fraction(n * c, d) for c in self.ints)
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.ints == other.ints and self.scale == other.scale

    def __hash__(self) -> int:
        return hash((self.ints, self.scale))

    def __repr__(self) -> str:
        texts = (text.removesuffix("/1") for text in self.coeff_strings())  # as str(Fraction)
        terms = [f"{t}*z^{k}" if k > 1 else f"{t}*z" if k else t for k, t in enumerate(texts) if t != "0"]
        return "RationalPolynomial(" + (" + ".join(terms) or "0") + ")"

    # -- output ------------------------------------------------------------

    def coeff_strings(self) -> list[str]:
        """Coefficients as 'num/den' strings in lowest terms, index = degree,
        read off ``ints`` and ``scale`` with no ``Fraction``: the scale's
        numerator n and denominator d are coprime, so n * c / d reduces by
        gcd(c, d)."""
        n, d = self.scale.numerator, self.scale.denominator
        out = []
        for c in self.ints:
            g = math.gcd(c, d)
            out.append(f"{_int_str(n * (c // g))}/{_int_str(d // g)}")
        return out


def _int_str(n: int) -> str:
    """The digits of n, however many: past the interpreter's limit for
    ``str(int)`` through ``decimal``, leaving the process-wide limit as it is."""
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


def _primitive(ints: list[int]) -> list[int]:
    """Trailing zeros trimmed and the content (a positive gcd) divided out."""
    while ints and ints[-1] == 0:
        ints.pop()
    g = math.gcd(*ints)
    return [v // g for v in ints]


def border_walk(
    branches: Sequence[Iterable[int]], measure: BernoulliMeasure | MarkovChain
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(letters, ``border_data``) of every word whose letter i is taken from
    ``branches[i]``, depth first in branch order; a chain's zero transition
    prunes its subtree.  Each depth extends its parent's prefix product pp
    and failure links fail, on an explicit stack so any length works; a leaf
    sets entry r - L to pp[r] // pp[L] for each border L down its failure links."""
    r = len(branches)
    _, start, rows = measure.integer_factors
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
        factor = rows[w[i - 1]][c] if i else start[c]
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
        yield tuple(w), (*data, pp[r])


def border_data(word: Word, measure: BernoulliMeasure | MarkovChain) -> tuple[int, ...] | None:
    """The border polynomial and weight of ``word``, one shape for both
    measures, as integers read off ``integer_factors`` (d, start, rows):
    entry j < r is the product of the row entries of the last j letters on
    a border shift j, else 0; entry r is the whole word's product
    start[w_0] * rows[w_0][w_1] * ..., d^r times the hole's measure.  With
    the first and last letters, all the survival denominator depends on.
    None for a word the chain forbids; the alphabet is not checked.  This
    is ``border_walk`` down one branch."""
    for _, data in border_walk([(x,) for x in word.letters], measure):
        return data
    return None


def _denominator_ints(
    data: Sequence[int], first: int, last: int, measure: BernoulliMeasure | MarkovChain
) -> list[int]:
    """The survival denominator's integer numerators, content not divided
    out, from a word's ``border_data`` and its first and last letters.  One
    formula, the chain's, serves both measures: with x = trace(rows) - d
    = d chi, d^r times (wrap - chi z) path z^r + (1 - z)(1 - chi z) border is
    (rows[last][first] - x z) P z^r + (d - x z)(1 - z) sum_{j<r} d^(r-1-j) data_j z^j,
    P the hole's entry over start[first] and the x z term of the head there
    only when first == last.  A product measure's rows sum to d, so x = 0
    and rows[last][first] * P is the hole's entry: mu z^r + (1 - z) border.
    The constant term is d^r > 0; a zero degree-(r+1) term is trimmed."""
    d, start, rows = measure.integer_factors
    x = sum(row[c] for c, row in enumerate(rows)) - d
    r = len(data) - 1
    path = data[r] // start[first]
    weights = [d ** (r - 1 - j) * v if v else 0 for j, v in enumerate(data[:r])]
    pad = [0, 0, *weights, 0, 0]  # times (d - x z)(1 - z) = d - (d + x) z + x z^2, in one pass
    ints = [d * a - (d + x) * b + x * c for a, b, c in zip(pad[2:], pad[1:], pad)]
    ints[r] += rows[last][first] * path
    if first == last:
        ints[r + 1] -= x * path
    return ints if ints[-1] else ints[:-1]


def survival_denominator(
    word: Word, measure: BernoulliMeasure | MarkovChain, *, data: Sequence[int] | None = None
) -> RationalPolynomial:
    """The degree-r polynomial whose smallest positive root z0 satisfies
    escape rate = log(z0), for a Bernoulli measure or a two-symbol Markov
    chain.  Raises ForbiddenWordError when the word is not allowed under the
    chain.  ``data``, the word's ``border_data`` when the caller already
    holds it (a scan's walk does), skips the walk.  The polynomial is
    ``_denominator_ints`` over its constant term."""
    if not isinstance(measure, (BernoulliMeasure, MarkovChain)):
        raise TypeError(f"unsupported measure type {type(measure).__name__}")
    if word.alphabet != measure.alphabet:
        raise AlphabetMismatchError("word and measure use different alphabets")
    data = border_data(word, measure) if data is None else data
    if data is None:
        raise ForbiddenWordError(f"word {word} uses a zero-probability transition")
    r = len(word)
    ints = _denominator_ints(data, word.letters[0], word.letters[-1], measure)
    poly = RationalPolynomial._over(ints, ints[0])
    # The degree-(r+1) terms always cancel.  With every factor positive the
    # degree is exactly r; a vanishing diagonal entry can cancel further
    # (e.g. the word bab when the aa-transition is forbidden).
    if poly.degree > r:
        raise AssertionError(f"survival denominator of length {r} has degree {poly.degree}")
    if poly.degree != r and all(map(all, measure.integer_factors[2])):
        raise AssertionError(f"degree dropped below {r} under a positive matrix")
    return poly
