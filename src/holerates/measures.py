"""Bernoulli product measures and two-symbol Markov chains, in exact rationals.

Floating-point probabilities are rejected here; the CLI is the only layer
that converts decimal input, and it does so exactly.

Both measures give their weights as one integer table, ``integer_factors``
= (d, start, rows): d times the probability of c as the first letter is
start[c], and after a it is rows[a][c].  Only this module fills the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import AlphabetMismatchError, ForbiddenWordError
from .words import AB, Alphabet, Word

RationalLike = Fraction | int | str


def as_fraction(value: RationalLike) -> Fraction:
    """Convert an exact input (Fraction, int, or rational/decimal string) to
    Fraction.  Binary floats are refused to keep the library exact."""
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass a Fraction or a string like '3/5'")
    return Fraction(value)


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(d, (v * d for v in values)) with d the lcm of the denominators."""
    d = math.lcm(*(v.denominator for v in values))
    return d, tuple(v.numerator * (d // v.denominator) for v in values)


@dataclass(frozen=True)
class BernoulliMeasure:
    """A product measure given by one positive rational probability per symbol."""

    alphabet: Alphabet
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.probs) != self.alphabet.size:
            raise ValueError("need exactly one probability per symbol")
        if any(not isinstance(p, Fraction) for p in self.probs):
            raise TypeError("probabilities must be Fractions; use BernoulliMeasure.from_rationals")
        if any(p <= 0 for p in self.probs):
            raise ValueError("all symbol probabilities must be positive")
        if sum(self.probs) != 1:
            raise ValueError(f"probabilities must sum to 1, got {sum(self.probs)}")

    @classmethod
    def from_rationals(
        cls, values: Sequence[RationalLike], alphabet: Alphabet | None = None
    ) -> "BernoulliMeasure":
        probs = tuple(as_fraction(v) for v in values)
        return cls(alphabet or Alphabet.of_size(len(probs)), probs)

    @cached_property
    def integer_factors(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(b, nums, (nums,) * A): the probabilities as nums[c] / b over
        their least common denominator b, both as the first letter's weights
        and as the row after every letter."""
        b, nums = _over_common_denominator(self.probs)
        return b, nums, (nums,) * self.alphabet.size

    @cached_property
    def root_candidates(self) -> tuple[Fraction, ...]:
        """The values 1/p, sorted: rational roots a survival denominator
        often has, tested exactly before any bisection."""
        return tuple(sorted({1 / p for p in self.probs}))

    def top_two(self) -> tuple[int, int]:
        """Indices of the most probable and second most probable symbols,
        breaking ties by symbol order."""
        order = sorted(range(self.alphabet.size), key=lambda i: (-self.probs[i], i))
        return order[0], order[1]


def hole_measure(word: Word, measure: BernoulliMeasure) -> Fraction:
    """Product-measure mass of the cylinder on ``word``."""
    if word.alphabet != measure.alphabet:
        raise AlphabetMismatchError("word and measure use different alphabets")
    out = Fraction(1)
    for i in word.letters:
        out *= measure.probs[i]
    return out


Matrix2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def stationary_distribution(matrix: Matrix2) -> tuple[Fraction, Fraction]:
    """The unique probability row vector fixed by a 2x2 stochastic matrix.

    For ((pi_aa, pi_ab), (pi_ba, pi_bb)) this is
    (pi_ba, pi_ab) / (pi_ab + pi_ba); it exists iff pi_ab + pi_ba > 0.
    """
    (_, p_ab), (p_ba, _) = matrix
    denom = p_ab + p_ba
    if denom == 0:
        raise ValueError("matrix is reducible: both off-diagonal entries are zero")
    return p_ba / denom, p_ab / denom


@dataclass(frozen=True)
class MarkovChain:
    """An irreducible aperiodic 2x2 stochastic matrix with its stationary
    vector.  ``second_eigenvalue`` is pi_aa + pi_bb - 1, the eigenvalue of
    the matrix besides 1; it vanishes exactly when the chain is a product
    measure."""

    matrix: Matrix2
    alphabet: Alphabet = field(default=AB)

    def __post_init__(self) -> None:
        if self.alphabet.size != 2:
            raise ValueError("Markov chains are supported on two-symbol alphabets only")
        rows = self.matrix
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise ValueError("matrix must be 2x2")
        for row in rows:
            for entry in row:
                if not isinstance(entry, Fraction):
                    raise TypeError("matrix entries must be Fractions; use MarkovChain.from_rationals")
                if entry < 0:
                    raise ValueError("matrix entries must be nonnegative")
            if sum(row) != 1:
                raise ValueError("matrix rows must sum to 1")
        if not self._primitive():
            raise ValueError("matrix must be irreducible and aperiodic")

    def _primitive(self) -> bool:
        # A 2x2 stochastic matrix is irreducible and aperiodic, that is its
        # square is positive, exactly when both letters lead to each other
        # and one of them may repeat.
        (aa, ab), (ba, bb) = self.matrix
        return ab > 0 and ba > 0 and (aa > 0 or bb > 0)

    @classmethod
    def from_rationals(
        cls, entries: Sequence[RationalLike], alphabet: Alphabet | None = None
    ) -> "MarkovChain":
        """Build from the four entries in row-major order."""
        if len(entries) != 4:
            raise ValueError("need exactly four matrix entries (row-major)")
        vals = [as_fraction(v) for v in entries]
        matrix = ((vals[0], vals[1]), (vals[2], vals[3]))
        return cls(matrix, alphabet or AB)

    @property
    def stationary(self) -> tuple[Fraction, Fraction]:
        return stationary_distribution(self.matrix)

    @property
    def second_eigenvalue(self) -> Fraction:
        return self.matrix[0][0] + self.matrix[1][1] - 1

    @cached_property
    def integer_factors(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(D, start, rows): the stationary weights and the two rows of the
        matrix over their least common denominator D."""
        d, nums = _over_common_denominator([*self.stationary, *self.matrix[0], *self.matrix[1]])
        return d, nums[:2], (nums[2:4], nums[4:])

    @cached_property
    def root_candidates(self) -> tuple[Fraction, ...]:
        """The reciprocals of the positive transitions, sorted: rational
        roots a survival denominator often has, tested exactly before any
        bisection."""
        return tuple(sorted({1 / e for row in self.matrix for e in row if e > 0}))


@dataclass(frozen=True)
class HoleWeights:
    """The three weights attached to a hole word under a Markov chain.

    path_weight: product of the transition probabilities along the word.
    cycle_weight: path_weight times the wrap-around transition from the last
        letter back to the first.
    measure: stationary probability of the first letter times path_weight,
        i.e. the actual measure of the cylinder.
    """

    path_weight: Fraction
    cycle_weight: Fraction
    measure: Fraction


def is_allowed(word: Word, chain: BernoulliMeasure | MarkovChain) -> bool:
    """True iff every consecutive transition inside the word has positive
    weight in the measure's ``integer_factors`` rows; every word is allowed
    under a product measure, whose rows are all positive."""
    if word.alphabet != chain.alphabet:
        raise AlphabetMismatchError("word and chain use different alphabets")
    rows = chain.integer_factors[2]
    return all(rows[i][j] for i, j in zip(word.letters, word.letters[1:]))


def markov_weights(word: Word, chain: MarkovChain) -> HoleWeights:
    """Path, cycle, and measure weights of ``word``; the path weight of a
    single letter is 1 (empty product)."""
    if not is_allowed(word, chain):
        raise ForbiddenWordError(f"word {word} uses a zero-probability transition")
    path = Fraction(1)
    for i, j in zip(word.letters, word.letters[1:]):
        path *= chain.matrix[i][j]
    wrap = chain.matrix[word.letters[-1]][word.letters[0]]
    return HoleWeights(
        path_weight=path,
        cycle_weight=path * wrap,
        measure=chain.stationary[word.letters[0]] * path,
    )
