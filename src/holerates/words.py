"""Finite words over a finite alphabet, the enumeration cap and enumeration.

Symbols are stored as integer indices into an :class:`Alphabet`; textual
symbol names appear only when parsing or printing.  Nothing here reads a
word's borders: the weighted borders, which every survival denominator and
generating function reads, come from ``polynomials.border_data`` alone, and
the avoidance automaton finds its restart states from its own rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import EnumerationCapError

#: Hard default on the number of words a single scan may enumerate.
DEFAULT_ENUMERATION_CAP = 1 << 24


@dataclass(frozen=True)
class Alphabet:
    """An ordered alphabet of at least two distinct symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) < 2:
            raise ValueError("alphabet needs at least two symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")
        if any(not s for s in self.symbols):
            raise ValueError("alphabet symbols must be non-empty strings")

    @cached_property
    def separator(self) -> str:
        """'' when every symbol is one character, else ','."""
        return "" if all(len(s) == 1 for s in self.symbols) else ","

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    @classmethod
    def of_size(cls, n: int) -> "Alphabet":
        """The alphabet 'a', 'b', 'c', ... of n single-character symbols."""
        if n > 26:
            raise ValueError("of_size supports at most 26 symbols")
        return cls(tuple("abcdefghijklmnopqrstuvwxyz"[:n]))


#: The two-symbol alphabet used throughout the Markov layer.
AB = Alphabet(("a", "b"))


@dataclass(frozen=True)
class Word:
    """A non-empty finite word, stored as symbol indices into its alphabet."""

    letters: tuple[int, ...]
    alphabet: Alphabet

    def __post_init__(self) -> None:
        letters = self.letters
        if not letters:
            raise ValueError("words must have length >= 1")
        if min(letters) < 0 or max(letters) >= len(self.alphabet.symbols):
            raise ValueError("letter index out of range for alphabet")

    @classmethod
    def _in_range(cls, letters: tuple[int, ...], alphabet: Alphabet) -> "Word":
        """A word of letters already known to be valid indices, unchecked."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        object.__setattr__(word, "alphabet", alphabet)
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        symbols = self.alphabet.symbols
        return self.alphabet.separator.join([symbols[i] for i in self.letters])

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet) -> "Word":
        """Parse a word from symbol names.

        Single-character alphabets are written with no separator ('aab');
        alphabets with any multi-character symbol use commas ('s1,s0,s1').
        """
        if "," in text or alphabet.separator:
            names = [t for t in text.split(",") if t]
        else:
            names = list(text)
        if not names:
            raise ValueError("cannot parse an empty word")
        return cls(tuple(alphabet.index(n) for n in names), alphabet)


def check_enumeration(alphabet: Alphabet, length: int, cap: int) -> None:
    """Raise unless the alphabet.size ** length words of the given length
    (length >= 1) are at most ``cap``: every scan's first step."""
    if length < 1:
        raise ValueError("length must be >= 1")
    total = alphabet.size**length
    if total > cap:
        raise EnumerationCapError(
            f"{alphabet.size}^{length} = {total} words exceeds the cap of {cap}"
        )


def enumerate_words(
    alphabet: Alphabet, length: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Word]:
    """Yield all alphabet.size ** length words of the given length, in
    lexicographic order of letter indices.  Raises EnumerationCapError
    before yielding anything if the count would exceed ``cap``."""
    check_enumeration(alphabet, length, cap)
    for letters in itertools.product(range(alphabet.size), repeat=length):
        yield Word(letters, alphabet)
