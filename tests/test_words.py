import pytest
from hypothesis import given, strategies as st

from holerates.errors import EnumerationCapError
from holerates.words import AB, Alphabet, Word, enumerate_words

from _reference import autocorrelation, brute_period, unbordered


def w(text, alphabet=AB):
    return Word.parse(text, alphabet)


ABC = Alphabet.of_size(3)


def brute_autocorrelation(letters):
    n = len(letters)
    return tuple(1 if letters[i:] == letters[: n - i] else 0 for i in range(n))


class TestAlphabet:
    def test_requires_two_distinct_symbols(self):
        with pytest.raises(ValueError):
            Alphabet(("a",))
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_index(self):
        assert ABC.index("c") == 2
        with pytest.raises(ValueError):
            ABC.index("z")


class TestWordParsing:
    def test_single_char_roundtrip(self):
        word = w("aabbaa")
        assert word.letters == (0, 0, 1, 1, 0, 0)
        assert str(word) == "aabbaa"

    def test_multichar_symbols_use_commas(self):
        alpha = Alphabet(("s0", "s1"))
        word = Word.parse("s1,s0,s1", alpha)
        assert word.letters == (1, 0, 1)
        assert str(word) == "s1,s0,s1"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Word.parse("", AB)
        with pytest.raises(ValueError):
            Word((), AB)


class TestAutocorrelation:
    def test_worked_examples(self):
        assert autocorrelation(w("aa")) == (1, 1)
        assert autocorrelation(w("ab")) == (1, 0)
        assert autocorrelation(w("aabbaa")) == (1, 0, 0, 0, 1, 1)

    def test_exhaustive_matches_brute_force(self):
        # every word of length <= 8 over two symbols, <= 5 over three
        for alphabet, max_len in ((AB, 8), (ABC, 5)):
            for r in range(1, max_len + 1):
                for word in enumerate_words(alphabet, r):
                    assert autocorrelation(word) == brute_autocorrelation(word.letters)

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=14))
    def test_leading_bit_always_one(self, letters):
        bits = autocorrelation(Word(tuple(letters), ABC))
        assert bits[0] == 1


def period(word):
    """The minimal period read from the autocorrelation: its first set bit
    past bit 0, or the length."""
    return (autocorrelation(word) + (1,)).index(1, 1)


class TestUnborderedAndPeriod:
    def test_examples(self):
        assert unbordered(w("ab"))
        assert not unbordered(w("aa"))
        assert period(w("aabbaa")) == brute_period(w("aabbaa").letters) == 4
        assert period(w("baaaab")) == brute_period(w("baaaab").letters) == 5
        assert period(w("aaaa")) == brute_period(w("aaaa").letters) == 1

    def test_two_run_words_are_unbordered(self):
        for r in range(3, 10):
            word = Word((0, 0) + (1,) * (r - 2), AB)
            assert unbordered(word)
            assert not any(autocorrelation(word)[1:])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=14))
    def test_unbordered_iff_period_is_length(self, letters):
        word = Word(tuple(letters), AB)
        bits = autocorrelation(word)
        assert unbordered(word) == (period(word) == len(word))
        assert unbordered(word) == (not any(bits[1:]))

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=12))
    def test_period_matches_brute_force(self, letters):
        word = Word(tuple(letters), ABC)
        assert period(word) == brute_period(tuple(letters))


class TestEnumeration:
    def test_lexicographic_pairs(self):
        words = [str(word) for word in enumerate_words(AB, 2)]
        assert words == ["aa", "ab", "ba", "bb"]

    def test_single_letters(self):
        assert [str(word) for word in enumerate_words(AB, 1)] == ["a", "b"]

    def test_count_three_symbols(self):
        assert sum(1 for _ in enumerate_words(ABC, 3)) == 27

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            list(enumerate_words(AB, 5, cap=31))
