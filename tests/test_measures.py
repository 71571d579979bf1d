from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from holerates.errors import AlphabetMismatchError, ForbiddenWordError
from holerates.measures import (
    BernoulliMeasure,
    MarkovChain,
    hole_measure,
    is_allowed,
    markov_weights,
    stationary_distribution,
)
from holerates.words import AB, Alphabet, Word, enumerate_words

B = BernoulliMeasure.from_rationals
M = MarkovChain.from_rationals

UNIFORM = M(["1/2", "1/2", "1/2", "1/2"])
TILTED = M(["3/4", "1/4", "1/3", "2/3"])
SUBSHIFT = M(["0", "1", "1/2", "1/2"])


def w(text):
    return Word.parse(text, AB)


class TestBernoulliMeasure:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            B([0.5, 0.5])

    def test_requires_unit_sum_and_positivity(self):
        with pytest.raises(ValueError):
            B(["1/2", "1/3"])
        with pytest.raises(ValueError):
            B(["1", "0"])

    def test_integer_factors(self):
        nums = (5, 3, 2)
        assert B(["1/2", "3/10", "1/5"]).integer_factors == (10, nums, (nums, nums, nums))

    def test_top_two_breaks_ties_by_symbol_order(self):
        measure = B(["2/5", "2/5", "1/5"])
        assert measure.top_two() == (0, 1)

    def test_hole_measure_examples(self):
        p, q = Fraction(3, 5), Fraction(2, 5)
        measure = B([p, q])
        assert hole_measure(w("aa"), measure) == p * p
        assert hole_measure(w("ab"), measure) == p * q
        assert hole_measure(w("ba"), measure) == p * q
        assert hole_measure(w("aaab"), measure) == Fraction(54, 625)

    def test_alphabet_mismatch(self):
        other = Word.parse("abc", Alphabet.of_size(3))
        with pytest.raises(AlphabetMismatchError):
            hole_measure(other, B(["1/2", "1/2"]))

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=8),
        st.lists(st.integers(0, 1), min_size=1, max_size=8),
    )
    def test_multiplicative_under_concatenation(self, left, right):
        measure = B(["3/5", "2/5"])
        u, v = Word(tuple(left), AB), Word(tuple(right), AB)
        uv = Word(tuple(left + right), AB)
        assert hole_measure(uv, measure) == hole_measure(u, measure) * hole_measure(v, measure)


class TestStationary:
    def test_examples(self):
        assert stationary_distribution(UNIFORM.matrix) == (Fraction(1, 2), Fraction(1, 2))
        assert stationary_distribution(SUBSHIFT.matrix) == (Fraction(1, 3), Fraction(2, 3))
        symmetric = M(["3/4", "1/4", "1/4", "3/4"])
        assert stationary_distribution(symmetric.matrix) == (Fraction(1, 2), Fraction(1, 2))

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            stationary_distribution(
                ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
            )

    def test_fixed_point_is_exact(self):
        for chain in (UNIFORM, TILTED, SUBSHIFT):
            pa, pb = chain.stationary
            m = chain.matrix
            assert pa * m[0][0] + pb * m[1][0] == pa
            assert pa * m[0][1] + pb * m[1][1] == pb
            assert pa + pb == 1


class TestMarkovChain:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            M(["1/2", "1/3", "1/2", "1/2"])

    @pytest.mark.parametrize(
        "entries,primitive",
        [
            (["0", "1", "1", "0"], False),  # periodic
            (["1", "0", "0", "1"], False),  # reducible: neither letter leaves
            (["1", "0", "1/2", "1/2"], False),  # b leads to a, a never to b
            (["1/2", "1/2", "0", "1"], False),  # a leads to b, b never to a
            (["0", "1", "1/2", "1/2"], True),  # the golden-mean shift
        ],
    )
    def test_only_primitive_matrices_accepted(self, entries, primitive):
        if primitive:
            M(entries)
        else:
            with pytest.raises(ValueError, match="irreducible and aperiodic"):
                M(entries)

    def test_second_eigenvalue_range_and_product_case(self):
        assert TILTED.second_eigenvalue == Fraction(5, 12)
        assert SUBSHIFT.second_eigenvalue == Fraction(-1, 2)
        assert UNIFORM.second_eigenvalue == 0
        for chain in (UNIFORM, TILTED, SUBSHIFT):
            assert -1 < chain.second_eigenvalue < 1

    def test_integer_factors(self):
        # stationary (1/3, 2/3) and the rows (0, 1), (1/2, 1/2), over 6
        assert SUBSHIFT.integer_factors == (6, (2, 4), ((0, 6), (3, 3)))

    def test_zero_eigenvalue_means_equal_rows(self):
        chain = M(["1/3", "2/3", "1/3", "2/3"])
        assert chain.second_eigenvalue == 0
        assert chain.matrix[0] == chain.matrix[1]


class TestHoleWeights:
    def test_uniform_example(self):
        weights = markov_weights(w("ab"), UNIFORM)
        assert weights.path_weight == Fraction(1, 2)
        assert weights.cycle_weight == Fraction(1, 4)
        assert weights.measure == Fraction(1, 4)

    def test_cycle_weight_closed_forms(self):
        for chain in (UNIFORM, TILTED):
            paa, pbb = chain.matrix[0][0], chain.matrix[1][1]
            assert markov_weights(w("aa"), chain).cycle_weight == paa * paa
            assert markov_weights(w("ab"), chain).cycle_weight == (1 - paa) * (1 - pbb)

    def test_single_letter_has_unit_path(self):
        weights = markov_weights(w("a"), TILTED)
        assert weights.path_weight == 1
        assert weights.cycle_weight == TILTED.matrix[0][0]

    def test_forbidden_word(self):
        assert not is_allowed(w("aa"), SUBSHIFT)
        assert is_allowed(w("aba"), TILTED)
        with pytest.raises(ForbiddenWordError):
            markov_weights(w("aa"), SUBSHIFT)

    def test_cycle_weight_consistency(self):
        for word in enumerate_words(AB, 4):
            if not is_allowed(word, TILTED):
                continue
            weights = markov_weights(word, TILTED)
            wrap = TILTED.matrix[word.letters[-1]][word.letters[0]]
            assert weights.cycle_weight == weights.path_weight * wrap


class TestPartitionOfUnity:
    @pytest.mark.parametrize("chain", [UNIFORM, TILTED, SUBSHIFT])
    def test_word_measures_sum_to_one(self, chain):
        for r in range(1, 11):
            total = sum(
                markov_weights(word, chain).measure
                for word in enumerate_words(AB, r)
                if is_allowed(word, chain)
            )
            assert total == 1
