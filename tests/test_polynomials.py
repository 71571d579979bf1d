import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from holerates.errors import ForbiddenWordError
from holerates.measures import BernoulliMeasure, MarkovChain, hole_measure, is_allowed, markov_weights
from holerates.polynomials import RationalPolynomial, border_data, survival_denominator
from holerates.words import AB, Word, enumerate_words

from _reference import (
    bernoulli_form,
    chain_forms,
    horner,
    markov_weighted_autocorrelation,
    poly_add,
    poly_mul,
    poly_sub,
    trinomial,
    weighted_autocorrelation,
)
from _reference import border_data as reference_border_data

B = BernoulliMeasure.from_rationals
M = MarkovChain.from_rationals
P35 = B(["3/5", "2/5"])


def w(text):
    return Word.parse(text, AB)


def poly(*coeffs):
    return RationalPolynomial([Fraction(c) for c in coeffs])


class TestRationalPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert poly(1, 2, 0, 0).coeffs == (1, 2)
        assert poly(0, 0).is_zero()
        assert poly().degree == -1

    def test_arithmetic(self):
        # the Fraction arithmetic the references build their forms with
        a, b = poly(1, 1), poly(-1, 1)
        assert poly_mul(a, b) == poly(-1, 0, 1)
        assert poly_add(a, b) == poly(0, 2)
        assert poly_sub(a, a) == poly()
        assert poly_mul(a, poly(0, 0, 1)) == poly(0, 0, 1, 1)

    def test_eval(self):
        assert horner(poly(1, -1, Fraction(6, 25)), Fraction(5, 3)) == 0

    def test_string_roundtrip(self):
        assert poly(1, Fraction(-1, 2)).coeff_strings() == ["1/1", "-1/2"]

    def test_strings_past_the_interpreter_digit_limit(self):
        # a 5001-digit numerator exceeds the default limit of str(int)
        big = poly(Fraction(-1, 2), 0, Fraction(10**5000, 3))
        digits = "1" + "0" * 5000
        assert big.coeff_strings() == ["-1/2", "0/1", f"{digits}/3"]
        assert repr(big) == f"RationalPolynomial(-1/2 + {digits}/3*z^2)"
        assert repr(poly(3, Fraction(-1, 2), 0, 7)) == "RationalPolynomial(3 + -1/2*z + 7*z^3)"

    @given(
        st.lists(st.fractions(max_denominator=30), max_size=6),
        st.integers(-10**6, 10**6).filter(bool),
    )
    def test_integer_constructor_matches_fractions(self, values, k):
        # the same coefficients as numerators over a common denominator,
        # both times any nonzero k
        den = math.lcm(*(v.denominator for v in values))
        built = RationalPolynomial._over([k * v.numerator * (den // v.denominator) for v in values], k * den)
        expected = RationalPolynomial(values)
        while values and values[-1] == 0:
            values.pop()
        assert built.coeffs == expected.coeffs == tuple(values)
        assert built == expected and hash(built) == hash(expected)
        assert built.ints == expected.ints and built.scale == expected.scale > 0
        assert math.gcd(*built.ints) == (1 if values else 0)

    @given(st.integers(0, 5), st.integers(-10**6, 10**6).filter(bool))
    def test_one_zero_polynomial(self, length, den):
        zero = RationalPolynomial._over([0] * length, den)
        assert zero == RationalPolynomial([]) == RationalPolynomial([0] * length)
        assert hash(zero) == hash(RationalPolynomial([])) and zero.is_zero() and zero.coeffs == ()

    @given(
        st.lists(st.integers(-10**6, 10**6) | st.just(0), max_size=6),
        st.integers(-10**6, 10**6).filter(bool),
    )
    @example([], -3)
    @example([0, 0], 7)
    @example([4, 0, -6], -8)
    def test_coeff_strings_match_the_fraction_form(self, nums, den):
        expected = [f"{c.numerator}/{c.denominator}" for c in RationalPolynomial._over(nums, den).coeffs]
        printed = RationalPolynomial._over(nums, den)
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(Fraction, "__new__", counting)
            strings = printed.coeff_strings()
        assert strings == expected and made == [] and printed._coeffs is None

    def test_denominator_coeffs_are_made_on_first_access(self):
        tau, same = survival_denominator(w("aab"), P35), survival_denominator(w("aab"), P35)
        other = survival_denominator(w("abb"), P35)
        # degree, zero test and equality read the integers alone
        assert tau.degree == 3 and not tau.is_zero()
        assert tau == same and tau != other
        assert tau._coeffs is None
        expected = RationalPolynomial([Fraction(c, tau.ints[0]) for c in tau.ints])
        assert tau.coeffs == expected.coeffs
        assert tau.coeff_strings() == expected.coeff_strings()
        assert hash(tau) == hash(expected) == hash(same)
        assert tau == expected and expected == same and same == tau
        # equal integers over different constant terms are different polynomials
        double, single = poly(2, 4), poly(1, 2)
        assert double.ints == single.ints and double != single

    def test_denominators_compare_and_hash_without_fractions(self, monkeypatch):
        tau, same = survival_denominator(w("aab"), P35), survival_denominator(w("aab"), P35)
        other = survival_denominator(w("abb"), P35)
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        assert tau == same and tau != other and hash(tau) == hash(same) != hash(other)
        assert made == []
        assert other.coeffs[0] == 1 and made  # coefficients are made when asked for


def border_polynomial(word, measure):
    """The border polynomial read from ``border_data``: entry j over b^j
    (D^j for a chain)."""
    b = measure.integer_factors[0]
    return RationalPolynomial(
        Fraction(v, b**j) for j, v in enumerate(border_data(word, measure)[: len(word)])
    )


class TestWeightedAutocorrelation:
    """The Fraction reference, and ``border_data`` read as a polynomial."""

    def test_worked_examples(self):
        p = Fraction(3, 5)
        for form in (weighted_autocorrelation, border_polynomial):
            assert form(w("aa"), P35) == poly(1, p)
            assert form(w("ab"), P35) == poly(1)

    def test_single_symbol_run_is_geometric(self):
        p = Fraction(3, 5)
        for r in range(1, 7):
            run = Word((0,) * r, AB)
            geometric = RationalPolynomial([p**j for j in range(r)])
            assert weighted_autocorrelation(run, P35) == border_polynomial(run, P35) == geometric

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=10))
    def test_constant_term_is_one(self, letters):
        word = Word(tuple(letters), AB)
        assert weighted_autocorrelation(word, P35).coeffs[0] == 1
        assert border_polynomial(word, P35) == weighted_autocorrelation(word, P35)


class TestBorderData:
    """The border data of one branch of the prefix-tree walk (prefix
    products, failure links) against the autocorrelation bits times suffix
    products, every shift visited."""

    MEASURES = [
        B(["7/10", "3/10"]),
        B(["1/2", "3/10", "1/5"]),
        M(["3/4", "1/4", "1/3", "2/3"]),
        M(["0", "1", "1/2", "1/2"]),
    ]

    @given(st.sampled_from(MEASURES), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, measure, data):
        size = measure.alphabet.size
        letters = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=40))
        word = Word(tuple(letters), measure.alphabet)
        assert border_data(word, measure) == reference_border_data(word, measure)

    @given(st.lists(st.sampled_from([(1,), (0, 1)]), min_size=1, max_size=25), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_long_words_the_subshift_allows(self, blocks, end_in_a):
        # blocks b and ab, then maybe an a: no aa, the forbidden transition
        measure = self.MEASURES[3]
        word = Word(sum(blocks, ()) + (0,) * end_in_a, AB)
        data = border_data(word, measure)
        assert data is not None and data == reference_border_data(word, measure)

    @given(st.sampled_from(MEASURES), st.data())
    @settings(max_examples=30, deadline=None)
    def test_words_past_the_recursion_limit(self, measure, data):
        # a repeated block with a short tail: long words with many borders
        size = measure.alphabet.size
        block = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6))
        tail = data.draw(st.lists(st.integers(0, size - 1), max_size=3))
        length = data.draw(st.integers(1000, 2000))
        word = Word(tuple((block * length)[: length - len(tail)] + tail), measure.alphabet)
        assert border_data(word, measure) == reference_border_data(word, measure)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_every_short_word(self, measure):
        # r = 1, and every forbidden word of the subshift chain
        for r in range(1, 9):
            for word in enumerate_words(measure.alphabet, r):
                assert border_data(word, measure) == reference_border_data(word, measure), str(word)

    def test_examples(self):
        # aabaa at 7/10: borders aa (shift 3, last letters baa) and a
        # (shift 4, last letters abaa), then the whole word's product
        assert border_data(w("aabaa"), B(["7/10", "3/10"])) == (1, 0, 0, 147, 1029, 7203)
        # the chain forbids aa
        assert border_data(w("baab"), M(["0", "1", "1/2", "1/2"])) is None
        # b alone: D = 6 times its stationary weight 2/3
        assert border_data(w("b"), M(["0", "1", "1/2", "1/2"])) == (1, 4)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_whole_word_entry_is_the_hole_measure(self, measure):
        # entry r over d^r against the Fraction measure of the cylinder
        d = measure.integer_factors[0]
        chain = isinstance(measure, MarkovChain)
        for r in range(1, 9):
            for word in enumerate_words(measure.alphabet, r):
                data = border_data(word, measure)
                if chain and not is_allowed(word, measure):
                    assert data is None, str(word)
                    continue
                expected = markov_weights(word, measure).measure if chain else hole_measure(word, measure)
                assert Fraction(data[r], d**r) == expected, str(word)


class TestSurvivalDenominator:
    def test_worked_examples(self):
        p, q = Fraction(3, 5), Fraction(2, 5)
        assert survival_denominator(w("aa"), P35) == poly(1, -q, -p * q)
        assert survival_denominator(w("ab"), P35) == poly(1, -1, p * q)

    def test_unbordered_words_give_the_trinomial(self):
        for r in range(2, 8):
            word = Word((0,) * (r - 1) + (1,), AB)
            mu = hole_measure(word, P35)
            assert survival_denominator(word, P35) == trinomial(r, mu)

    def test_value_at_one_is_the_measure(self):
        for r in range(1, 7):
            for word in enumerate_words(AB, r):
                tau = survival_denominator(word, P35)
                assert horner(tau, Fraction(1)) == hole_measure(word, P35)
                assert tau.coeffs[0] == 1
                assert tau.degree == r

    def test_positive_on_unit_interval(self):
        for word in enumerate_words(AB, 5):
            tau = survival_denominator(word, P35)
            for k in range(0, 33):
                assert horner(tau, Fraction(k, 32)) > 0

    @pytest.mark.parametrize("p", ["1/2", "7/10", "1/3"])
    def test_chain_with_equal_rows_is_the_product_measure(self, p):
        # every row sums to d, so x = trace - d = 0 and the chain formula
        # reduces to the product measure's
        q = 1 - Fraction(p)
        chain, product = M([p, q, p, q]), B([p, q])
        for r in range(1, 11):
            for word in enumerate_words(AB, r):
                assert survival_denominator(word, chain) == survival_denominator(word, product), str(word)

    def test_run_word_identity(self):
        # (1 - p z) * denominator(a^r) == trinomial of length r+1 at measure p^r(1-p)
        p = Fraction(3, 5)
        for r in range(1, 8):
            run = Word((0,) * r, AB)
            lhs = poly_mul(poly(1, -p), survival_denominator(run, P35))
            assert lhs == trinomial(r + 1, p**r * (1 - p))


def _max_unbordered(r, p):
    """The survival denominator of a^(r-1) b under Bernoulli(p, 1 - p)."""
    return survival_denominator(Word((0,) * (r - 1) + (1,), AB), B([p, 1 - p]))


class TestTrinomials:
    def test_direct_form(self):
        assert trinomial(2, Fraction(1, 4)) == poly(1, -1, Fraction(1, 4))

    def test_critical_root(self):
        assert horner(trinomial(3, Fraction(4, 27)), Fraction(3, 2)) == 0
        assert horner(trinomial(4, Fraction(27, 256)), Fraction(4, 3)) == 0

    def test_max_unbordered_always_vanishes_at_inverse_p(self):
        for num in range(1, 10):
            p = Fraction(num, 10)
            for r in (2, 3, 5):
                assert horner(_max_unbordered(r, p), 1 / p) == 0

    def test_max_unbordered_coefficients(self):
        # r=2, p=1/2: (1/2)(1/2) z^2 - z + 1
        assert _max_unbordered(2, Fraction(1, 2)) == poly(1, -1, Fraction(1, 4))
        assert horner(_max_unbordered(3, Fraction(2, 3)), Fraction(3, 2)) == 0


UNIFORM = M(["1/2", "1/2", "1/2", "1/2"])
TILTED = M(["3/4", "1/4", "1/3", "2/3"])
SUBSHIFT = M(["0", "1", "1/2", "1/2"])


class TestMarkovDenominator:
    def test_border_polynomials(self):
        full, reduced = markov_weighted_autocorrelation(w("aa"), TILTED)
        assert full == poly(1, Fraction(3, 4)) == border_polynomial(w("aa"), TILTED)
        assert reduced == poly(1)
        full, reduced = markov_weighted_autocorrelation(w("ab"), TILTED)
        assert full == poly(1) == border_polynomial(w("ab"), TILTED) and reduced == poly(1)
        full, reduced = markov_weighted_autocorrelation(w("aba"), UNIFORM)
        assert full == poly(1, 0, Fraction(1, 4)) == border_polynomial(w("aba"), UNIFORM)
        assert reduced == poly(1)

    def test_length_two_closed_forms(self):
        for chain in (UNIFORM, TILTED):
            paa, pbb = chain.matrix[0][0], chain.matrix[1][1]
            assert survival_denominator(w("aa"), chain) == poly(
                1, -pbb, -(1 - paa) * (1 - pbb)
            )
            assert survival_denominator(w("ab"), chain) == poly(
                1, -(paa + pbb), paa * pbb
            )
            assert survival_denominator(w("ba"), chain) == survival_denominator(w("ab"), chain)

    def test_degree_exactly_r_for_positive_matrices(self):
        for chain in (UNIFORM, TILTED):
            for r in range(1, 6):
                for word in enumerate_words(AB, r):
                    assert survival_denominator(word, chain).degree == r

    def test_subshift_degree_can_drop(self):
        # bab is allowed when the aa-transition is forbidden, yet its
        # denominator collapses: avoiding bab in that subshift forces all
        # interior letters to b, so survival decays like the bb-run weight.
        tau = survival_denominator(w("bab"), SUBSHIFT)
        assert tau == poly(1, Fraction(-1, 2))

    def test_forbidden_word_raises(self):
        with pytest.raises(ForbiddenWordError):
            survival_denominator(w("aab"), SUBSHIFT)

    def test_zero_eigenvalue_matches_product_measure(self):
        for entries in (["1/2", "1/2", "1/2", "1/2"], ["1/3", "2/3", "1/3", "2/3"]):
            chain = M(entries)
            product = BernoulliMeasure(chain.alphabet, chain.matrix[0])
            for r in range(1, 6):
                for word in enumerate_words(AB, r):
                    assert survival_denominator(word, chain) == survival_denominator(
                        word, product
                    )


TERNARY = BernoulliMeasure.from_rationals(["1/2", "1/3", "1/6"])


class TestIntegerBuilders:
    """The denominators built as primitive integers against the Fraction
    forms of the theory, built independently here."""

    @staticmethod
    def _check_ints(tau):
        assert tau.ints[0] > 0
        assert math.gcd(*tau.ints) == 1
        assert tau.coeffs == tuple(Fraction(c, tau.ints[0]) for c in tau.ints)

    @pytest.mark.parametrize("p", ["1/2", "7/10", "2/3"])
    def test_binary_words(self, p):
        measure = B([p, 1 - Fraction(p)])
        for r in range(1, 11):
            for word in enumerate_words(AB, r):
                tau = survival_denominator(word, measure)
                assert tau == bernoulli_form(word, measure), str(word)
                self._check_ints(tau)

    def test_ternary_words(self):
        for r in range(1, 7):
            for word in enumerate_words(TERNARY.alphabet, r):
                tau = survival_denominator(word, TERNARY)
                assert tau == bernoulli_form(word, TERNARY), str(word)
                self._check_ints(tau)

    @pytest.mark.parametrize(
        "entries", [["3/4", "1/4", "1/3", "2/3"], ["2/5", "3/5", "1/3", "2/3"], ["0", "1", "1/2", "1/2"]]
    )
    def test_chain_words(self, entries):
        chain = M(entries)
        for r in range(1, 11):
            for word in enumerate_words(AB, r):
                if not is_allowed(word, chain):
                    with pytest.raises(ForbiddenWordError):
                        survival_denominator(word, chain)
                    continue
                tau = survival_denominator(word, chain)
                path_form, cycle_form = chain_forms(word, chain)
                assert tau == path_form == cycle_form, str(word)
                self._check_ints(tau)

    def test_long_words_near_one(self):
        p = 1 - Fraction(1, 10**9)
        measure = B([p, 1 - p])
        chain = M([p, 1 - p, 1 - p, p])
        words = [
            Word((0,) * 59 + (1,), AB),
            Word((0, 0, 1) * 20, AB),
            Word((0,) * 60, AB),
            Word(tuple((k * k + k // 3) % 2 for k in range(60)), AB),
        ]
        for word in words:
            assert survival_denominator(word, measure) == bernoulli_form(word, measure), str(word)
            path_form, cycle_form = chain_forms(word, chain)
            assert survival_denominator(word, chain) == path_form == cycle_form, str(word)
