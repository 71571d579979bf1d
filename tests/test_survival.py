import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from holerates import measures, polynomials, survival
from holerates.errors import AlphabetMismatchError, ForbiddenWordError
from holerates.measures import BernoulliMeasure, MarkovChain, hole_measure, is_allowed, markov_weights
from holerates.polynomials import RationalPolynomial, survival_denominator
from holerates.roots import escape_rate, smallest_positive_root
from holerates.survival import (
    RationalGenFun,
    SurvivalSeries,
    build_automaton,
    direct_enumeration,
    empirical_rate,
    genfun,
    genfun_from_word_equations,
    survival_series,
)
from holerates.words import AB, Alphabet, Word, enumerate_words

from _reference import (
    fraction_genfun,
    fraction_series,
    fraction_word_equations,
    literal_totals,
    markov_weighted_autocorrelation,
    monomial,
    over_powers,
    poly_add,
    poly_mul,
    poly_sub,
    series_terms,
    weighted_autocorrelation,
)

B = BernoulliMeasure.from_rationals
M = MarkovChain.from_rationals
P35 = B(["3/5", "2/5"])
HALF = B(["1/2", "1/2"])
ABC = Alphabet.of_size(3)


#: The measures the enumeration walk is checked under, chains included.
WALK_MEASURES = [
    P35,
    B(["7/10", "3/10"]),
    B(["1/2", "3/10", "1/5"], ABC),
    M(["3/4", "1/4", "1/3", "2/3"]),
    M(["0", "1", "1/2", "1/2"]),
    M(["7/10", "3/10", "7/10", "3/10"]),
]


def w(text, alphabet=AB):
    return Word.parse(text, alphabet)


def totals(word, measure, length):
    """The automaton's b^n times the weight at each length n <= ``length``."""
    return build_automaton(word, measure).integer_totals(length)


class TestAutomaton:
    def test_kmp_on_aa(self):
        auto = build_automaton(w("aa"), HALF)
        assert auto.transitions[1][1] == 0  # b resets
        assert auto.transitions[1][0] == 2  # second a absorbs

    def test_kmp_on_ab_keeps_border(self):
        auto = build_automaton(w("ab"), HALF)
        assert auto.transitions[1][0] == 1  # another a stays on the border

    @pytest.mark.parametrize("size,max_r", [(2, 9), (3, 6), (4, 4)])
    def test_table_reads_longest_prefix_ending_the_input(self, size, max_r):
        # from state s, letter c moves to the longest prefix of the word
        # that ends word[:s] + (c,), found by comparing strings
        alphabet = Alphabet.of_size(size)
        uniform = B([Fraction(1, size)] * size, alphabet)
        for r in range(1, max_r + 1):
            for word in enumerate_words(alphabet, r):
                letters = word.letters
                table = build_automaton(word, uniform).transitions
                for s in range(r):
                    ends = [letters[:s] + (c,) for c in range(size)]
                    assert table[s] == tuple(
                        max(k for k in range(s + 2) if text[s + 1 - k :] == letters[:k]) for text in ends
                    )
                assert table[r] == (r,) * size

    def test_forbidden_word(self):
        with pytest.raises(ForbiddenWordError):
            build_automaton(w("aa"), M(["0", "1", "1/2", "1/2"]))

    def test_word_from_another_alphabet(self):
        ternary = B(["1/2", "3/10", "1/5"])
        with pytest.raises(AlphabetMismatchError):
            build_automaton(w("ab"), ternary)
        with pytest.raises(AlphabetMismatchError):
            survival_series(w("ab"), ternary, 5)
        with pytest.raises(AlphabetMismatchError):
            build_automaton(w("ab", ABC), M(["3/4", "1/4", "1/3", "2/3"]))


class TestSurvivalSeries:
    def test_single_letter_is_geometric(self):
        series = survival_series(w("a"), P35, 6)
        assert list(series.values) == [Fraction(2, 5) ** (n + 1) for n in range(7)]

    def test_aa_head(self):
        series = survival_series(w("aa"), HALF, 4)
        assert series.values[0] == Fraction(3, 4)

    def test_nonincreasing_validated(self):
        # b^(n+r) p_n with b = 4, r = 1: p = 1/2, 3/4 and p = 1/2, 0
        with pytest.raises(ValueError):
            SurvivalSeries((2, 12), 4, 1)
        with pytest.raises(ValueError):
            SurvivalSeries((2, 0), 4, 1)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_always_nonincreasing(self, letters):
        series = survival_series(Word(tuple(letters), AB), P35, 12)
        assert all(a >= b for a, b in zip(series.values, series.values[1:]))


def _fraction_totals(automaton, max_length):
    """Reference for ``integer_totals`` over b^n: the automaton stepped one
    symbol at a time in plain Fraction arithmetic."""
    measure, r = automaton.measure, len(automaton.word)
    chain = isinstance(measure, MarkovChain)
    vec = {(0, None): Fraction(1)}  # (prefix matched, last symbol read)
    totals = [sum(vec.values())]
    for _ in range(max_length):
        nxt = {}
        for (state, last), weight in vec.items():
            for c, target in enumerate(automaton.transitions[state]):
                if target == r:
                    continue
                if not chain:
                    step = measure.probs[c]
                elif last is None:
                    step = measure.stationary[c]
                else:
                    step = measure.matrix[last][c]
                nxt[target, c] = nxt.get((target, c), Fraction(0)) + weight * step
        vec = nxt
        totals.append(sum(vec.values(), Fraction(0)))
    return totals


class TestIntegerAutomaton:
    """The automaton steps integer weights over b^n; its totals over b^n
    must be the same Fractions as a plain Fraction stepping."""

    NEAR_ONE = 1 - Fraction(1, 10**9)

    @pytest.mark.parametrize(
        "measure",
        [
            B([NEAR_ONE, 1 - NEAR_ONE]),
            M([NEAR_ONE, 1 - NEAR_ONE, 1 - NEAR_ONE, NEAR_ONE]),
            M(["0", "1", "1/2", "1/2"]),
            M(["2/5", "3/5", "1/3", "2/3"]),
            B(["1/2", "3/10", "1/5"], ABC),
        ],
        ids=["bernoulli-near-one", "chain-near-one", "chain-forbidden-aa", "chain", "ternary"],
    )
    def test_matches_fraction_stepping(self, measure):
        for r in range(1, 6 if measure.alphabet == AB else 4):
            for word in enumerate_words(measure.alphabet, r):
                if isinstance(measure, MarkovChain) and not is_allowed(word, measure):
                    continue
                automaton = build_automaton(word, measure)
                ints = automaton.integer_totals(30)
                assert over_powers(ints, measure) == _fraction_totals(automaton, 30), str(word)
                assert all(type(t) is int for t in ints)

    @given(
        st.sampled_from(range(len(WALK_MEASURES))),
        st.lists(st.integers(0, 2), min_size=1, max_size=4),
        st.integers(0, 8),
    )
    @example(3, [0], 8)  # chain holes of one letter: state 0 reads the row
    @example(3, [1], 8)  # of the letter the word does not start with
    @example(4, [0], 8)
    @example(4, [1], 8)  # with aa forbidden, nothing avoids b for long
    @settings(max_examples=60, deadline=None)
    def test_equals_literal_enumeration(self, index, letters, length):
        # every word listed by itertools and weighed in Fractions: no
        # transitions, failure links or integer factors
        measure = WALK_MEASURES[index]
        word = Word(tuple(c % measure.alphabet.size for c in letters), measure.alphabet)
        assume(not isinstance(measure, MarkovChain) or is_allowed(word, measure))
        b = measure.integer_factors[0]
        expected = [x * b**n for n, x in enumerate(literal_totals(word, measure, length))]
        assert build_automaton(word, measure).integer_totals(length) == expected


class TestDirectEnumeration:
    def test_short_lengths_have_full_measure(self):
        assert direct_enumeration(w("aabb"), P35, 3) == [1, 5, 25, 125]

    def test_ab_length_two(self):
        # b^2 (1 - pq) with p, q = 3/5, 2/5
        assert direct_enumeration(w("ab"), P35, 2) == [1, 5, 25 - 3 * 2]

    @pytest.mark.parametrize(
        "measure, max_r, length",
        [
            (P35, 5, 12),
            (B(["7/10", "3/10"]), 5, 12),
            (B(["1/2", "3/10", "1/5"], ABC), 4, 8),
            (M(["0", "1", "1/2", "1/2"]), 5, 12),
        ],
        ids=["3/5", "7/10", "ternary", "chain-forbidden-aa"],
    )
    def test_one_walk_matches_automaton_at_every_length(self, measure, max_r, length):
        for r in range(1, max_r + 1):
            for word in enumerate_words(measure.alphabet, r):
                if isinstance(measure, MarkovChain) and not is_allowed(word, measure):
                    continue
                assert direct_enumeration(word, measure, length) == totals(word, measure, length), str(word)

    def test_matches_automaton_two_symbols(self):
        for text in ("a", "ab", "aab", "abba", "aabba"):
            word = w(text)
            series = survival_series(word, P35, 12 - len(word))
            assert direct_enumeration(word, P35, 12)[len(word) :] == list(series.totals)

    def test_matches_automaton_markov(self):
        chain = M(["3/4", "1/4", "1/3", "2/3"])
        for text in ("ab", "bba", "abab"):
            word = w(text)
            series = survival_series(word, chain, 10 - len(word))
            assert direct_enumeration(word, chain, 10)[len(word) :] == list(series.totals)

    def test_matches_automaton_three_symbols(self):
        measure = B(["1/2", "3/10", "1/5"])
        for text in ("ab", "abc", "cab"):
            word = w(text, ABC)
            assert direct_enumeration(word, measure, 7) == totals(word, measure, 7)

    def test_product_chain_enumerates_as_its_product_measure(self):
        chain = M(["3/5", "2/5", "3/5", "2/5"])
        for r in range(1, 4):
            for word in enumerate_words(AB, r):
                assert direct_enumeration(word, chain, 8) == direct_enumeration(
                    word, BernoulliMeasure(chain.alphabet, chain.matrix[0]), 8
                )

    def test_forbidden_transition_chain_matches_automaton(self):
        chain = M(["0", "1", "1/2", "1/2"])
        for text in ("ab", "bb", "bab", "abbab"):
            word = w(text)
            assert direct_enumeration(word, chain, 14) == totals(word, chain, 14)

    def test_word_from_another_alphabet(self):
        with pytest.raises(AlphabetMismatchError):
            direct_enumeration(w("ab"), B(["1/2", "3/10", "1/5"]), 5)
        with pytest.raises(AlphabetMismatchError):
            direct_enumeration(w("ab", ABC), M(["3/4", "1/4", "1/3", "2/3"]), 5)

    def test_cap(self):
        # at length n the walk holds A^min(n, k) window states, k = r - 1
        # (at least 1 when the rows differ); it stops before the first length whose
        # count exceeds the cap
        full = totals(w("aab"), P35, 11)
        assert direct_enumeration(w("aab"), P35, 11, cap=4) == full
        assert direct_enumeration(w("aab"), P35, 11, cap=3) == full[:2]
        assert direct_enumeration(w("aab"), P35, 11, cap=2) == full[:2]
        assert direct_enumeration(w("aab"), P35, 11, cap=1) == [1]
        assert direct_enumeration(w("aab"), P35, 11, cap=0) == []
        ternary = B(["1/2", "3/10", "1/5"], ABC)
        full = totals(w("abc", ABC), ternary, 6)
        assert direct_enumeration(w("abc", ABC), ternary, 6, cap=9) == full
        assert direct_enumeration(w("abc", ABC), ternary, 6, cap=8) == full[:2]
        # r = 1: one state for a product measure, a chain whose rows differ
        # keeps the last letter
        assert direct_enumeration(w("a"), P35, 5, cap=1) == totals(w("a"), P35, 5)
        chain = M(["3/4", "1/4", "1/3", "2/3"])
        assert direct_enumeration(w("a"), chain, 5, cap=2) == totals(w("a"), chain, 5)
        assert direct_enumeration(w("a"), chain, 5, cap=1) == [1]
        # equal rows: no letter picks the next factor's row, so one state
        # reaches every length, as for the product measure
        equal, product = M(["7/10", "3/10", "7/10", "3/10"]), B(["7/10", "3/10"])
        assert direct_enumeration(w("a"), equal, 5, cap=1) == direct_enumeration(w("a"), product, 5, cap=1)
        assert direct_enumeration(w("a"), equal, 5, cap=1) == totals(w("a"), product, 5)

    def test_two_hundred_letters_match_automaton(self):
        # only b^n avoids a: one live state, while the words grow long
        chain = M(["3/4", "1/4", "1/3", "2/3"])
        assert direct_enumeration(w("a"), chain, 200) == totals(w("a"), chain, 200)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_automaton_at_every_length(self, data):
        measure = data.draw(st.sampled_from(WALK_MEASURES))
        size = measure.alphabet.size
        letters = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8))
        word = Word(tuple(letters), measure.alphabet)
        assume(not isinstance(measure, MarkovChain) or is_allowed(word, measure))
        length = data.draw(st.integers(0, 12))
        assert direct_enumeration(word, measure, length) == totals(word, measure, length)

    @given(
        st.sampled_from(range(len(WALK_MEASURES))),
        st.lists(st.integers(0, 2), min_size=1, max_size=4),
        st.integers(0, 8),
        st.booleans(),
    )
    @example(3, [0], 8, False)  # a chain hole of one letter: k = 1, and each
    @example(3, [0], 8, True)  # fold drops the letter that picked the row
    @example(5, [0], 8, False)  # equal rows: k = 0, one state at every length
    @settings(max_examples=60, deadline=None)
    def test_equals_literal_enumeration(self, index, letters, length, short):
        # every word of each length listed and weighed in Fractions: no
        # window states, integer factors or automaton
        measure = WALK_MEASURES[index]
        size = measure.alphabet.size
        word = Word(tuple(c % size for c in letters), measure.alphabet)
        # the last letter is kept only when it picks the next factor's row
        k = max(len(word) - 1, int(len(set(measure.integer_factors[2])) > 1))
        cap = size**k - short
        reach = next((n for n in range(length + 1) if size ** min(n, k) > cap), length + 1)
        expected = literal_totals(word, measure, length)[:reach]
        assert over_powers(direct_enumeration(word, measure, length, cap), measure) == list(expected)

    def test_walk_uses_no_failure_links(self, monkeypatch):
        cases = [(w("abab"), P35), (w("abc", ABC), B(["1/2", "3/10", "1/5"], ABC)),
                 (w("bab"), M(["3/4", "1/4", "1/3", "2/3"]))]
        expected = [totals(word, m, 9) for word, m in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the enumeration oracle used the automaton's machinery")

        for module, name in ((survival, "build_automaton"), (polynomials, "border_walk"),
                             (polynomials, "border_data")):
            monkeypatch.setattr(module, name, refuse)
        assert [direct_enumeration(word, m, 9) for word, m in cases] == expected


class TestGenFun:
    def test_bernoulli_closed_form_aa(self):
        gf = genfun(w("aa"), HALF)
        assert gf.denominator == survival_denominator(w("aa"), HALF)
        assert gf.numerator == RationalPolynomial([Fraction(3, 4), Fraction(1, 4)])
        series = survival_series(w("aa"), HALF, 20)
        assert series_terms(gf.series(21)) == list(series.values)

    @pytest.mark.parametrize(
        "measure,alphabet,max_r",
        [(P35, AB, 5), (B(["1/2", "3/10", "1/5"]), ABC, 3)],
    )
    def test_series_match_everywhere(self, measure, alphabet, max_r):
        for r in range(1, max_r + 1):
            for word in enumerate_words(alphabet, r):
                gf = genfun(word, measure)
                assert gf.denominator == survival_denominator(word, measure)
                series = survival_series(word, measure, 15)
                assert series_terms(gf.series(16)) == list(series.values)

    def test_markov_series_match(self):
        chain = M(["3/4", "1/4", "1/3", "2/3"])
        for r in range(1, 5):
            for word in enumerate_words(AB, r):
                gf = genfun(word, chain)
                series = survival_series(word, chain, 15)
                assert series_terms(gf.series(16)) == list(series.values)

    def test_chain_genfun_builds_no_automaton(self, monkeypatch):
        cases = [
            (word, chain)
            for chain in (M(["3/4", "1/4", "1/3", "2/3"]), M(["0", "1", "1/2", "1/2"]))
            for r in range(1, 7)
            for word in enumerate_words(AB, r)
            if is_allowed(word, chain)
        ]
        # the reference fits the automaton's series, so it runs first
        expected = [fraction_genfun(word, chain) for word, chain in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("a chain's generating function built an automaton")

        monkeypatch.setattr(survival, "build_automaton", refuse)
        monkeypatch.setattr(survival.AvoidanceAutomaton, "integer_totals", refuse)
        pairs = [(gf.numerator, gf.denominator) for gf in (genfun(*case) for case in cases)]
        assert pairs == expected

    def test_genfun_builds_no_closed_form_denominator(self, monkeypatch):
        cases = [
            (w("aabbaa"), P35),
            (w("abca", ABC), B(["1/2", "3/10", "1/5"], ABC)),
            (w("aabaa"), M(["3/5", "2/5", "2/7", "5/7"])),
            (w("abab"), M(["0", "1", "1/2", "1/2"])),
        ]
        expected = [fraction_genfun(word, measure) for word, measure in cases]
        closed_form = polynomials.survival_denominator

        def refuse(*args, **kwargs):
            raise AssertionError("the generating function built the closed-form denominator")

        # every package module that holds the closed form, under any name
        for name, module in list(sys.modules.items()):
            if name.startswith("holerates"):
                for key, value in list(vars(module).items()):
                    if value is closed_form:
                        monkeypatch.setattr(module, key, refuse)
        pairs = [(gf.numerator, gf.denominator) for gf in (genfun(*case) for case in cases)]
        assert pairs == expected

    def test_genfun_reads_the_hole_weight_off_the_factor_table(self, monkeypatch):
        cases = [
            (w("aabbaa"), P35),
            (w("abca", ABC), B(["1/2", "3/10", "1/5"], ABC)),
            (w("baab"), M(["3/4", "1/4", "1/3", "2/3"])),
            (w("abab"), M(["0", "1", "1/2", "1/2"])),
        ]
        expected = [fraction_genfun(word, measure) for word, measure in cases]
        subshift = cases[3][1]
        for _, measure in cases:
            measure.integer_factors  # the table is cached before the Fraction paths go
        fraction_paths = {measures.hole_measure, measures.markov_weights, measures.stationary_distribution}

        def refuse(*args, **kwargs):
            raise AssertionError("the generating function weighed the hole in Fractions")

        # every package module that holds a Fraction path, under any name
        for name, module in list(sys.modules.items()):
            if name.startswith("holerates"):
                for key, value in list(vars(module).items()):
                    if any(value is f for f in fraction_paths):
                        monkeypatch.setattr(module, key, refuse)
        pairs = [(gf.numerator, gf.denominator) for gf in (genfun(*case) for case in cases)]
        assert pairs == expected
        with pytest.raises(ForbiddenWordError) as raised:
            genfun(w("aa"), subshift)
        assert str(raised.value) == "word aa uses a zero-probability transition"

    def test_pole_agrees_with_certified_root(self):
        word = w("aabbaa")
        gf = genfun(word, P35)
        rate = escape_rate(word, P35)
        pole = smallest_positive_root(gf.denominator, candidates=P35.root_candidates)
        assert pole.lower <= rate.upper and rate.lower <= pole.upper


def _fraction_series(gf, count):
    return fraction_series(gf.numerator, gf.denominator, count)


def _gf(num, den):
    return RationalGenFun(
        RationalPolynomial([Fraction(c) for c in num]),
        RationalPolynomial([Fraction(c) for c in den]),
    )


class TestIntegerSeries:
    @pytest.mark.parametrize(
        "num,den",
        [
            (["1", "1/2"], ["1", "-1/3", "1/5"]),  # d0 = 1
            (["2/7", "-3"], ["3", "-5/2", "1/4"]),  # d0 = 3
            (["1", "-2"], ["-5/3", "1", "2/9"]),  # negative d0
            (["-4"], ["-1", "0", "0", "7/11"]),  # negative d0, gap in d
            (["1", "2", "3", "4", "5/6"], ["1", "-1/2"]),  # numerator longer
            ([], ["2/3", "1"]),  # zero numerator
        ],
    )
    def test_matches_fraction_recurrence(self, num, den):
        gf = _gf(num, den)
        for count in (0, 1, 3, 25):
            assert series_terms(gf.series(count)) == _fraction_series(gf, count)
        assert gf.series(0)[0] == []
        q, d0 = gf.series(25)
        assert all(type(c) is int for c in [*q, d0])

    @pytest.mark.parametrize("den", [["0", "1"], ["0"], []])
    def test_vanishing_constant_term_raises(self, den):
        with pytest.raises(ValueError):
            _gf(["1"], den).series(3)

    def test_ternary_hole(self):
        measure = B(["1/2", "3/10", "1/5"])
        for text in ("aba", "abca", "ccc"):
            gf = genfun(w(text, ABC), measure)
            assert series_terms(gf.series(30)) == _fraction_series(gf, 30)

    def test_chain_with_zero_entry(self):
        chain = M(["0", "1", "1/2", "1/2"])
        checked = 0
        for r in range(1, 5):
            for word in enumerate_words(AB, r):
                if not is_allowed(word, chain):
                    continue
                gf = genfun(word, chain)
                assert series_terms(gf.series(30)) == _fraction_series(gf, 30)
                checked += 1
        assert checked > 5


class TestWordEquations:
    """The solved generating functions are numerators over one common
    denominator D; substituted back, each counting identity is a polynomial
    identity after clearing D."""

    @staticmethod
    def _assert_product_identities(word, solution, mu, border):
        # one distinct row, so no split by last letter:
        # (1 - z) * avoiding + terminal = 1 ;  mu z^r * avoiding = border * terminal
        sigma, terminal, den = solution.avoiding, solution.terminal, solution.denominator
        assert solution.avoiding_by_last is None
        assert poly_add(poly_mul(RationalPolynomial([1, -1]), sigma), terminal) == den
        assert poly_mul(monomial(len(word), mu), sigma) == poly_mul(border, terminal)

    def test_bernoulli_identities(self):
        for text in ("a", "ab", "aab", "abba", "aabbaa"):
            word = w(text)
            solution = genfun_from_word_equations(word, P35)
            self._assert_product_identities(
                word, solution, hole_measure(word, P35), weighted_autocorrelation(word, P35)
            )

    def test_bernoulli_sigma_closed_form(self):
        # avoiding / D = border / tau, the closed form with the survival denominator
        for text in ("ab", "aab", "abba"):
            word = w(text)
            solution = genfun_from_word_equations(word, P35)
            tau = survival_denominator(word, P35)
            border = weighted_autocorrelation(word, P35)
            assert poly_mul(solution.avoiding, tau) == poly_mul(border, solution.denominator)

    def test_markov_identities(self):
        # the uniform chain has one distinct row: the product identities,
        # weighed by the chain's own path weights
        uniform = M(["1/2", "1/2", "1/2", "1/2"])
        for r in range(1, 5):
            for word in enumerate_words(AB, r):
                self._assert_product_identities(
                    word,
                    genfun_from_word_equations(word, uniform),
                    markov_weights(word, uniform).measure,
                    markov_weighted_autocorrelation(word, uniform)[0],
                )
        chains = [
            M(["3/4", "1/4", "1/3", "2/3"]),
            M(["0", "1", "1/2", "1/2"]),
        ]

        for chain in chains:
            pi, x = chain.matrix, chain.stationary
            for r in range(1, 5):
                for word in enumerate_words(AB, r):
                    if not is_allowed(word, chain):
                        continue
                    solution = genfun_from_word_equations(word, chain)
                    sigma_a, sigma_b = solution.avoiding_by_last
                    terminal, den = solution.terminal, solution.denominator
                    last, first = word.letters[-1], word.letters[0]
                    path = Fraction(1)
                    for i, j in zip(word.letters, word.letters[1:]):
                        path *= pi[i][j]
                    border, _ = markov_weighted_autocorrelation(word, chain)
                    # appending a letter c to an avoiding word ending in a or b
                    for c, sigma_c in ((0, sigma_a), (1, sigma_b)):
                        lhs = poly_add(
                            poly_mul(monomial(1, x[c]), den),
                            poly_mul(sigma_a, monomial(1, pi[0][c])),
                            poly_mul(sigma_b, monomial(1, pi[1][c])),
                        )
                        assert poly_sub(lhs, sigma_c) == (terminal if last == c else RationalPolynomial([]))
                    # appending the whole pattern to an avoiding word (or to nothing)
                    lhs_w = poly_add(
                        poly_mul(monomial(r, x[first] * path), den),
                        poly_mul(sigma_a, monomial(r, pi[0][first] * path)),
                        poly_mul(sigma_b, monomial(r, pi[1][first] * path)),
                    )
                    assert lhs_w == poly_mul(terminal, border)
                    # the empty word plus the two halves
                    assert solution.avoiding == poly_add(den, sigma_a, sigma_b)

    @pytest.mark.parametrize("p", ["1/2", "7/10", "1/3"])
    def test_chain_with_equal_rows_solves_the_product_system(self, p):
        q = 1 - Fraction(p)
        chain, product = M([p, q, p, q]), B([p, q])
        for r in range(1, 9):
            for word in enumerate_words(AB, r):
                solution = genfun_from_word_equations(word, chain)
                assert solution == genfun_from_word_equations(word, product), str(word)
                assert solution.avoiding_by_last is None

    def test_survival_from_equations_matches_automaton(self):
        for measure in (P35, M(["3/4", "1/4", "1/3", "2/3"]), M(["0", "1", "1/2", "1/2"])):
            for text in ("ab", "bab", "aabba"):
                word = w(text)
                if isinstance(measure, MarkovChain) and not is_allowed(word, measure):
                    continue
                solution = genfun_from_word_equations(word, measure)
                gf = solution.survival_genfun(len(word))
                assert gf.denominator == solution.denominator
                series = survival_series(word, measure, 14)
                assert series_terms(gf.series(15)) == list(series.values)


class TestWordFromAnotherAlphabet:
    """Neither generating function reads the alphabet off the border data,
    so each checks it."""

    @pytest.mark.parametrize("build", [genfun, genfun_from_word_equations])
    def test_binary_word_under_a_ternary_measure(self, build):
        with pytest.raises(AlphabetMismatchError):
            build(w("abab"), B(["1/2", "3/10", "1/5"]))

    @pytest.mark.parametrize("build", [genfun, genfun_from_word_equations])
    def test_ternary_word_under_a_chain(self, build):
        with pytest.raises(AlphabetMismatchError):
            build(w("abab", ABC), M(["3/4", "1/4", "1/3", "2/3"]))


#: The measures the integer oracles are checked under against their Fraction
#: forms; the second chain forbids aa, which can drop a denominator's degree,
#: and the four-letter product lumps four letters into its one row.
FORM_MEASURES = [
    P35,
    B(["1/2", "3/10", "1/5"], ABC),
    M(["3/4", "1/4", "1/3", "2/3"]),
    M(["0", "1", "1/2", "1/2"]),
    B(["2/5", "3/10", "1/5", "1/10"], Alphabet.of_size(4)),
]


class TestAgainstFractionForms:
    """The generating function and the word equations, run on integer
    coefficient lists, against the same constructions in Fraction
    arithmetic from the autocorrelation bits (``tests/_reference.py``)."""

    @staticmethod
    def _word(data, measure):
        size = measure.alphabet.size
        letters = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=12))
        word = Word(tuple(letters), measure.alphabet)
        assume(not isinstance(measure, MarkovChain) or is_allowed(word, measure))
        return word

    @given(st.sampled_from(FORM_MEASURES), st.data())
    @settings(max_examples=200, deadline=None)
    def test_genfun(self, measure, data):
        word = self._word(data, measure)
        gf = genfun(word, measure)
        assert (gf.numerator, gf.denominator) == fraction_genfun(word, measure)

    @given(st.sampled_from(FORM_MEASURES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_word_equations(self, measure, data):
        word = self._word(data, measure)
        solution = genfun_from_word_equations(word, measure)
        avoiding, terminal, by_last, det = fraction_word_equations(word, measure)
        fields = (solution.avoiding, solution.terminal, solution.avoiding_by_last, solution.denominator)
        assert fields == (avoiding, terminal, by_last, det)
        r = len(word)
        numerator = solution.survival_genfun(r).numerator
        assert series_terms(solution.survival_genfun(r).series(r + 20)) == fraction_series(
            numerator, det, r + 20
        ) == over_powers(totals(word, measure, 2 * r + 19), measure)[r:]

    def test_degree_drop(self):
        # abbab forbids nothing under the chain without aa, yet its
        # denominator has degree 4
        word, chain = w("abbab"), FORM_MEASURES[3]
        gf = genfun(word, chain)
        assert gf.denominator.degree == 4
        assert (gf.numerator, gf.denominator) == fraction_genfun(word, chain)


class TestEmpiricalRate:
    def test_single_letter_ratio_is_exact(self):
        series = survival_series(w("a"), P35, 30)
        estimate = empirical_rate(series)
        assert abs(estimate.ratio_estimate + math.log(2 / 5)) < 1e-12
        assert estimate.converged

    def test_aa_converges_to_certified_rate(self):
        series = survival_series(w("aa"), HALF, 200)
        estimate = empirical_rate(series)
        assert abs(estimate.ratio_estimate - math.log(math.sqrt(5) - 1)) < 1e-6
        assert estimate.converged

    def test_cumulative_estimator_reported(self):
        series = survival_series(w("aa"), HALF, 50)
        estimate = empirical_rate(series)
        assert 0 < estimate.cumulative_estimate < 1

    def test_needs_enough_terms(self):
        with pytest.raises(ValueError):
            empirical_rate(survival_series(w("aa"), HALF, 5))
