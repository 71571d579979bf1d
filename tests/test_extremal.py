import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holerates import extremal, polynomials
from holerates.measures import BernoulliMeasure, MarkovChain, hole_measure, is_allowed, markov_weights
from holerates.polynomials import border_data, survival_denominator
from holerates.extremal import (
    Regime,
    brute_force_gamma_max,
    families,
    find_order_switch,
    gamma_max,
    gamma_max_two_symbols,
    markov_scan,
    max_rate_bounds,
    ordering_table,
    unbordered_lower_estimate,
    unbordered_rate_bounds,
)
from holerates.roots import _Core, compare, compare_with_rational, escape_rate
from holerates.words import AB, Word, enumerate_words

from _reference import border_data as reference_border_data
from _reference import brute_force_max, brute_period, ordering_by_sort, unbordered

B = BernoulliMeasure.from_rationals
M = MarkovChain.from_rationals
TOL = Fraction(1, 10**12)


def w(text):
    return Word.parse(text, AB)


class TestFamilies:
    def test_r3_tilted(self):
        fam = families(3, B(["3/5", "2/5"]))
        assert {str(word) for word in fam.max_unbordered} == {"aab", "baa"}
        assert fam.unbordered_measure == Fraction(18, 125)
        assert [str(word) for word in fam.max_measure] == ["aaa"]
        assert fam.top_measure == Fraction(27, 125)

    def test_disjoint_when_p_exceeds_q(self):
        for r in (2, 3, 4, 5):
            fam = families(r, B(["7/10", "3/10"]))
            assert not (set(fam.max_unbordered) & set(fam.max_measure))

    def test_equiprobable_families_intersect(self):
        fam = families(4, B(["1/2", "1/2"]))
        overlap = set(fam.max_unbordered) & set(fam.max_measure)
        assert w("aaab") in overlap

    def test_representatives(self):
        # a^(r-1) b and its reversal for the unbordered family, a^r for the
        # maximal-measure one; the tie at p = 1 - 1/(r+1) lists all three
        assert [str(word) for word in gamma_max(4, B(["4/5", "1/5"]), TOL).witnesses] == [
            "aaab", "baaa", "aaaa"
        ]
        assert [str(word) for word in gamma_max(6, B(["2/5", "3/5"]), TOL).witnesses] == [
            "bbbbba", "abbbbb"
        ]
        assert unbordered(gamma_max(6, B(["3/5", "2/5"]), TOL).witnesses[0])


class TestGammaMax:
    def test_crossing_below(self):
        report = gamma_max(2, B(["3/5", "2/5"]), TOL)
        assert {str(word) for word in report.witnesses} == {"ab", "ba"}
        assert math.isclose(report.gamma.gamma, math.log(5 / 3), rel_tol=1e-12)

    def test_crossing_above(self):
        report = gamma_max(2, B(["3/4", "1/4"]), TOL)
        assert report.regime is Regime.MEASURE_MAX
        assert [str(word) for word in report.witnesses] == ["aa"]

    def test_r4_large_p(self):
        report = gamma_max_two_symbols(4, Fraction(9, 10), TOL)
        assert report.regime is Regime.MEASURE_MAX
        assert [str(word) for word in report.witnesses] == ["aaaa"]

    def test_flat_stretch_value(self):
        report = gamma_max_two_symbols(5, Fraction(4, 5), TOL)
        assert report.regime is Regime.PRIME_FLAT
        assert report.gamma.exact and report.gamma.lower == Fraction(5, 4)

    def test_boundary_is_a_tie(self):
        report = gamma_max_two_symbols(4, Fraction(4, 5), TOL)
        assert report.regime is Regime.TIE
        assert {str(word) for word in report.witnesses} == {"aaab", "baaa", "aaaa"}
        assert report.gamma.exact and report.gamma.lower == Fraction(5, 4)

    def test_equiprobable_r3(self):
        report = gamma_max_two_symbols(3, Fraction(1, 2), TOL)
        best, _ = brute_force_gamma_max(3, B(["1/2", "1/2"]), TOL)
        assert compare(report.gamma, best) == 0

    def test_p_domain(self):
        with pytest.raises(ValueError):
            gamma_max_two_symbols(3, Fraction(1, 4))
        with pytest.raises(ValueError):
            gamma_max_two_symbols(3, Fraction(1))


class TestBruteForce:
    def test_argmax_below_crossing(self):
        _, witnesses = brute_force_gamma_max(2, B(["3/5", "2/5"]), TOL)
        assert {str(word) for word in witnesses} == {"ab", "ba"}

    def test_argmax_above_crossing(self):
        _, witnesses = brute_force_gamma_max(2, B(["3/4", "1/4"]), TOL)
        assert [str(word) for word in witnesses] == ["aa"]

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_matches_regime_table(self, r):
        for p in (Fraction(1, 2), Fraction(3, 5), Fraction(3, 4), Fraction(9, 10)):
            measure = B([p, 1 - p])
            best, witnesses = brute_force_gamma_max(r, measure, TOL)
            report = gamma_max_two_symbols(r, p, TOL)
            assert compare(best, report.gamma) == 0
            names = {word.letters for word in witnesses}
            assert all(word.letters in names for word in report.witnesses)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_three_symbols_matches_representatives(self, r):
        # the maximum over all words is attained by one of the two canonical
        # representatives, whatever the alphabet size
        measure = B(["1/2", "3/10", "1/5"])
        best, witnesses = brute_force_gamma_max(r, measure, TOL)
        report = gamma_max(r, measure, TOL)
        assert compare(best, report.gamma) == 0


def _brute_force_cases():
    cases = []
    for r in range(2, 9):
        ps = {Fraction(1, 2), Fraction(7, 10), Fraction(19, 20), 1 - Fraction(1, r), 1 - Fraction(1, r + 1)}
        cases += [(r, (p, 1 - p), TOL) for p in sorted(ps)]
    for probs in (("1/2", "3/10", "1/5"), ("1/4", "1/4", "1/4", "1/4")):
        cases += [(r, probs, TOL) for r in range(2, 6)]
    for tol in (Fraction(1, 10**3), Fraction(1, 10**30)):
        cases += [(6, ("7/10", "3/10"), tol), (4, ("1/2", "3/10", "1/5"), tol)]
    return [
        pytest.param(r, probs, tol, id=f"r{r}-{','.join(str(p).replace('/', ':') for p in probs)}-tol{float(tol):.0e}")
        for r, probs, tol in cases
    ]


#: The longest hole each alphabet size is searched to in the hypothesis tests.
MAX_R = {2: 8, 3: 5, 4: 4}


@st.composite
def _brute_force_inputs(draw, sizes=(2, 3, 4)):
    """(r, measure): a product measure over 2 to 4 letters and r up to
    ``MAX_R`` of its alphabet.  Its probabilities lie over a common
    denominator up to 100, or share the top one between two letters, or put
    r/(r+1) on one letter (where a^r has the rational root 1/p, and over two
    letters ties a^(r-1) b), or 1/1000 on every letter but one."""
    size = draw(st.sampled_from(sizes))
    r = draw(st.sampled_from(range(2, MAX_R[size] + 1)))
    kind = draw(st.sampled_from(["random", "tie", "crossing", "extreme"]))
    if kind == "extreme":
        nums, d = [1000 - (size - 1)] + [1] * (size - 1), 1000
    elif kind == "crossing":
        nums, d = [r * (size - 1)] + [1] * (size - 1), (r + 1) * (size - 1)
    else:
        d = draw(st.integers(size, 100))
        cuts = sorted(draw(st.lists(st.integers(1, d - 1), min_size=size - 1, max_size=size - 1, unique=True)))
        nums = [b - a for a, b in zip([0, *cuts], [*cuts, d])]
        if kind == "tie":  # the top two letters share the smaller of their weights
            nums.sort(reverse=True)
            nums[0] = nums[1]
            d = sum(nums)
    nums = draw(st.permutations(nums))
    return r, B([Fraction(n, d) for n in nums])


class TestPrunedBruteForce:
    """The pruned search returns what rating every class returns, with a
    root isolated only for the classes that can still win."""

    @given(_brute_force_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_rating_every_class_on_random_measures(self, case):
        r, measure = case
        best, witnesses = brute_force_gamma_max(r, measure, TOL)
        ref_best, ref_witnesses = brute_force_max(r, measure, TOL)
        assert (best.lower, best.upper, best.poly) == (ref_best.lower, ref_best.upper, ref_best.poly)
        assert witnesses == ref_witnesses

    @pytest.mark.parametrize(
        "r, p, most", [(16, Fraction(7, 10), 17), (10, Fraction(1, 2), 1024)], ids=["r16-7:10", "r10-1:2"]
    )
    def test_walk_reaches_only_holes_that_can_win(self, monkeypatch, r, p, most):
        # at 7/10 only a^16 and the 16 words with one b weigh enough to beat
        # the rate of a^16; at 1/2 every hole weighs the same and all are walked
        leaves = []
        walk = extremal.border_walk

        def counting(*args):
            for leaf in walk(*args):
                leaves.append(leaf[0])
                yield leaf

        monkeypatch.setattr(extremal, "border_walk", counting)
        brute_force_gamma_max(r, B([p, 1 - p]), TOL)
        assert len(leaves) == most

    def test_refuses_a_markov_chain(self):
        # the trinomial bound holds for product measures only
        with pytest.raises(TypeError, match="ordering_table.*markov-scan"):
            brute_force_gamma_max(4, M(["3/4", "1/4", "1/3", "2/3"]), TOL)

    @pytest.mark.parametrize("r,probs,tol", _brute_force_cases())
    def test_matches_rating_every_class(self, r, probs, tol):
        measure = B(list(probs))
        best, witnesses = brute_force_gamma_max(r, measure, tol)
        ref_best, ref_witnesses = brute_force_max(r, measure, tol)
        assert (best.lower, best.upper, best.poly) == (ref_best.lower, ref_best.upper, ref_best.poly)
        assert witnesses == ref_witnesses

    @pytest.mark.parametrize("p", [Fraction(7, 10), Fraction(3, 4)], ids=["7:10", "3:4"])
    def test_few_isolations_at_r7(self, monkeypatch, p):
        measure = B([p, 1 - p])
        distinct = {survival_denominator(w, measure) for w in enumerate_words(AB, 7)}
        isolations = TestOneRootPerClass._count(monkeypatch, "rate_from_denominator")
        brute_force_gamma_max(7, measure, TOL)
        assert len(distinct) == 42
        assert len(isolations) <= 4


class TestBounds:
    def test_upper_bound_at_threshold(self):
        for r in (2, 3, 5, 8):
            threshold = Fraction(1, r) * (1 - Fraction(1, r)) ** (r - 1)
            _, upper = unbordered_rate_bounds(r, threshold)
            assert math.isclose(upper, math.log(r / (r - 1)), rel_tol=1e-12)

    def test_r2_upper(self):
        _, upper = unbordered_rate_bounds(2, Fraction(1, 4))
        assert math.isclose(upper, math.log(2), rel_tol=1e-12)

    def test_rejects_above_threshold(self):
        with pytest.raises(ValueError, match="exceeds the existence threshold"):
            unbordered_rate_bounds(3, Fraction(5, 27))

    @pytest.mark.parametrize("r, m", [(3, 0), (3, Fraction(-1, 4)), (1, Fraction(1, 4))])
    def test_rejects_outside_the_domain(self, r, m):
        with pytest.raises(ValueError):
            unbordered_rate_bounds(r, m)

    def test_bounds_contain_certified_rate_for_unbordered_holes(self):
        measure = B(["7/10", "3/10"])
        for text in ("ab", "aab", "aabb", "ababb"):
            word = w(text)
            assert unbordered(word)
            lower, upper = unbordered_rate_bounds(len(word), hole_measure(word, measure))
            rate = escape_rate(word, measure, TOL)
            assert lower - 1e-12 <= rate.gamma <= upper + 1e-12

    def test_flat_regime_is_exact(self):
        lower, upper = max_rate_bounds(5, Fraction(4, 5))
        assert lower == upper
        assert math.isclose(lower, math.log(5 / 4), rel_tol=1e-15)

    def test_regime_three_formulas(self):
        p, r = Fraction(9, 10), 4
        lower, upper = max_rate_bounds(r, p)
        pf, qf = 0.9, 0.1
        assert math.isclose(
            lower, math.log(1 / pf) + math.log(1 / ((r + 1) * qf)) / r, rel_tol=1e-12
        )
        assert math.isclose(
            upper,
            math.log((-1 + pf + math.sqrt(qf**2 + 4 * pf * qf)) / (2 * pf * qf)),
            rel_tol=1e-12,
        )

    def test_sandwich_across_lengths(self):
        p = Fraction(17, 20)
        for r in range(2, 16):
            lower, upper = max_rate_bounds(r, p)
            gamma = gamma_max_two_symbols(r, p, TOL).gamma.gamma
            assert lower - 1e-12 <= gamma <= upper + 1e-12
            estimate = unbordered_lower_estimate(r, p)
            assert estimate <= gamma + 1e-12


class TestOrderingTable:
    def test_equiprobable_orders_by_min_period(self):
        rows = ordering_table(4, B(["1/2", "1/2"]), TOL)
        periods = [row.min_period for row in rows]
        assert periods == sorted(periods, reverse=True)
        # strictly between the period classes
        boundaries = {(4, 3), (3, 2), (2, 1)}
        for a, b in zip(rows, rows[1:]):
            if (a.min_period, b.min_period) in boundaries:
                assert compare(a.gamma, b.gamma) == 1

    def test_unbordered_words_top_their_measure_class(self):
        rows = ordering_table(5, B(["13/20", "7/20"]), TOL)
        by_measure = {}
        for row in rows:
            by_measure.setdefault(row.measure, []).append(row)
        for group in by_measure.values():
            if any(row.unbordered for row in group):
                best_rank = min(row.rank for row in group)
                top = [row for row in group if row.rank == best_rank]
                assert all(row.unbordered for row in top)

    @pytest.mark.parametrize(
        "r, measure",
        [
            (8, B(["1/2", "1/2"])),  # ties between classes of equal measure
            (5, B(["1/2", "3/10", "1/5"])),
            # the product measure as a chain: classes that differ only in end
            # letters share one root, so a group holds several classes
            (7, M(["1/2", "1/2", "1/2", "1/2"])),
            (7, M(["3/5", "2/5", "2/7", "5/7"])),
            (7, M(["0", "1", "1/2", "1/2"])),
        ],
        ids=["1/2 r8", "ternary r5", "uniform chain r7", "chain r7", "forbidden aa r7"],
    )
    def test_matches_one_sort_of_every_word(self, r, measure):
        rows = ordering_table(r, measure, TOL)
        expected = ordering_by_sort(r, measure, TOL)
        assert [(row.word, row.rank) for row in rows] == [(word, rank) for word, _, rank in expected]
        assert all(compare(row.gamma, rate) == 0 for row, (_, rate, _) in zip(rows, expected))

    def test_a_group_of_classes_merges_their_runs_by_letters(self, monkeypatch):
        # classes of equal rate list their words in letter order; with every
        # class in one group, as if all rates were equal, the merged runs are
        # every allowed word in letter order, all of rank 1
        chain = M(["3/5", "2/5", "2/7", "5/7"])
        monkeypatch.setattr(extremal, "_descending_groups", lambda rates: [0] * len(rates))
        rows = ordering_table(6, chain, TOL)
        assert [row.word.letters for row in rows] == [w.letters for w in enumerate_words(AB, 6)]
        assert {row.rank for row in rows} == {1}
        assert len({id(row.measure) for row in rows}) > 1

    def test_markov_rows_carry_cycle_weight(self):
        rows = ordering_table(3, M(["3/4", "1/4", "1/3", "2/3"]), TOL)
        assert all(row.cycle_weight is not None for row in rows)
        assert len(rows) == 8

    def test_r1(self):
        rows = ordering_table(1, B(["3/5", "2/5"]), TOL)
        assert [str(row.word) for row in rows] == ["a", "b"]
        assert math.isclose(rows[0].gamma.gamma, -math.log(2 / 5), rel_tol=1e-12)
        assert math.isclose(rows[1].gamma.gamma, -math.log(3 / 5), rel_tol=1e-12)


class TestCorrelationClasses:
    """Words grouped under equal border data must share everything a scan
    reads from the class's first word.  The last two cases have equal
    factors, so words of different symbol or transition counts share a
    class."""

    CASES = [
        (B(["1/2", "1/2"]), 10),
        (B(["7/10", "3/10"]), 10),
        (B(["1/2", "3/10", "1/5"]), 6),
        (M(["3/4", "1/4", "1/3", "2/3"]), 10),
        (M(["0", "1", "1/2", "1/2"]), 10),
        (B(["1/3", "1/3", "1/3"]), 6),
        (M(["1/2", "1/2", "1/2", "1/2"]), 10),
    ]

    @staticmethod
    def _weights(word, measure):
        if isinstance(measure, MarkovChain):
            weights = markov_weights(word, measure)
            return weights.measure, weights.cycle_weight
        return hole_measure(word, measure), None

    @pytest.mark.parametrize("measure, r_max", CASES)
    def test_equal_keys_share_denominator_and_weights(self, measure, r_max):
        markov = isinstance(measure, MarkovChain)
        for r in range(1, r_max + 1):
            classes = extremal._hole_classes(r, measure, 1 << 20)
            seen = [w.letters for c in classes for w in c.words]
            allowed = [
                w.letters
                for w in enumerate_words(measure.alphabet, r)
                if not markov or is_allowed(w, measure)
            ]
            assert sorted(seen) == allowed
            for c in classes:
                first = c.words[0]
                assert (c.measure, c.cycle_weight) == self._weights(first, measure)
                assert c.unbordered == unbordered(first)
                assert c.min_period == brute_period(first.letters)
                poly = survival_denominator(first, measure)
                for word in c.words[1:]:
                    assert survival_denominator(word, measure) == poly
                    assert self._weights(word, measure) == (c.measure, c.cycle_weight)
                    assert unbordered(word) == c.unbordered
                    assert brute_period(word.letters) == c.min_period

    @pytest.mark.parametrize(
        "measure, r_max",
        [
            (B(["1/2", "1/2"]), 9),
            (B(["7/10", "3/10"]), 9),
            (B(["1/2", "3/10", "1/5"]), 5),
            (M(["2/5", "3/5", "1/3", "2/3"]), 9),
            (M(["0", "1", "1/2", "1/2"]), 9),
        ],
    )
    def test_data_fed_denominator_is_the_word_fed_one(self, measure, r_max):
        # the denominator built from the walk's border data is the one built
        # from the class's first word, and the pruning test on the unreduced
        # integers answers as on the primitive ones, at points that include
        # exact roots (1/p, 2) and the shape certificate's end 1
        points = [Fraction(n, m) for n, m in ((1, 1), (9, 8), (4, 3), (10, 7), (3, 2), (5, 3), (2, 1), (5, 2))]
        for r in range(1, r_max + 1):
            for c in extremal._hole_classes(r, measure, 1 << 20):
                first = c.words[0]
                poly = survival_denominator(first, measure)
                ints = polynomials._denominator_ints(c.data, first.letters[0], first.letters[-1], measure)
                assert survival_denominator(first, measure, ints=ints) == poly
                for x in points:
                    assert _Core(ints).root_below(x) == _Core(poly.ints).root_below(x)

    WALK_MEASURES = [
        B(["3/5", "2/5"]),
        B(["1/2", "1/2"]),
        B(["1/2", "3/10", "1/5"]),
        B(["1/3", "1/3", "1/3"]),
        M(["3/4", "1/4", "1/3", "2/3"]),
        M(["0", "1", "1/2", "1/2"]),
        M(["1/2", "1/2", "1/2", "1/2"]),
    ]

    @given(st.sampled_from(WALK_MEASURES), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_walk_matches_reference_grouping(self, measure, r):
        # the prefix-tree walk against enumerate_words grouped by the
        # reference border data, with a chain's first and last letters,
        # forbidden words dropped
        chain = isinstance(measure, MarkovChain)
        groups: dict = {}
        for word in enumerate_words(measure.alphabet, r):
            data = reference_border_data(word, measure)
            if data is not None:
                key = (data, word.letters[0], word.letters[-1]) if chain else data
                groups.setdefault(key, []).append(word)
        classes = extremal._hole_classes(r, measure, 1 << 20)
        assert [c.words for c in classes] == list(groups.values())
        for c, key in zip(classes, groups):
            data = key[0] if chain else key
            first = c.words[0]
            assert border_data(first, measure) == data
            assert (c.measure, c.cycle_weight) == self._weights(first, measure)
            assert c.min_period == brute_period(first.letters)
            assert c.unbordered == (c.min_period == r)


class TestOneRootPerClass:
    """Ordering scans build one denominator per correlation class, brute
    force one per class it rates, each from the class's border data, and
    both isolate one root per distinct denominator."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        original = getattr(extremal, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(extremal, name, counting)
        return calls

    @pytest.mark.parametrize("measure", [B(["7/10", "3/10"]), M(["3/4", "1/4", "1/3", "2/3"])])
    def test_one_border_pass_per_word_and_no_fraction_product(self, monkeypatch, measure):
        # one prefix-tree walk reads each allowed word's border data once,
        # with no per-word border_data call, and a class's weights are read
        # from that data, with no product of Fractions over its letters
        walks, leaves = [], []
        walk = extremal.border_walk

        def counting(*args):
            walks.append(args)
            for leaf in walk(*args):
                leaves.append(leaf[0])
                yield leaf

        monkeypatch.setattr(extremal, "border_walk", counting)

        def refuse(*args):
            raise AssertionError("a scan called border_data")

        monkeypatch.setattr(polynomials, "border_data", refuse)
        products = []
        for name in ("__mul__", "__rmul__"):
            multiply = getattr(Fraction, name)
            monkeypatch.setattr(
                Fraction, name, lambda a, b, multiply=multiply: products.append(b) or multiply(a, b)
            )
        classes = extremal._hole_classes(10, measure, 1 << 20)
        allowed = [
            word.letters
            for word in enumerate_words(AB, 10)
            if not isinstance(measure, MarkovChain) or is_allowed(word, measure)
        ]
        assert len(walks) == 1
        assert leaves == allowed
        assert sorted(w.letters for c in classes for w in c.words) == allowed
        assert products == []
        assert classes[0].measure > 0

    def test_bernoulli_denominators_equal_distinct_ones(self, monkeypatch):
        measure = B(["7/10", "3/10"])
        distinct = {survival_denominator(w, measure) for w in enumerate_words(AB, 10)}
        builds = self._count(monkeypatch, "survival_denominator")
        rows = ordering_table(10, measure, TOL)
        assert len(rows) == 1024
        assert len(builds) == len(distinct)
        assert len({build[0].letters for build in builds}) == len(builds)

    def test_chain_roots_equal_distinct_denominators(self, monkeypatch):
        chain = M(["2/5", "3/5", "1/3", "2/3"])
        distinct = {survival_denominator(w, chain) for w in enumerate_words(AB, 9)}
        builds = self._count(monkeypatch, "survival_denominator")
        isolations = self._count(monkeypatch, "rate_from_denominator")
        ordering_table(9, chain, TOL)
        assert len(isolations) == len(distinct)
        assert len({iso[0] for iso in isolations}) == len(distinct)
        assert len(distinct) == len(builds)

    @pytest.mark.parametrize(
        "probs, r", [(["1/2", "1/2"], 10), (["7/10", "3/10"], 10), (["1/3", "1/3", "1/3"], 6)]
    )
    def test_product_measure_classes_are_the_distinct_denominators(self, probs, r):
        # 21 denominators at p = 1/2; grouping by symbol counts made 128 classes
        measure = B(probs)
        distinct = {survival_denominator(w, measure) for w in enumerate_words(measure.alphabet, r)}
        assert len(extremal._hole_classes(r, measure, 1 << 20)) == len(distinct)

    def test_brute_force_and_families_run_per_class(self, monkeypatch):
        # brute force builds a denominator only for a class it rates, and
        # rates each class once; a pruned class's test reads integers off
        # its border data
        measure = B(["3/5", "2/5"])
        builds = self._count(monkeypatch, "survival_denominator")
        isolations = self._count(monkeypatch, "rate_from_denominator")
        brute_force_gamma_max(8, measure, TOL)
        assert [iso[0] for iso in isolations] == [survival_denominator(b[0], measure) for b in builds]
        assert len({iso[0] for iso in isolations}) == len(isolations)  # the seed's class rated once
        assert len(builds) < len(extremal._hole_classes(8, measure, 1 << 20)) == 62
        builds.clear()
        families(8, measure)
        assert builds == []

    @pytest.mark.parametrize(
        "scan, measure",
        [
            (lambda m: brute_force_gamma_max(8, m, TOL), B(["7/10", "3/10"])),
            (lambda m: ordering_table(8, m, TOL), B(["7/10", "3/10"])),
            (lambda m: ordering_table(8, m, TOL), M(["3/4", "1/4", "1/3", "2/3"])),
        ],
        ids=["brute-force", "ordering-bernoulli", "ordering-chain"],
    )
    def test_scans_walk_no_word_again(self, monkeypatch, scan, measure):
        # every denominator a scan builds or tests reads the walk's border
        # data, so no class's word is walked a second time
        def refuse(*args):
            raise AssertionError("a scan called border_data")

        monkeypatch.setattr(polynomials, "border_data", refuse)
        assert scan(measure)


class TestOrderSwitch:
    def test_period_four_vs_five(self):
        lo, hi = find_order_switch(
            w("aabbaa"), w("baaaab"), Fraction(7, 10), Fraction(18, 25),
            width=Fraction(1, 10**5),
        )
        assert Fraction(7, 10) < lo <= hi < Fraction(18, 25)
        assert hi - lo <= Fraction(1, 10**5)

    def test_rejects_interval_without_sign_change(self):
        with pytest.raises(ValueError):
            find_order_switch(w("aabbaa"), w("baaaab"), Fraction(3, 4), Fraction(4, 5))


class TestMultiSymbol:
    @given(_brute_force_inputs(sizes=(3, 4)))
    @settings(max_examples=300, deadline=None)
    def test_one_of_the_two_families_is_maximal(self, case):
        # the reduction over three and four letters: a^(r-1) b or a^r reaches
        # the maximum over all holes of length r
        r, measure = case
        best, witnesses = brute_force_gamma_max(r, measure, TOL)
        report = gamma_max(r, measure, TOL)
        assert compare(best, report.gamma) == 0
        assert set(report.witnesses) <= set(witnesses)

    def test_small_second_probability(self):
        report = gamma_max(3, B(["7/10", "1/5", "1/10"]), TOL)
        assert report.regime is Regime.MEASURE_MAX
        assert report.reason == "q < p(1-p)"

    def test_large_p(self):
        report = gamma_max(3, B(["17/20", "1/10", "1/20"]), TOL)
        assert report.regime is Regime.MEASURE_MAX
        assert report.reason == "p >= 1 - 1/(r+1)"

    def test_near_two_symbol_case_prefers_unbordered(self):
        report = gamma_max(4, B(["3/5", "39/100", "1/100"]), TOL)
        assert report.regime in (Regime.PRIME_LOW, Regime.PRIME_FLAT)
        assert compare(report.gamma_unbordered, report.gamma_max_measure) == 1


class TestMarkovScan:
    def test_negative_eigenvalue_green_region(self):
        scan = markov_scan(3, M(["1/20", "19/20", "19/20", "1/20"]), TOL)
        assert scan.second_eigenvalue < 0
        assert {str(word) for word in scan.argmax} == {"aba", "bab"}
        assert all(check.holds for check in scan.pair_checks)

    def test_positive_eigenvalue_pairs(self):
        scan = markov_scan(3, M(["9/10", "1/10", "1/5", "4/5"]), TOL)
        assert scan.second_eigenvalue > 0
        strict = [c for c in scan.pair_checks if c.predicted == 1]
        assert strict and all(check.holds for check in scan.pair_checks)

    def test_equal_cycle_weight_unbordered_pairs_tie(self):
        scan = markov_scan(3, M(["3/4", "1/4", "1/3", "2/3"]), TOL)
        ties = [c for c in scan.pair_checks if c.predicted == 0]
        assert ties and all(check.observed == 0 for check in ties)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_run_pair_criterion_on_a_grid(self, r):
        # a a b^(r-2) (unbordered) against a b^(r-2) a (bordered, of the same
        # cycle weight): the bordered word leaks faster exactly when the
        # unbordered root is below 1/(1 + second eigenvalue)
        for num_a in (2, 10, 18):
            for num_b in (2, 10, 18):
                chain = M(
                    [
                        Fraction(num_a, 20),
                        1 - Fraction(num_a, 20),
                        1 - Fraction(num_b, 20),
                        Fraction(num_b, 20),
                    ]
                )
                two_runs = escape_rate(Word((0, 0) + (1,) * (r - 2), AB), chain, TOL)
                cycled = escape_rate(Word((0,) + (1,) * (r - 2) + (0,), AB), chain, TOL)
                threshold = 1 / (1 + chain.second_eigenvalue)
                assert compare(two_runs, cycled) == compare_with_rational(two_runs, threshold)
