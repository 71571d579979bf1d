import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from holerates import roots
from holerates.errors import NoPositiveRootError
from holerates.extremal import brute_force_gamma_max, markov_scan, ordering_table
from holerates.measures import BernoulliMeasure, MarkovChain
from holerates.polynomials import RationalPolynomial, _primitive, survival_denominator
from holerates.roots import (
    DEFAULT_TOL,
    RootResult,
    _Core,
    _Enclosure,
    _divide_out,
    _sign_at,
    compare,
    compare_with_rational,
    escape_rate,
    rate_from_denominator,
    refine,
    smallest_positive_root,
)
from holerates.words import AB, Alphabet, Word

from _reference import (
    count_roots,
    dyadic_value,
    horner,
    monomial,
    no_certificate,
    plain_bisection,
    poly_add,
    poly_mul,
    rate_by_narrowing,
    slope_bound,
    trinomial,
)

B = BernoulliMeasure.from_rationals
P35 = B(["3/5", "2/5"])
HALF = B(["1/2", "1/2"])


def w(text):
    return Word.parse(text, AB)


def poly(*coeffs):
    return RationalPolynomial([Fraction(c) for c in coeffs])


class TestSturmCounting:
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
    def test_trinomial_root_counts(self, r):
        threshold = Fraction(1, r) * (1 - Fraction(1, r)) ** (r - 1)
        for m, count in ((threshold / 2, 2), (threshold, 1), (threshold * 2, 0)):
            # every root of m z^r - z + 1 lies below the Cauchy bound 1 + 1/m
            assert count_roots(trinomial(r, m), 0, 1 + 1 / m) == count

    def test_interval_counts(self):
        tau = survival_denominator(w("ab"), P35)  # roots 5/3 and 5/2
        assert count_roots(tau, 0, Fraction(3, 2)) == 0
        assert count_roots(tau, 0, 2) == 1
        assert count_roots(tau, 0, 3) == 2


class TestSignAt:
    """``_sign_at`` against exact evaluation; powers of two take a shift
    path of their own."""

    @staticmethod
    def _check(ints, num, den):
        value = horner(RationalPolynomial(ints), Fraction(num, den))
        assert _sign_at(ints, num, den) == (value > 0) - (value < 0)

    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12).filter(any),
        num=st.integers(0, 2**70),
        k=st.integers(0, 200),
        odd=st.integers(1, 10**6),
        as_root=st.booleans(),
    )
    def test_matches_exact_evaluation(self, coeffs, num, k, odd, as_root):
        for den in (1 << k, (2 * odd + 1) << (k % 7)):  # dyadic, then not
            ints = list(coeffs)
            if as_root:
                # times (den z - num): num/den is then a root
                ints = [0] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    ints[i] -= c * num
                    ints[i + 1] += c * den
            self._check(ints, num, den)

    def test_large_dyadic_exponent(self):
        # z^3 - 2 changes sign between 2^(1/3) - 2^-300 and 2^(1/3) + 2^-300
        k = 300
        below = _int_cbrt(2 << 3 * k)
        for num in (below, below + 1, 0, 1 << k, 3 << (k - 1)):
            self._check([-2, 0, 0, 1], num, 1 << k)
        assert _sign_at([-2, 0, 0, 1], below, 1 << k) == -1
        assert _sign_at([-2, 0, 0, 1], below + 1, 1 << k) == 1
        self._check([1, -1], 1 << k, 1 << k)  # 1 - z at its root z = 1


def _random_ints(rnd, degree, bits):
    """Coefficients of a degree-``degree`` polynomial below 2^bits, either
    sign; the leading one is nonzero."""
    ints = [rnd.randint(-(1 << bits), 1 << bits) for _ in range(degree + 1)]
    ints[-1] = ints[-1] or 1
    return ints


def _times_roots(ints, k, nums):
    """ints times (2^k z - n) for each n in nums: roots at n / 2^k."""
    for n in nums:
        ints = [(a << k) - n * b for a, b in zip([0, *ints], [*ints, 0])]
    return ints


class TestDyadicValue:
    """``_dyadic_value`` against the exact Horner of ``_reference``: the same
    sign everywhere, 0 exactly at a root, and within 2^(k(d - 1)) below the
    exact 2^(kd) p(x) wherever a working-precision sum decides the sign."""

    @staticmethod
    def _check(ints, num, k):
        value, exact = roots._dyadic_value(ints, num, k), dyadic_value(ints, num, k)
        assert (value > 0) - (value < 0) == (exact > 0) - (exact < 0)
        assert value <= exact < value + (1 << max(k * (len(ints) - 2), 0))
        return value

    @settings(max_examples=150, deadline=None)
    @given(
        rnd=st.randoms(use_true_random=False),
        degree=st.integers(0, 200),
        bits=st.sampled_from([1, 20, 64, 650]),
        k=st.integers(0, 200),
        whole=st.integers(0, 3),
    )
    def test_sign_matches_exact_horner(self, rnd, degree, bits, k, whole):
        # x = num / 2^k in [0, 4), so x >= 2 too, where the bound is largest
        ints = _random_ints(rnd, degree, bits)
        num = (whole << k) + rnd.getrandbits(k)
        self._check(ints, num, k)
        self._check([-c for c in ints], num, k)  # negative leading coefficient

    @settings(max_examples=100, deadline=None)
    @given(
        rnd=st.randoms(use_true_random=False),
        degree=st.integers(0, 199),
        bits=st.sampled_from([1, 64, 650]),
        k=st.integers(1, 200),
        whole=st.integers(0, 2),
        gaps=st.lists(st.integers(1, 3), max_size=3),
    )
    def test_roots_read_zero_and_their_neighbours_the_exact_sign(
        self, rnd, degree, bits, k, whole, gaps
    ):
        # a cluster of roots n_i / 2^k a few units of 2^-k apart
        nums = [(whole << k) + rnd.getrandbits(k)]
        for gap in gaps:
            nums.append(nums[-1] + gap)
        ints = _times_roots(_random_ints(rnd, degree, bits), k, nums)
        for n in nums:
            assert self._check(ints, n, k) == 0
            for near in (n - 1, n + 1):
                if near >= 0:
                    self._check(ints, near, k)

    def test_long_polynomials_take_the_working_precision(self):
        # near the root of the a^199 b denominator the value is a truncated
        # sum: below the exact one, with the same sign
        result = escape_rate(w("a" * 199 + "b"), B(["7/10", "3/10"]))
        ints = list(result.poly.ints)
        for end in (result.lower, result.upper):
            k = end.denominator.bit_length() - 1
            assert self._check(ints, end.numerator, k) < dyadic_value(ints, end.numerator, k)


def _int_cbrt(x: int) -> int:
    lo, hi = 0, 1 << (x.bit_length() // 3 + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**3 <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _record_points(monkeypatch):
    """(polynomial, point) of every dyadic evaluation from here on."""
    points = []
    value = roots._dyadic_value

    def recording(ints, num, k):
        points.append((tuple(ints), Fraction(num, 1 << k)))
        return value(ints, num, k)

    monkeypatch.setattr(roots, "_dyadic_value", recording)
    return points


def _record_chains(monkeypatch):
    """The cores of every Sturm chain built from here on."""
    chains = []
    sturm = roots._sturm_chain
    monkeypatch.setattr(roots, "_sturm_chain", lambda ints: chains.append(list(ints)) or sturm(ints))
    return chains


class TestRootBelow:
    """``_Core.root_below`` certifies a root in the open interval (0, x)."""

    @pytest.mark.parametrize(
        "ints,x,expected",
        [
            ([2, -3, 1], Fraction(3, 2), True),  # roots 1, 2: sign change
            ([1, -2, 1], 2, True),  # double root 1: no sign change, Sturm
            ([-1, 2, -1], 2, True),  # the same, negative at 0
            ([1, -2, 1], 1, False),  # x is the root itself
            ([1, -2, 1], Fraction(1, 2), False),
            ([1, -1], 1, False),  # one Descartes variation, root at x
            ([1, -1], Fraction(1, 2), False),
            ([1, 1, 1], 5, False),  # no positive root
            ([1, -3, 2], 1, True),  # roots 1/2 and x = 1: the quotient decides
            ([1, -3, 2], Fraction(1, 2), False),
        ],
    )
    def test_cases(self, ints, x, expected):
        assert _Core(ints).root_below(Fraction(x)) is expected

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-50, 50), min_size=2, max_size=8),
        head=st.integers(-50, 50).filter(bool),
        x=st.fractions(min_value=Fraction(1, 100), max_value=10),
    )
    def test_matches_sturm_count(self, coeffs, head, x):
        ints = [head, *coeffs]
        assume(any(coeffs) and horner(RationalPolynomial(ints), x) != 0)
        assert _Core(ints).root_below(x) == (count_roots(RationalPolynomial(ints), 0, x) > 0)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.fractions(min_value=Fraction(1, 50), max_value=10, max_denominator=50),
        others=st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=50).filter(bool), max_size=5
        ),
        multiplicity=st.integers(1, 3),
        head=st.integers(-5, 5).filter(bool),
    )
    def test_x_a_root_of_linear_factors(self, x, others, multiplicity, head):
        # head * (z - x)^multiplicity * prod (z - other): only the others
        # strictly between 0 and x count
        product = RationalPolynomial([head])
        for root in [x] * multiplicity + others:
            product = poly_mul(product, RationalPolynomial([-root, 1]))
        assert _Core(list(product.ints)).root_below(x) is any(0 < root < x for root in others)

    def test_sturm_count_reuses_the_sign_at_x(self, monkeypatch):
        # two sign variations and positive at x: the Sturm chain decides
        points = _record_points(monkeypatch)
        assert not _Core([1, -2, 1]).root_below(Fraction(1, 2))
        assert len(points) == len(set(points))
        assert all(point != 0 for _, point in points)

    def test_negative_sign_makes_no_count(self, monkeypatch):
        # roots 1 and 2, negative at 3/2: the sign answers, with no Descartes
        # bound and no Sturm chain; positive at 1/2, the chain decides
        made = []
        for name in ("_variations", "_sturm_chain"):
            real = getattr(roots, name)
            monkeypatch.setattr(roots, name, lambda *args, real=real, name=name: made.append(name) or real(*args))
        assert _Core([2, -3, 1]).root_below(Fraction(3, 2))
        assert made == []
        assert not _Core([2, -3, 1]).root_below(Fraction(1, 2))
        assert made[0] == "_variations" and "_sturm_chain" in made

    def test_tied_root_is_not_below(self):
        # at p = 3/4, r = 3, the unbordered and the maximal-measure holes
        # both have the exact root 4/3; neither prunes the other
        measure = B(["3/4", "1/4"])
        for word in ("aab", "aaa"):
            tau = survival_denominator(w(word), measure)
            assert escape_rate(w(word), measure).lower == Fraction(4, 3)
            assert not _Core(tau.ints).root_below(Fraction(4, 3))


class TestSmallestPositiveRoot:
    def test_no_positive_root_above_threshold(self):
        with pytest.raises(NoPositiveRootError):
            smallest_positive_root(trinomial(3, Fraction(5, 27)))

    def test_double_root_found_exactly_via_candidate(self):
        result = smallest_positive_root(
            trinomial(3, Fraction(4, 27)), candidates=(Fraction(3, 2),)
        )
        assert result.exact and result.lower == Fraction(3, 2)

    def test_double_root_without_candidate(self):
        result = smallest_positive_root(trinomial(3, Fraction(4, 27)))
        assert result.lower <= Fraction(3, 2) <= result.upper

    def test_smaller_candidate_wins(self):
        # roots 5/3 and 5/2, both supplied
        tau = survival_denominator(w("ab"), P35)
        result = smallest_positive_root(tau, candidates=(Fraction(5, 2), Fraction(5, 3)))
        assert result.exact and result.lower == Fraction(5, 3)

    def test_candidate_above_true_root_is_rejected(self):
        # true smallest root of the aa-denominator at p=q=1/2 is sqrt(5)-1,
        # below the supplied rational candidate 2
        tau = survival_denominator(w("aa"), HALF)
        result = smallest_positive_root(poly_mul(tau, poly(1, Fraction(-1, 2))), candidates=(Fraction(2),))
        assert not result.exact
        assert result.upper < 2

    def test_linear_degenerate_polynomial(self):
        # the aa-denominator degenerates to 1 - pi_bb z when a diagonal
        # transition probability vanishes; the rate is then 1/pi_bb
        result = smallest_positive_root(poly(1, Fraction(-1, 2)))
        assert result.lower == result.upper == 2

    def test_rejects_root_at_zero(self):
        with pytest.raises(ValueError):
            smallest_positive_root(poly(0, 1))

    def test_tolerance_controls_width(self):
        tau = survival_denominator(w("aa"), HALF)
        loose = smallest_positive_root(tau, tol=Fraction(1, 10**6))
        tight = smallest_positive_root(tau, tol=Fraction(1, 10**20))
        assert loose.rel_width() <= Fraction(1, 10**6)
        assert tight.rel_width() <= Fraction(1, 10**20)
        assert tight.lower >= loose.lower and tight.upper <= loose.upper

    def test_residual_consistent_with_width(self):
        # |p(mid)| <= width * sup |p'| over the bracket (mean value theorem)
        tau = survival_denominator(w("aabbaa"), P35)
        result = smallest_positive_root(tau)
        mid = (result.lower + result.upper) / 2
        deriv_bound = sum(
            abs(c) * k * result.upper ** (k - 1)
            for k, c in enumerate(tau.coeffs)
            if k
        )
        assert abs(horner(tau, mid)) <= (result.upper - result.lower) * deriv_bound


def _bisection_reference(p: RationalPolynomial, tol: Fraction) -> tuple[Fraction, Fraction]:
    """The enclosure by plain Fraction bisection: probes 2, 4, 8, ... until
    (0, hi] holds a root, then midpoints, counting roots at every step."""
    zero = Fraction(0)
    hi = Fraction(2)
    while not count_roots(p, zero, hi):
        hi *= 2
    lo = zero
    while not (lo > 0 and hi - lo <= tol * lo):
        mid = (lo + hi) / 2
        if count_roots(p, zero, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


@st.composite
def _non_dyadic_polys(draw):
    """Products of (z - a/b), b odd >= 3 and a/b in lowest terms, times a
    quadratic with no rational root: no probe or midpoint is ever a root."""
    roots = draw(
        st.lists(
            st.tuples(st.integers(1, 60), st.integers(1, 7).map(lambda j: 2 * j + 1))
            .filter(lambda ab: math.gcd(*ab) == 1)
            .map(lambda ab: Fraction(*ab)),
            min_size=1,
            max_size=3,
        )
    )
    e, f = draw(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9).filter(bool)).filter(
            lambda ef: math.isqrt(max(ef[0] ** 2 - 4 * ef[1], 0)) ** 2 != ef[0] ** 2 - 4 * ef[1]
        )
    )
    product = poly(f, e, 1)
    for root in roots:
        product = poly_mul(product, poly(-root, 1))
    return product


class TestDyadicEndpoints:
    @given(
        _non_dyadic_polys(),
        st.sampled_from([Fraction(1, 10**3), Fraction(1, 10**10), Fraction(1, 10**30)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_endpoints_match_fraction_bisection(self, p, tol):
        result = smallest_positive_root(p, tol=tol)
        assert (result.lower, result.upper) == _bisection_reference(p, tol)
        for end in (result.lower, result.upper):
            assert end.denominator & (end.denominator - 1) == 0


#: The fixed shapes of the benchmark's long holes.
LONG_HOLES = {
    f"{shape} r={r}": word
    for r in (60, 100)
    for shape, word in (
        ("a^(r-1)b", "a" * (r - 1) + "b"),
        ("(aab)*", ("aab" * r)[:r]),
        ("(ab)*", ("ab" * r)[:r]),
        ("a^r", "a" * r),
    )
} | {"a^(r-1)b r=200": "a" * 199 + "b", "a^r r=200": "a" * 200}


class TestQuadraticRefinement:
    """Quadratic interval refinement ends on the endpoints of plain
    bisection, pins the same exact roots, and needs fewer evaluations."""

    @given(
        st.text("ab", min_size=20, max_size=80),
        st.sampled_from([B(["7/10", "3/10"]), MarkovChain.from_rationals(["3/4", "1/4", "1/3", "2/3"])]),
    )
    @settings(max_examples=40, deadline=None)
    def test_escape_rates_match_plain_bisection(self, text, measure):
        # from about r = 40 on the first enclosure reaches below 1, and
        # rate_from_denominator narrows it again until lower > 1
        result = escape_rate(w(text), measure)
        with plain_bisection():
            expected = escape_rate(w(text), measure)
        assert (result.lower, result.upper) == (expected.lower, expected.upper)

    @pytest.mark.parametrize(
        "linear, factor, path",
        [
            ((-9, 8), (1, 0, 1), ("_jump",)),
            ((-1297029319, 1 << 30), (1, -1, 3), ("_jump",)),
            # the secant misses, and the bisection after the miss hits the root
            ((-285, 256), (2, -1, 14, 12), ("step", "_jump")),
            # one sign variation: Descartes' rule certifies every point
            ((-5, 4), (1, 1, 2, 19), ("step", "_jump")),
        ],
    )
    def test_dyadic_root_is_pinned(self, monkeypatch, linear, factor, path):
        # a dyadic root times a factor with no positive root; the core's
        # certificate covers a point above the root, so refinement starts
        p = poly_mul(poly(*linear), poly(*factor))
        callers = []
        hit = _Enclosure._hit

        def spy(enclosure, num):
            callers.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
            hit(enclosure, num)

        monkeypatch.setattr(_Enclosure, "_hit", spy)
        result = smallest_positive_root(p)
        root = Fraction(-linear[0], linear[1])
        assert result.exact and result.lower == root
        assert [c[: len(path)] for c in callers] == [path]
        with plain_bisection():
            assert smallest_positive_root(p).lower == root

    @pytest.mark.parametrize(
        "text, most", [("a" * 199 + "b", 40), ("ab" * 50, 80)], ids=["a^199 b", "(ab)^50"]
    )
    def test_evaluation_count(self, monkeypatch, text, most):
        # every evaluation at a dyadic point, Sturm chains included, goes
        # through _dyadic_value: 113 and 159 of them under plain bisection
        calls = 0
        value = roots._dyadic_value

        def counting(*args):
            nonlocal calls
            calls += 1
            return value(*args)

        monkeypatch.setattr(roots, "_dyadic_value", counting)
        escape_rate(w(text), B(["7/10", "3/10"]))
        assert calls <= most

    @pytest.mark.parametrize("text", LONG_HOLES.values(), ids=LONG_HOLES.keys())
    @pytest.mark.parametrize(
        "measure",
        [B(["7/10", "3/10"]), MarkovChain.from_rationals(["3/4", "1/4", "1/3", "2/3"])],
        ids=["bernoulli", "markov"],
    )
    def test_working_precision_keeps_the_exact_endpoints(self, monkeypatch, text, measure):
        # the long holes of the benchmark: the same enclosure, from no more
        # evaluations, as when every value is the exact 2^(kd) p(x)
        runs = []
        for evaluate in (roots._dyadic_value, dyadic_value):
            calls = []
            monkeypatch.setattr(
                roots, "_dyadic_value", lambda *args, f=evaluate, calls=calls: calls.append(args) or f(*args)
            )
            result = escape_rate(w(text), measure)
            runs.append(((result.lower, result.upper), len(calls)))
        (ends, working), (exact_ends, exact) = runs
        assert ends == exact_ends
        assert working <= exact

    @pytest.mark.parametrize("text", ["a" * 59 + "b", "ab" * 10, "aab" * 7])
    def test_no_point_is_evaluated_twice(self, monkeypatch, text):
        # a count at a probe or a bisection midpoint reuses the core's value
        # there, and a count at 0 reads the constant terms
        points = _record_points(monkeypatch)
        escape_rate(w(text), B(["7/10", "3/10"]))
        assert len(points) == len(set(points))
        assert all(point != 0 for _, point in points)

    @pytest.mark.parametrize("text", ["a" * 99 + "b", "ab" * 30])
    def test_lower_one_certifies_without_a_count(self, monkeypatch, text):
        # the first enclosure ends at lower = 1, where the enclosure's own
        # invariant certifies z0 > 1: z = 1, the first bisection midpoint,
        # is not evaluated again for a count there
        firsts = []
        isolate = roots.smallest_positive_root

        def spy(*args):
            firsts.append(isolate(*args))
            return firsts[-1]

        monkeypatch.setattr(roots, "smallest_positive_root", spy)
        points = _record_points(monkeypatch)
        result = escape_rate(w(text), B(["7/10", "3/10"]))
        assert firsts[0].lower == 1 < result.lower
        assert any(point == 1 for _, point in points)
        assert len(points) == len(set(points))

    @pytest.mark.parametrize(
        "tau", [poly(1, -3, 1), poly(1, -1)], ids=["root below 1", "exact root 1"]
    )
    def test_root_not_above_one_is_refused(self, tau):
        with pytest.raises(AssertionError, match="not above 1"):
            rate_from_denominator(tau, B(["7/10", "3/10"]))


class TestIntegerDeflation:
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8).filter(lambda g: g[-1] != 0),
        st.tuples(st.integers(1, 10**4), st.integers(1, 10**4)).filter(lambda ab: math.gcd(*ab) == 1),
        st.integers(0, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_divides_out_every_factor(self, g, ab, m):
        a, b = ab
        root = Fraction(a, b)
        assume(horner(RationalPolynomial(g), root) != 0)
        product = RationalPolynomial(g)
        for _ in range(m):
            product = poly_mul(product, poly(-root, 1))  # z - a/b: b z - a in ints
        assert _divide_out(list(product.ints), root) == _primitive(list(g))


class TestEscapeRate:
    def test_single_letter_rate(self):
        result = escape_rate(w("a"), P35)
        assert result.exact and result.lower == Fraction(5, 2)
        assert math.isclose(result.gamma, -math.log(2 / 5), rel_tol=1e-14)

    def test_ab_rate_is_exact(self):
        result = escape_rate(w("ab"), P35)
        assert result.exact and result.lower == Fraction(5, 3)

    def test_aa_closed_form(self):
        p, q = 0.5, 0.5
        expected = (-q + math.sqrt(q * q + 4 * p * q)) / (2 * p * q)
        result = escape_rate(w("aa"), HALF)
        assert abs(result.z0 - expected) < 1e-13
        assert abs(result.z0 - (math.sqrt(5) - 1)) < 1e-13

    def test_root_exceeds_one(self):
        for text in ("a", "aa", "ab", "aabbaa", "bbbb"):
            result = escape_rate(w(text), P35)
            assert result.lower > 1
            assert result.gamma_lower > 0

    def test_markov_uniform_matches_bernoulli(self):
        chain = MarkovChain.from_rationals(["1/2", "1/2", "1/2", "1/2"])
        assert escape_rate(w("aa"), chain).poly == escape_rate(w("aa"), HALF).poly

    def test_equal_unbordered_holes_share_enclosures(self):
        first = escape_rate(w("aab"), P35)
        second = escape_rate(w("baa"), P35)
        assert first.poly == second.poly
        assert (first.lower, first.upper) == (second.lower, second.upper)

    @given(st.integers(2, 6), st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_trinomial_root_increases_in_m(self, r, num_a, num_b):
        # a more massive unbordered hole leaks faster: its root (hence its
        # escape rate) is strictly larger
        threshold = Fraction(1, r) * (1 - Fraction(1, r)) ** (r - 1)
        m1 = threshold * num_a / 31
        m2 = threshold * num_b / 31
        if m1 == m2:
            return
        lo_m, hi_m = sorted((m1, m2))
        root_lo = smallest_positive_root(trinomial(r, lo_m))
        root_hi = smallest_positive_root(trinomial(r, hi_m))
        assert compare(root_hi, root_lo) > 0


class TestCompare:
    def test_identical_polynomials_compare_equal(self):
        a = escape_rate(w("aab"), P35)
        b = escape_rate(w("baa"), P35)
        assert compare(a, b) == 0

    def test_equal_roots_of_different_polynomials(self):
        # trinomial and the run-word denominator share the root exactly
        p = Fraction(7, 10)
        run_rate = escape_rate(Word((0,) * 4, AB), B([p, 1 - p]), tol=Fraction(1, 10**10))
        trinomial_rate = smallest_positive_root(
            trinomial(5, p**4 * (1 - p)), candidates=(1 / p,), tol=Fraction(1, 10**10)
        )
        # the trinomial has roots {1/p, z}, the run denominator only {z}
        deflated = compare(run_rate, trinomial_rate)
        assert deflated == 0

    def test_strict_separation(self):
        fast = escape_rate(w("ab"), P35)
        slow = escape_rate(w("aa"), P35)
        assert compare(fast, slow) == 1
        assert compare(slow, fast) == -1

    def test_compare_with_rational(self):
        result = escape_rate(w("ab"), P35)
        assert compare_with_rational(result, Fraction(5, 3)) == 0
        assert compare_with_rational(result, Fraction(3, 2)) == 1
        assert compare_with_rational(result, Fraction(2)) == -1
        inexact = escape_rate(w("aa"), HALF)
        assert compare_with_rational(inexact, Fraction(5, 4)) < 0
        assert compare_with_rational(inexact, Fraction(6, 5)) > 0

    @pytest.mark.parametrize(
        "inexact,exact,order,overlap",
        [
            # separated: sqrt(5) - 1 lies far below 5/3
            (lambda: escape_rate(w("aa"), HALF), lambda: escape_rate(w("ab"), P35), -1, False),
            # overlapping: a loose enclosure of sqrt(2) holds the exact 29/20
            (
                lambda: smallest_positive_root(poly_mul(poly(-2, 0, 1), poly(-29, 20)), tol=Fraction(1, 2)),
                lambda: smallest_positive_root(poly(-29, 20), candidates=(Fraction(29, 20),)),
                -1,
                True,
            ),
            # overlapping and equal: 4/3 is a root of both, pinned in place
            (
                lambda: smallest_positive_root(poly_mul(poly(-4, 3), poly(3, -2, 1))),
                lambda: smallest_positive_root(poly(-4, 3), candidates=(Fraction(4, 3),)),
                0,
                True,
            ),
        ],
        ids=["separated", "overlapping", "equal"],
    )
    @pytest.mark.parametrize("exact_first", [True, False])
    def test_exact_with_inexact_root(self, inexact, exact, order, overlap, exact_first):
        loose, pinned = inexact(), exact()
        assert pinned.exact and not loose.exact
        assert (loose.lower < pinned.lower < loose.upper) == overlap
        if exact_first:
            assert compare(pinned, loose) == -order
        else:
            assert compare(loose, pinned) == order

    def test_compare_reads_enclosures_separated_earlier(self, monkeypatch):
        # loose enclosures (1, 3/2) of sqrt(2) and sqrt(21/10): the snapshots
        # overlap, and once a comparison has separated the enclosures the
        # next one answers with no step
        low = smallest_positive_root(poly(-2, 0, 1), tol=Fraction(1, 2))
        high = smallest_positive_root(poly(Fraction(-21, 10), 0, 1), tol=Fraction(1, 2))
        assert low.lower < high.upper and high.lower < low.upper
        assert compare(low, high) == -1

        def refuse(enclosure):
            raise AssertionError("an enclosure was bisected")

        monkeypatch.setattr(_Enclosure, "step", refuse)
        assert compare(low, high) == -1 and compare(high, low) == 1
        assert low.lower < high.upper and high.lower < low.upper

    def test_refine_keeps_root(self):
        result = escape_rate(w("aa"), HALF, tol=Fraction(1, 10**8))
        tighter = refine(result, Fraction(1, 10**24))
        assert result.lower <= tighter.lower <= tighter.upper <= result.upper
        assert tighter.rel_width() <= Fraction(1, 10**24)


class TestNoFalseCertificates:
    def test_multiple_roots_in_the_bracket(self):
        # three simple roots at 11/10, 12/10, 13/10: a sign change on the
        # bracket does not isolate the smallest one
        cubic = poly(1)
        for root in (Fraction(11, 10), Fraction(12, 10), Fraction(13, 10)):
            cubic = poly_mul(cubic, poly(-root, 1))
        result = smallest_positive_root(cubic)
        assert result.lower <= Fraction(11, 10) <= result.upper

    def test_close_roots_are_not_a_tie(self):
        # the two rates differ far below relative width 1e-30
        longer = escape_rate(Word.parse("a" * 59 + "b", AB), HALF)
        cycled = escape_rate(Word.parse("a" + "b" * 58 + "a", AB), HALF)
        assert compare(longer, cycled) == 1
        assert compare(cycled, longer) == -1

    def test_equal_irrational_roots_of_different_polynomials(self):
        root2 = poly(-2, 0, 1)
        first = smallest_positive_root(poly_mul(root2, poly(-3, 1)))
        second = smallest_positive_root(poly_mul(poly_mul(root2, root2), poly(5, -1)))
        assert first.poly != second.poly
        assert compare(first, second) == 0
        nearby = smallest_positive_root(poly(-2 - Fraction(1, 10**40), 0, 1))
        assert compare(first, nearby) == -1

    def test_equal_roots_tied_by_the_chain_of_the_gcd(self, monkeypatch):
        # the gcd z^2 - 3z + 1 has two sign variations, so the tie at
        # (3 - sqrt 5) / 2 is counted on the gcd's own Sturm chain
        shared = poly(1, -3, 1)
        first = smallest_positive_root(poly_mul(shared, poly(-3, 1)))
        second = smallest_positive_root(poly_mul(poly_mul(shared, shared), poly(5, -1)))
        assert first.poly != second.poly
        chains = _record_chains(monkeypatch)
        assert compare(first, second) == 0
        assert chains == [[1, -3, 1]]

    def test_compare_leaves_snapshots_unchanged(self):
        longer = escape_rate(Word.parse("a" * 59 + "b", AB), HALF)
        cycled = escape_rate(Word.parse("a" + "b" * 58 + "a", AB), HALF)
        before = [(r.lower, r.upper) for r in (longer, cycled)]
        compare(longer, cycled)
        assert [(r.lower, r.upper) for r in (longer, cycled)] == before

    def test_compare_with_a_larger_root_inside_the_enclosure(self):
        # roots sqrt(2) and 29/20; a loose enclosure of sqrt(2) contains 29/20
        result = smallest_positive_root(poly_mul(poly(-2, 0, 1), poly(-29, 20)), tol=Fraction(1, 2))
        assert result.lower < Fraction(29, 20) < result.upper
        assert compare_with_rational(result, Fraction(29, 20)) == -1
        assert compare_with_rational(result, Fraction(7, 5)) == 1
        assert compare_with_rational(result, Fraction(10, 7)) == -1

    @pytest.mark.parametrize(
        "product",
        [poly_mul(poly(-4, 3), poly(3, -2, 1)), poly_mul(poly_mul(poly(-4, 3), poly(-4, 3)), poly(1, 1))],
        ids=["simple", "double"],
    )
    def test_comparison_at_a_rational_root_pins_it(self, product):
        # 4/3 is neither a candidate nor dyadic, so bisection never meets it:
        # the comparison divides it out of the core and pins it in place
        root = Fraction(4, 3)
        result = smallest_positive_root(product)
        assert result.lower < root < result.upper
        below = (result.lower + root) / 2
        assert compare_with_rational(result, below) == 1
        assert compare_with_rational(result, root) == 0
        assert compare_with_rational(result, below) == 1
        pinned = refine(result, Fraction(1, 10**40))
        assert pinned.exact and pinned.lower == root

    def test_enclosure_ends_below_a_deflated_candidate(self):
        # roots sqrt(2) and the candidate 10/7: at tol 1/2 the width test
        # alone would stop at (1, 3/2), which reaches above 10/7
        result = smallest_positive_root(
            poly_mul(poly(-2, 0, 1), poly(-10, 7)), tol=Fraction(1, 2), candidates=(Fraction(10, 7),)
        )
        assert not result.exact
        assert result.lower ** 2 < 2 < result.upper ** 2
        assert result.upper <= Fraction(10, 7)

    def test_a_snapshot_is_made_only_by_its_enclosure(self):
        with pytest.raises(TypeError):
            RootResult(poly(-2, 0, 1), Fraction(1), Fraction(2))
        result = smallest_positive_root(poly(-2, 0, 1))
        assert not hasattr(result, "candidates") and not hasattr(result, "_state")
        assert result._enclosure.snapshot() == result

    def test_negative_sign_at_the_value_needs_no_count(self, monkeypatch):
        # the enclosure (1, 3/2) of sqrt(2): the core 2 - z^2 is negative at
        # 29/20, so the root lies below it with no count, even when no
        # certificate would spare a Sturm chain
        result = smallest_positive_root(poly(-2, 0, 1), tol=Fraction(1, 2))
        assert (result.lower, result.upper) == (1, Fraction(3, 2))

        def refuse(ints):
            raise AssertionError("a Sturm chain was built")

        monkeypatch.setattr(roots, "_sturm_chain", refuse)
        with no_certificate():
            assert compare_with_rational(result, Fraction(29, 20)) == -1
            # a positive sign at 7/5 must be counted, on the refused chain
            with pytest.raises(AssertionError, match="Sturm chain"):
                compare_with_rational(result, Fraction(7, 5))


def _cubic(*roots):
    """The cubic with these roots, positive at 0."""
    product = poly(-1)
    for root in roots:
        product = poly_mul(product, poly(-root, 1))
    return product


def _outcome(p, tol=DEFAULT_TOL, candidates=()):
    """The enclosure's ends, or the error it raises."""
    try:
        result = smallest_positive_root(p, tol, candidates)
    except NoPositiveRootError:
        return NoPositiveRootError
    return result.lower, result.upper


def _with_no_certificate(*args):
    with no_certificate():
        return _outcome(*args)


@st.composite
def _shaped_polys(draw):
    """A core of a survival denominator's shape, p(1) z^d + (1 - z) c, bare
    or times a quadratic with two roots in (1, 8/5), or a cubic with three
    roots in (1, 3/2); a product is also taken times (1 + z)^3, which often
    gives it the shape.  The partial sums of c's coefficients are >= 0 but
    the last, which may be anything: a last sum <= 0 is no shape.  Returns
    the polynomial and the roots of its factor."""
    kind = draw(st.sampled_from(["bare", "quadratic", "cubic"]))
    if kind == "cubic":
        roots = draw(
            st.lists(
                st.fractions(min_value=1, max_value=Fraction(3, 2), max_denominator=64).filter(lambda x: 1 < x < 1.5),
                min_size=3,
                max_size=3,
                unique=True,
            )
        )
        p = _cubic(*roots)
        return poly_mul(p, poly(1, 3, 3, 1)) if draw(st.booleans()) else p, roots
    d = draw(st.integers(2, 12))
    sums = draw(st.lists(st.integers(0, 30), min_size=d - 1, max_size=d - 1)) + [draw(st.integers(-30, 30))]
    sums[0] += 1  # c(0) = p(0) > 0
    c = [b - a for a, b in zip([0] + sums, sums)]
    top = Fraction(draw(st.integers(1, 20)), draw(st.sampled_from([1, 10, 100, 10**4, 10**6])))
    p = poly_add(poly(*c), poly(*[0] + [-a for a in c]), monomial(d, top))
    if kind == "bare":
        return p, []
    roots = draw(
        st.lists(
            st.fractions(min_value=1, max_value=Fraction(8, 5), max_denominator=64).filter(lambda x: 1 < x < 1.6),
            min_size=2,
            max_size=2,
        )
    )
    p = poly_mul(p, poly_mul(poly(-roots[0], 1), poly(-roots[1], 1)))
    return poly_mul(p, poly(1, 3, 3, 1)) if draw(st.booleans()) else p, roots


class TestShapeCertificate:
    """A core of a survival denominator's shape counts its roots up to a
    point by its sign there, wherever it has at most one root below."""

    @pytest.mark.parametrize(
        "roots, times",
        [
            ((Fraction(131, 100), Fraction(135, 100), Fraction(149, 100)), ()),
            ((Fraction(101, 100), Fraction(102, 100), Fraction(103, 100)), ()),
            ((Fraction(105, 100), Fraction(13, 10), Fraction(29, 20)), ()),
            ((Fraction(13, 10), Fraction(11, 8), Fraction(7, 5)), ()),  # a dyadic middle root
            # times (1 + z)^3 each has the shape
            ((Fraction(131, 100), Fraction(135, 100), Fraction(149, 100)), (1, 3, 3, 1)),
            ((Fraction(105, 100), Fraction(13, 10), Fraction(29, 20)), (1, 3, 3, 1)),
            ((Fraction(13, 10), Fraction(11, 8), Fraction(7, 5)), (1, 3, 3, 1)),
        ],
        ids=lambda case: ",".join(map(str, case)),
    )
    def test_three_roots_below_a_negative_sign_give_the_smallest(self, roots, times):
        # negative at 3/2 and positive at 1: a sign change over (1, 3/2) that
        # holds three roots, so no point of it may start refinement
        p = poly_mul(_cubic(*roots), poly(*times)) if times else _cubic(*roots)
        core = _Core(p.ints)
        assert core.sign(Fraction(3, 2)) < 0 < core.sign(1)
        assert core.certifies(1, 1) is bool(times)
        result = smallest_positive_root(p)
        assert result.lower <= roots[0] <= result.upper < roots[1]
        assert (result.lower, result.upper) == _with_no_certificate(p)

    def test_a_last_partial_sum_below_zero_is_no_shape(self):
        # p = z^2 + (1 - z)(30 - 50 z): c has the partial sums 30 and -20, so
        # c(1) < 0, and p has two roots in (0, 1) though p(1) = 1 > 0
        p = poly(30, -80, 51)
        assert not _Core(p.ints).certifies(1, 1)
        result = smallest_positive_root(p)
        assert result.upper < 1
        assert (result.lower, result.upper) == _with_no_certificate(p)

    @settings(max_examples=150, deadline=None)
    @given(
        _shaped_polys(),
        st.lists(st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=16), max_size=2),
        st.booleans(),
        st.sampled_from([Fraction(1, 10**3), DEFAULT_TOL]),
    )
    def test_enclosures_match_sturm_counts(self, shaped, others, known, tol):
        # rational candidates, among them a root of the factor when asked:
        # the same ends, or the same error, with every count on a chain
        p, roots = shaped
        candidates = tuple(others) + (tuple(roots[:1]) if known else ())
        assert _outcome(p, tol, candidates) == _with_no_certificate(p, tol, candidates)

    @settings(max_examples=150, deadline=None)
    @given(
        _shaped_polys(),
        st.lists(st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=64), min_size=1, max_size=6),
    )
    def test_certifies_exactly_where_the_rule_does(self, shaped, points):
        # one variation certifies every point; the shape, which holds when 1
        # is certified, every x <= 1 and every x with q(x) < 0; no shape, no
        # point.  The points come in any order, so the ends of the certified
        # region the core keeps must answer as the rule would.
        core = _Core(shaped[0].ints)
        descartes, shape = roots._variations(core.ints) <= 1, core.certifies(1, 1)
        for x in points:
            rule = descartes or shape and (x <= 1 or slope_bound(core.ints, x) < 0)
            assert core.certifies(x.numerator, x.denominator) is rule
        assert core.certifies(1, 0) is descartes  # inf

    def test_a_zero_slope_bound_does_not_certify(self):
        # (8z - 9)(z^2 - 2z + 2), positive at 0: q(z) = 50 z - 58 is 0 at 29/25
        core = _Core([18, -34, 25, -8])
        assert slope_bound(core.ints, Fraction(29, 25)) == 0
        assert core.certifies(28, 25) and not core.certifies(29, 25)
        assert core.certifies(57, 50) and not core.certifies(3, 2)

    def test_descartes_is_the_one_variation_case(self):
        # one variation: every point is certified, inf too, and no chain
        core = _Core([3, 1, -2, -1])
        assert all(core.certifies(n, 1) for n in (1, 5, 100)) and core.certifies(1, 0)
        assert core.count_upto(None) == 1 and core._chain is None
        assert _Core([3, 1, 2]).count_upto(None) == 0


class TestCertificateWork:
    """What the certificate saves: Sturm chains and counts."""

    @pytest.mark.parametrize("text", LONG_HOLES.values(), ids=LONG_HOLES.keys())
    @pytest.mark.parametrize(
        "measure",
        [B(["7/10", "3/10"]), MarkovChain.from_rationals(["3/4", "1/4", "1/3", "2/3"])],
        ids=["bernoulli", "markov"],
    )
    def test_long_holes_build_no_chain(self, monkeypatch, text, measure):
        chains = _record_chains(monkeypatch)
        escape_rate(w(text), measure)
        assert chains == []

    def test_brute_force_maximum_builds_no_chain(self, monkeypatch):
        # every pruning test at the leader's lower end is certified
        chains = _record_chains(monkeypatch)
        brute_force_gamma_max(7, B(["7/10", "3/10"]))
        assert chains == []

    def test_scan_tables_build_no_chain(self, monkeypatch):
        # every root of a scan lands on its stop cell, certified by one sign
        # at each end: no count, and so no chain
        chains = _record_chains(monkeypatch)
        ordering_table(10, B(["7/10", "3/10"]))
        markov_scan(8, MarkovChain.from_rationals(["3/4", "1/4", "1/3", "2/3"]))
        assert chains == []

    @pytest.mark.parametrize("text, most", [("a" * 59 + "b", 4), ("aab" * 7, 5)], ids=["a^59 b", "(aab)^7"])
    def test_a_landing_needs_few_evaluations(self, monkeypatch, text, most):
        # 9 and 13 from the probes, bisection and quadratic refinement
        points = _record_points(monkeypatch)
        escape_rate(w(text), B(["7/10", "3/10"]))
        assert len(points) <= most

    def test_negative_step_value_makes_no_count(self, monkeypatch):
        # three roots in (1, 3/2) and no shape: probe 2 is negative and
        # becomes hi with no count; the bisection midpoint 1 is positive and
        # counted on the chain; 3/2 is negative and becomes hi uncounted
        counts = []
        count_upto = _Core.count_upto
        monkeypatch.setattr(
            _Core, "count_upto", lambda core, *args: counts.append(args[0]) or count_upto(core, *args)
        )
        enclosure = _Enclosure(_cubic(Fraction(131, 100), Fraction(135, 100), Fraction(149, 100)))
        assert enclosure.hi == 2 and counts == []
        enclosure.step()
        assert enclosure.lo == 1 and len(counts) == 1
        enclosure.step()
        assert enclosure.hi == Fraction(3, 2) and len(counts) == 1
        assert not enclosure._single


#: Survival measures for the landing tests: (alphabet letters, measure).
LANDING_MEASURES = [
    ("ab", B(["7/10", "3/10"])),
    ("ab", B(["1/2", "1/2"])),
    ("ab", B(["1/1000", "999/1000"])),
    ("ab", B(["999/1000", "1/1000"])),
    ("abc", B(["1/2", "3/10", "1/5"])),
    ("ab", MarkovChain.from_rationals(["3/4", "1/4", "1/3", "2/3"])),
    ("ab", MarkovChain.from_rationals(["0", "1", "1/2", "1/2"])),
]


@st.composite
def _survival_denominators(draw):
    """(denominator, measure) of an allowed hole: a binary word of length up
    to 14 or a ternary one up to 8, under one of ``LANDING_MEASURES``."""
    letters, measure = draw(st.sampled_from(LANDING_MEASURES))
    text = draw(st.text(letters, min_size=1, max_size=14 if letters == "ab" else 8))
    assume(isinstance(measure, BernoulliMeasure) or "aa" not in text or measure.matrix[0][0])
    word = Word.parse(text, AB if letters == "ab" else Alphabet.of_size(3))
    return survival_denominator(word, measure), measure


def _landed(monkeypatch):
    """The outcomes of every landing from here on."""
    landings = []
    land = _Enclosure._land

    def recording(enclosure, tol):
        landings.append(land(enclosure, tol))
        return landings[-1]

    monkeypatch.setattr(_Enclosure, "_land", recording)
    return landings


class TestLanding:
    """An enclosure lands on the cell where plain bisection stops, aimed at
    by a float estimate of z0 - 1 and decided by exact signs: the same ends,
    whatever the estimate."""

    @given(_survival_denominators(), st.sampled_from([Fraction(1, 10**6), DEFAULT_TOL, Fraction(1, 10**30)]))
    @settings(max_examples=120, deadline=None)
    def test_landed_enclosures_match_plain_bisection(self, case, tol):
        # with the measure's candidates and the lower <= 1 loop, and alone;
        # an inexact root alone also by plain Fraction bisection
        p, measure = case
        rate, alone = _rate_outcome(p, measure, tol), _outcome(p, tol)
        with plain_bisection():
            assert rate == _rate_outcome(p, measure, tol)
            assert alone == _outcome(p, tol)
        if alone is not NoPositiveRootError and alone[0] < alone[1] and tol != Fraction(1, 10**30):
            assert alone == _bisection_reference(p, tol)

    @pytest.mark.parametrize("text", ["a" * 59 + "b", "aab" * 7, "abbab"])
    @pytest.mark.parametrize("measure", [B(["7/10", "3/10"]), B(["1/2", "1/2"])], ids=["7/10", "1/2"])
    def test_survival_denominators_land(self, monkeypatch, text, measure):
        # one landing for the first enclosure, and one per narrowing of the
        # lower <= 1 loop; every one lands
        landings = _landed(monkeypatch)
        escape_rate(w(text), measure)
        assert landings and all(landings)

    def test_an_estimate_three_cells_off_lands_after_a_newton_step(self, monkeypatch):
        # the hole aa at p = 99/100, z0 near 9.56: the float Newton stalls
        # three cells above the stop cell at level 44, beyond two moves; one
        # exact Newton step lands it on the ends bisection reaches
        p = survival_denominator(w("aa"), B(["99/100", "1/100"]))
        assert p.ints == (10000, -100, -99)
        u, e = roots._estimate(p.ints)
        aim = math.floor(Fraction(1 + math.ldexp(u, e)) * 2**44)
        landings = _landed(monkeypatch)
        lower, upper = _outcome(p)
        assert landings == [True]
        assert (lower, upper) == (Fraction(aim - 3, 2**44), Fraction(aim - 2, 2**44))
        with plain_bisection():
            assert _outcome(p) == (lower, upper)
        assert _bisection_reference(p, DEFAULT_TOL) == (lower, upper)

    @pytest.mark.parametrize(
        "aim",
        [
            lambda ints, t: (math.nan, 0),
            lambda ints, t: (math.inf, 0),
            lambda ints, t: (t + 5000 * 2.0**-47, 0),  # thousands of cells above
            lambda ints, t: (t - 3000 * 2.0**-47, 0),  # and below
            lambda ints, t: (t + 2.0**-47, 0),  # the next cell: one move down
            lambda ints, t: (-0.75, 0),  # an aim at 1/4
        ],
        ids=["nan", "inf", "5000 cells up", "3000 cells down", "one cell up", "far below"],
    )
    @pytest.mark.parametrize(
        "p",
        [
            survival_denominator(w("aab" * 7), B(["7/10", "3/10"])),
            survival_denominator(w("abbab"), MarkovChain.from_rationals(["3/4", "1/4", "1/3", "2/3"])),
            poly_mul(trinomial(5, Fraction(1, 20)), poly(-17, 8)),  # shaped, roots 1.69 and 17/8 above
        ],
        ids=["(aab)^7", "abbab chain", "trinomial"],
    )
    def test_a_wrong_estimate_gives_the_same_enclosure(self, monkeypatch, aim, p):
        expected = _outcome(p)
        estimate = roots._estimate
        monkeypatch.setattr(roots, "_estimate", lambda ints: aim(ints, math.ldexp(*estimate(ints))))
        assert _outcome(p) == expected

    @pytest.mark.parametrize(
        "p, larger",
        [
            (_cubic(Fraction(131, 100), Fraction(135, 100), Fraction(149, 100)), (1.35, 1.49)),
            # shaped, the smallest root near 1.07 and a second near 1.69
            (trinomial(5, Fraction(1, 20)), (1.69,)),
            (poly_mul(trinomial(5, Fraction(1, 20)), poly(-17, 8)), (1.69, 2.125)),
        ],
        ids=["cubic", "trinomial", "trinomial times (8z - 17)"],
    )
    def test_an_estimate_at_a_larger_root_gives_the_same_enclosure(self, monkeypatch, p, larger):
        # the signs at the larger root either miss, or change across it and
        # the certificate, which sees more than one root below, refuses
        expected = _outcome(p)
        for root in larger:
            monkeypatch.setattr(roots, "_estimate", lambda ints, root=root: (root - 1, 0))
            landings = _landed(monkeypatch)
            assert _outcome(p) == expected
            assert landings == [False]
            monkeypatch.undo()

    @pytest.mark.parametrize("tol", [Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)])
    @pytest.mark.parametrize("text", ["bb", "bbb", "bbbb"])
    def test_a_coarse_tolerance_stops_above_the_unit_level(self, text, tol):
        # z0 is 5 to 32 under these holes: at tol 1/2 bisection stops on a
        # cell wider than 1, where no landing may go
        p = survival_denominator(w(text), B(["1/1000", "999/1000"]))
        with plain_bisection():
            expected = _outcome(p, tol)
        assert _outcome(p, tol) == expected

    @pytest.mark.parametrize("level", [12, 20, 47])
    def test_a_move_below_the_stop_rule_is_refused(self, monkeypatch, level):
        # tol puts the stop rule's least n one above floor(z0 2^level), so
        # bisection stops a level finer; an estimate one cell high aims at
        # n + 1 on this level, and the move down to n must not land there
        p = survival_denominator(w("aab" * 7), B(["7/10", "3/10"]))
        z0 = smallest_positive_root(p, Fraction(1, 10**40)).lower
        n = math.floor(z0 * 2**level)
        tol = Fraction(1, n + 1)
        expected = _outcome(p, tol)
        with plain_bisection():
            assert _outcome(p, tol) == expected
        monkeypatch.setattr(roots, "_estimate", lambda ints: ((n + 1.5) / 2**level - 1, 0))
        assert _outcome(p, tol) == expected

    def test_a_candidate_root_in_the_landed_cell_is_bisected_below(self):
        # the smallest root lies 1/(7 2^55) below the candidate 10/7, so the
        # cell at the stop level holds both, and bisection goes on below 10/7
        p = poly_mul(poly(-10, 7), poly(1 - 10 * 2**55, 7 * 2**55))
        candidates = (Fraction(10, 7),)
        result = smallest_positive_root(p, DEFAULT_TOL, candidates)
        assert result.upper <= Fraction(10, 7) and result.upper - result.lower < Fraction(1, 2**55)
        with plain_bisection():
            assert _outcome(p, DEFAULT_TOL, candidates) == _ends(result)


def _long_hole_cases(seed):
    """(word, measure) of the benchmark's long holes at a seed: the four
    shapes at r = 60 and 100 with four random words each, and a^(r-1) b and
    a^r at r = 200, under Bernoulli(7/10, 3/10) and a chain."""
    rng = random.Random(seed)
    for r in (60, 100, 200):
        for measure in LONG_MEASURES:
            texts = ["a" * (r - 1) + "b", ("aab" * r)[:r], ("ab" * r)[:r], "a" * r]
            if r < 200:
                texts += ["".join(rng.choice("ab") for _ in range(r)) for _ in range(4)]
            else:
                texts = texts[::3]
            yield from ((text, measure) for text in texts)


LONG_MEASURES = [B(["7/10", "3/10"]), MarkovChain.from_rationals(["3/4", "1/4", "1/3", "2/3"])]
#: Holes whose first enclosure is a cell (1, 1 + 2^-s), which the loop
#: narrows 1, 6, 4 and 96 times: z0 - 1 from about 2^-53 down to 2^-1000.
NEAR_ONE = [
    ("a" * 99 + "b", LONG_MEASURES[0]),
    ("a" * 199 + "b", LONG_MEASURES[0]),
    ("a" * 199 + "b", LONG_MEASURES[1]),
    ("a" * 999 + "b", HALF),
]


class TestLandingAboveOne:
    """``rate_from_denominator`` lands once on the first level of the
    narrowing loop whose cell lies above 1: the ends of the loop."""

    @pytest.mark.parametrize("seed", [501, 502])
    def test_long_holes_match_the_narrowing_loop(self, seed):
        for text, measure in _long_hole_cases(seed):
            p = survival_denominator(w(text), measure)
            assert _ends(rate_from_denominator(p, measure)) == _ends(rate_by_narrowing(p, measure)), text

    @pytest.mark.parametrize(
        "text, measure", NEAR_ONE, ids=["a^99 b", "a^199 b", "a^199 b chain", "a^999 b at 1/2"]
    )
    @pytest.mark.parametrize("scale", [2.0**-25, 2.0**-9, 2.0**9, 2.0**25, math.nan])
    def test_a_wrong_estimate_gives_the_loop_ends(self, monkeypatch, text, measure, scale):
        # an estimate too small aims too deep, where z0 is not below the
        # level before: one step at a time; too large, and the loop goes on
        p = survival_denominator(w(text), measure)
        expected = _ends(rate_by_narrowing(p, measure))
        estimate = roots._estimate
        monkeypatch.setattr(roots, "_estimate", lambda ints: (estimate(ints)[0] * scale, estimate(ints)[1]))
        assert _ends(rate_from_denominator(p, measure)) == expected

    def test_a_degree_1000_core_lands_in_few_evaluations(self, monkeypatch):
        # the loop lands 96 times, ten levels at a time, at 103 evaluations
        points = _record_points(monkeypatch)
        result = rate_from_denominator(survival_denominator(w("a" * 999 + "b"), HALF), HALF)
        assert result.lower == Fraction(2**1000 + 1, 2**1000) and len(points) <= 10


def _ends(result):
    return result.lower, result.upper


def _rate_outcome(p, measure, tol):
    """The escape-rate enclosure's ends, or the error it raises."""
    try:
        result = rate_from_denominator(p, measure, tol)
    except NoPositiveRootError:
        return NoPositiveRootError
    return result.lower, result.upper
