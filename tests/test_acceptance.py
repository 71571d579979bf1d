"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with -s or -rA to see them).

Two sub-clauses are refuted by exact arithmetic and are implemented
literally as strict xfail tests right below their criterion, with the
counterexample in the reason string: the degree clause of criterion 5 (a
subshift matrix can cancel the survival denominator below degree r) and
the monotonicity clause of criterion 6 (the relative error of the lower
bound necessarily rises when r leaves the flat log(1/p) stretch).
Everything else runs green at the stated tolerances.
"""

import math
import time
from fractions import Fraction

import pytest

from holerates.extremal import (
    Regime,
    brute_force_gamma_max,
    find_order_switch,
    gamma_max_two_symbols,
    markov_scan,
    max_rate_bounds,
    unbordered_lower_estimate,
)
from holerates.measures import BernoulliMeasure, MarkovChain, hole_measure, is_allowed, markov_weights
from holerates.polynomials import RationalPolynomial, survival_denominator
from holerates.roots import compare, escape_rate, rate_from_denominator
from holerates.survival import (
    build_automaton,
    direct_enumeration,
    empirical_rate,
    genfun,
    survival_series,
)
from holerates.words import AB, Alphabet, Word, enumerate_words

from _reference import (
    brute_period,
    count_roots,
    horner,
    over_powers,
    poly_mul,
    series_terms,
    trinomial,
    unbordered,
)

B = BernoulliMeasure.from_rationals
M = MarkovChain.from_rationals
ABC = Alphabet.of_size(3)


def _report(number: int, started: float, limit: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if elapsed < limit else "FAIL (over time budget)"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {number}: {status} in {elapsed:.2f}s (limit {limit:.0f}s){suffix}")
    assert elapsed < limit


def test_criterion_1_closed_forms_r_le_2():
    started = time.perf_counter()
    for k in range(10):
        p = Fraction(1, 2) + Fraction(k, 20)
        q = 1 - p
        measure = B([p, q])
        pf, qf = float(p), float(q)
        expected = {
            "a": -math.log(qf),
            "b": -math.log(pf),
            "aa": math.log((-qf + math.sqrt(qf * qf + 4 * pf * qf)) / (2 * pf * qf)),
            "bb": math.log((-pf + math.sqrt(pf * pf + 4 * pf * qf)) / (2 * pf * qf)),
            "ab": -math.log(pf),
            "ba": -math.log(pf),
        }
        for text, value in expected.items():
            rate = escape_rate(Word.parse(text, AB), measure)
            assert abs(rate.gamma - value) < 1e-12, (text, p)
    _report(1, started, 1.0, "6 closed forms at 10 values of p")


def test_criterion_2_crossing_at_two_thirds():
    started = time.perf_counter()
    at = B([Fraction(2, 3), Fraction(1, 3)])
    gamma_aa = escape_rate(Word.parse("aa", AB), at)
    gamma_ab = escape_rate(Word.parse("ab", AB), at)
    assert abs(gamma_aa.gamma - gamma_ab.gamma) < 1e-10
    assert compare(gamma_aa, gamma_ab) == 0  # exactly equal: both roots are 3/2
    below = B([Fraction(2, 3) - Fraction(1, 100), Fraction(1, 3) + Fraction(1, 100)])
    above = B([Fraction(2, 3) + Fraction(1, 100), Fraction(1, 3) - Fraction(1, 100)])
    assert compare(
        escape_rate(Word.parse("ab", AB), below), escape_rate(Word.parse("aa", AB), below)
    ) == 1
    assert compare(
        escape_rate(Word.parse("aa", AB), above), escape_rate(Word.parse("ab", AB), above)
    ) == 1
    _report(2, started, 1.0, "order flips exactly at p = 2/3")


def test_criterion_3_regime_table_vs_brute_force():
    started = time.perf_counter()
    tol = Fraction(1, 10**12)
    for r in range(2, 8):
        for k in range(100):
            p = Fraction(1, 2) + Fraction(k, 200)
            measure = B([p, 1 - p])
            best, witnesses = brute_force_gamma_max(r, measure, tol)
            report = gamma_max_two_symbols(r, p, tol)
            assert compare(best, report.gamma) == 0, (r, p)
            witness_set = {word.letters for word in witnesses}
            assert all(word.letters in witness_set for word in report.witnesses), (r, p)
            if report.regime in (Regime.PRIME_FLAT, Regime.TIE):
                assert abs(report.gamma.gamma - math.log(1 / float(p))) < 1e-10, (r, p)
    _report(3, started, 120.0, "600 (r, p) grid points, all 2^r words each")


def test_criterion_4_oracle_equivalence_bernoulli():
    started = time.perf_counter()
    cases = [(AB, B(["3/5", "2/5"])), (ABC, B(["1/2", "3/10", "1/5"]))]
    words_checked = 0
    for alphabet, measure in cases:
        for r in range(1, 6):
            for word in enumerate_words(alphabet, r):
                series = survival_series(word, measure, 20)
                gf = genfun(word, measure)
                assert gf.denominator == survival_denominator(word, measure)
                assert series_terms(gf.series(21)) == list(series.values)
                # one walk to length 12, compared at every length r..12
                assert direct_enumeration(word, measure, 12)[r:] == list(series.totals[: 13 - r])
                words_checked += 1
    _report(4, started, 60.0, f"{words_checked} words, three oracles each")


_MARKOV_MATRICES = [
    ["1/2", "1/2", "1/2", "1/2"],
    ["3/4", "1/4", "1/3", "2/3"],
    ["0", "1", "1/2", "1/2"],
]


def test_criterion_5_markov_oracle():
    started = time.perf_counter()
    words_checked = 0
    for entries in _MARKOV_MATRICES:
        chain = M(entries)
        positive = all(e > 0 for row in chain.matrix for e in row)
        for r in range(1, 5):
            for word in enumerate_words(AB, r):
                if not is_allowed(word, chain):
                    continue
                tau = survival_denominator(word, chain)
                # degree-(r+1) cancellation always holds; the degree is
                # exactly r whenever the matrix is strictly positive
                assert tau.degree <= r
                if positive:
                    assert tau.degree == r
                # the raw totals: the hole b covers everything under the
                # last matrix, which a SurvivalSeries rejects
                raw = build_automaton(word, chain).integer_totals(20 + r)
                gf = genfun(word, chain)
                assert gf.denominator == tau
                assert series_terms(gf.series(21)) == over_powers(raw, chain)[r:]
                words_checked += 1
        if chain.second_eigenvalue == 0:
            product = BernoulliMeasure(chain.alphabet, chain.matrix[0])
            for r in range(1, 5):
                for word in enumerate_words(AB, r):
                    assert survival_denominator(word, chain) == survival_denominator(
                        word, product
                    )
    _report(5, started, 60.0, f"{words_checked} allowed words over three matrices")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "refuted by exact arithmetic: this clause asserts degree(tau) == r for "
        "every allowed word under ((0,1),(1/2,1/2)), but with a forbidden "
        "aa-transition the leading terms cancel further, e.g. tau(bab) = 1 - z/2 "
        "of degree 1 (avoiding bab in that subshift forces all-b interiors, so "
        "survival decays at the bb-rate; verified against the automaton and by "
        "direct enumeration).  Degree r does hold for strictly positive matrices."
    ),
)
def test_criterion_5_degree_clause_as_stated():
    chain = M(["0", "1", "1/2", "1/2"])
    print("ACCEPTANCE 5 (literal degree clause): EXPECTED FAIL - see xfail reason")
    for r in range(1, 5):
        for word in enumerate_words(AB, r):
            if not is_allowed(word, chain):
                continue
            assert survival_denominator(word, chain).degree == r, str(word)


def test_criterion_6_bounds_sandwich_and_decay():
    started = time.perf_counter()
    tol = Fraction(1, 10**14)
    for p in (Fraction(17, 20), Fraction(9, 10), Fraction(19, 20)):
        relative_errors = {}
        for r in range(2, 41):
            gamma = gamma_max_two_symbols(r, p, tol).gamma.gamma
            lower, upper = max_rate_bounds(r, p)
            assert lower - 1e-12 <= gamma <= upper + 1e-12, (p, r)
            estimate = unbordered_lower_estimate(r, p)
            assert estimate <= gamma + 1e-12, (p, r)
            relative_errors[r] = (gamma - estimate) / gamma
        assert relative_errors[40] < relative_errors[10] / 10, p
        # past the flat log(1/p) stretch the decay is clean and monotone
        tail_start = max(5, math.ceil(1 / (1 - float(p))) + 1)
        for r in range(tail_start, 40):
            assert relative_errors[r + 1] <= relative_errors[r] * (1 + 1e-12), (p, r)
    _report(6, started, 60.0, "sandwich at r = 2..40 and order-of-magnitude decay")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "refuted by exact arithmetic: no reading of the lower bound makes its "
        "relative error monotone from r = 5.  The maximal rate equals log(1/p) "
        "on the stretch 1-1/r <= p <= 1-1/(r+1) while every r-dependent lower "
        "bound keeps decreasing, so the relative error must jump when r leaves "
        "that stretch: at p = 17/20 it moves 0.159 -> 0.212 across r = 6 -> 7, "
        "at p = 9/10 it moves 0.170 -> 0.246 across 9 -> 10, at p = 19/20 it "
        "moves 0.214 -> 0.252 across 19 -> 20 (regime-wise bounds also hit "
        "exactly zero inside the stretch)."
    ),
)
def test_criterion_6_monotonicity_clause_as_stated():
    tol = Fraction(1, 10**12)
    print("ACCEPTANCE 6 (literal monotonicity clause): EXPECTED FAIL - see xfail reason")
    for p in (Fraction(17, 20), Fraction(9, 10), Fraction(19, 20)):
        previous = None
        for r in range(5, 41):
            gamma = gamma_max_two_symbols(r, p, tol).gamma.gamma
            relative_error = (gamma - unbordered_lower_estimate(r, p)) / gamma
            if previous is not None:
                assert relative_error <= previous * (1 + 1e-12), (p, r)
            previous = relative_error


def test_criterion_7_order_switch_window():
    started = time.perf_counter()
    first = Word.parse("aabbaa", AB)
    second = Word.parse("baaaab", AB)
    assert brute_period(first.letters) == 4
    assert brute_period(second.letters) == 5
    low, high = find_order_switch(
        first, second, Fraction(70, 100), Fraction(72, 100), width=Fraction(1, 10**4)
    )
    assert Fraction(70, 100) < low <= high < Fraction(72, 100)
    _report(
        7,
        started,
        5.0,
        f"certified crossing inside ({float(low):.6f}, {float(high):.6f})",
    )


def test_criterion_8_markov_length_three_grid():
    started = time.perf_counter()
    tol = Fraction(1, 10**10)
    green_points = []
    for num_a in range(1, 20):
        for num_b in range(1, 20):
            paa, pbb = Fraction(num_a, 20), Fraction(num_b, 20)
            chain = M([paa, 1 - paa, 1 - pbb, pbb])
            scan = markov_scan(3, chain, tol)
            if chain.second_eigenvalue > 0:
                strict = [c for c in scan.pair_checks if c.predicted == 1]
                assert all(c.holds for c in scan.pair_checks), (paa, pbb)
                assert strict, (paa, pbb)
            elif chain.second_eigenvalue < 0:
                if {str(word) for word in scan.argmax} == {"aba", "bab"}:
                    green_points.append((paa, pbb))
    assert green_points, "no grid point with argmax {aba, bab}"
    _report(
        8,
        started,
        30.0,
        f"{len(green_points)} grid points realize the bordered-pair maximum",
    )


def _measure_class_order_sweep():
    """Unbordered words dominate their equal-measure class, and among
    unbordered words more measure means a faster rate."""
    tol = Fraction(1, 10**10)
    sweeps = [
        (AB, B(["1/2", "1/2"])),
        (AB, B(["13/20", "7/20"])),
        (ABC, B(["1/2", "3/10", "1/5"])),
        (ABC, B(["2/5", "7/20", "1/4"])),
    ]
    for alphabet, measure in sweeps:
        for r in range(2, 7):
            if alphabet.size ** r > 800:
                continue
            groups: dict[Fraction, list] = {}
            cache: dict[tuple, object] = {}
            for word in enumerate_words(alphabet, r):
                poly = survival_denominator(word, measure)
                rate = cache.get(poly.coeffs)
                if rate is None:
                    rate = rate_from_denominator(poly, measure, tol)
                    cache[poly.coeffs] = rate
                groups.setdefault(hole_measure(word, measure), []).append((word, rate))
            unbordered_reps = {}
            for mu, members in groups.items():
                unbordered_members = [m for m in members if unbordered(m[0])]
                if not unbordered_members:
                    continue
                rep = unbordered_members[0]
                unbordered_reps[mu] = rep[1]
                for word, rate in members:
                    order = compare(rep[1], rate)
                    if unbordered(word):
                        assert order == 0, (str(word), mu)
                    else:
                        assert order == 1, (str(word), mu)
            ordered = sorted(unbordered_reps.items())
            for (mu_small, rate_small), (mu_big, rate_big) in zip(ordered, ordered[1:]):
                assert compare(rate_big, rate_small) == 1, (r, mu_small, mu_big)


def _single_symbol_run_sweep():
    measure = B(["2/5", "3/10", "1/5", "1/10"])
    for r in range(2, 7):
        rates = [
            escape_rate(Word((i,) * r, measure.alphabet), measure, Fraction(1, 10**10))
            for i in range(4)
        ]
        for faster, slower in zip(rates, rates[1:]):
            assert compare(faster, slower) == 1


def test_criterion_9_property_suites():
    started = time.perf_counter()
    _measure_class_order_sweep()
    _single_symbol_run_sweep()
    # trinomial root counts by Sturm
    for r in range(2, 8):
        threshold = Fraction(1, r) * (1 - Fraction(1, r)) ** (r - 1)
        for m, count in ((threshold / 2, 2), (threshold, 1), (2 * threshold, 0)):
            # every root of m z^r - z + 1 lies below the Cauchy bound 1 + 1/m
            assert count_roots(trinomial(r, m), 0, 1 + 1 / m) == count
    # value at 1 is the hole measure; rate root exceeds 1
    measure = B(["3/5", "2/5"])
    for r in range(1, 7):
        for word in enumerate_words(AB, r):
            tau = survival_denominator(word, measure)
            assert horner(tau, Fraction(1)) == hole_measure(word, measure)
    for text in ("a", "ab", "aabbaa", "bbbb"):
        assert escape_rate(Word.parse(text, AB), measure).lower > 1
    # run-word numerator identity
    for num in (1, 7, 13, 19):
        p = Fraction(num, 20)
        run_measure = B([p, 1 - p])
        for r in range(1, 9):
            run = Word((0,) * r, AB)
            product = poly_mul(RationalPolynomial([1, -p]), survival_denominator(run, run_measure))
            assert product == trinomial(r + 1, p**r * (1 - p))
    # Markov partition of unity
    for entries in _MARKOV_MATRICES:
        chain = M(entries)
        for r in range(1, 11):
            allowed = [word for word in enumerate_words(AB, r) if is_allowed(word, chain)]
            assert sum(markov_weights(word, chain).measure for word in allowed) == 1
    _report(9, started, 120.0, "ordering laws, root counts, identities, partition of unity")


def test_criterion_10_empirical_convergence():
    started = time.perf_counter()
    series = survival_series(Word.parse("aa", AB), B(["1/2", "1/2"]), 200)
    estimate = empirical_rate(series)
    certified = math.log(math.sqrt(5) - 1)
    assert abs(estimate.ratio_estimate - certified) < 1e-6
    assert estimate.converged
    _report(10, started, 5.0, "ratio estimator at N = 200 against log(sqrt(5)-1)")
