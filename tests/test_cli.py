import concurrent.futures
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import holerates
from holerates import cli, extremal, polynomials, survival
from holerates.cli import frac_str, main
from holerates.measures import BernoulliMeasure
from holerates.polynomials import RationalPolynomial
from holerates.roots import escape_rate
from holerates.words import AB, Alphabet, Word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRate:
    def test_ab_rate(self, capsys):
        code, out, _ = run(capsys, "rate", "--word", "ab", "--bernoulli", "3/5,2/5")
        assert code == 0
        payload = json.loads(out)
        assert payload["z0_lower"] == "5/3"
        assert payload["exact"] is True
        assert math.isclose(payload["gamma"], math.log(5 / 3), rel_tol=1e-12)

    def test_markov_zero_eigenvalue_matches_bernoulli(self, capsys):
        code, markov_out, _ = run(
            capsys, "rate", "--word", "aa", "--markov", "1/2,1/2,1/2,1/2"
        )
        assert code == 0
        code, bern_out, _ = run(capsys, "rate", "--word", "aa", "--p", "1/2")
        assert code == 0
        markov, bern = json.loads(markov_out), json.loads(bern_out)
        assert markov["denominator"] == bern["denominator"]
        assert markov["z0_lower"] == bern["z0_lower"]

    @pytest.mark.parametrize(
        "argv",
        [["rate", "--word", "aabab"], ["oracle", "--word", "aab"], ["oracle", "--word", "a", "--enum-cap", "1"]],
    )
    def test_chain_with_equal_rows_prints_the_product_measure_bytes(self, capsys, argv):
        chain = run(capsys, *argv, "--markov", "7/10,3/10,7/10,3/10")
        assert chain == run(capsys, *argv, "--p", "7/10")
        assert chain[0] == 0

    def test_allowed_word_with_zero_entry_computes(self, capsys):
        code, out, _ = run(capsys, "rate", "--word", "aba", "--markov", "0,1,1/2,1/2")
        assert code == 0
        assert json.loads(out)["gamma"] > 0

    def test_forbidden_word_exit_code(self, capsys):
        code, _, err = run(capsys, "rate", "--word", "aab", "--markov", "0,1,1/2,1/2")
        assert code == 2
        assert "forbidden" in err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "rate", "--word", "ab", "--bernoulli", "nope")
        assert code == 1

    def test_measure_required(self, capsys):
        code, _, err = run(capsys, "rate", "--word", "ab")
        assert code == 1
        assert "exactly one" in err

    def test_root_far_above_two_to_the_twenty(self, capsys):
        # tau(z) = 1 - z/500000000: the root is 5e8
        code, out, _ = run(
            capsys,
            "rate", "--word", "a",
            "--bernoulli", "499999999/500000000,1/1000000000,1/1000000000",
        )
        assert code == 0
        payload = json.loads(out)
        assert Fraction(payload["z0_lower"]) <= 500000000 <= Fraction(payload["z0_upper"])

    def test_tiny_hole_measure_root_above_one(self, capsys):
        # hole measure 1e-216: z0 - 1 is far below any fixed refinement depth
        code, out, _ = run(
            capsys, "rate", "--word", "b" * 24, "--bernoulli", "999999999/1000000000,1/1000000000"
        )
        assert code == 0
        assert Fraction(json.loads(out)["z0_lower"]) > 1

    @pytest.mark.parametrize(
        "word,p", [("b" * 159 + "a", Fraction(1, 10**27)), ("b" * 40 + "a", Fraction(1, 10**120))]
    )
    def test_integers_past_the_interpreter_digit_limit(self, capsys, word, p):
        # coefficients and enclosure ends with more than 4300 digits print in
        # full; Decimal parses them back, as int(str) has the same limit
        code, out, err = run(capsys, "rate", "--word", word, "--p", frac_str(p))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        measure = BernoulliMeasure.from_rationals([p, 1 - p])
        result = escape_rate(Word.parse(word, AB), measure)
        poly = polynomials.survival_denominator(Word.parse(word, AB), measure)
        expected = [*poly.coeffs, result.lower, result.upper]
        printed = [*payload["denominator"], payload["z0_lower"], payload["z0_upper"]]
        assert len(printed) == len(expected) == len(word) + 3
        longest = max(len(text) for text in printed)
        assert longest > 4300
        for text, value in zip(printed, expected):
            num, den = text.split("/")
            assert (Decimal(num), Decimal(den)) == (Decimal(value.numerator), Decimal(value.denominator))

    def test_float_probability_rejected(self, capsys):
        code, _, err = run(capsys, "rate", "--word", "ab", "--bernoulli", "0.6,0.4")
        # decimal strings are exact, so this parses; binary floats only
        # enter through JSON configs
        assert code == 0


class TestScan:
    def test_cap_exit_code(self, capsys, monkeypatch):
        # every command that enumerates words checks the cap before any walk
        def refuse(*args):
            raise AssertionError("words were walked before the cap check")

        monkeypatch.setattr(extremal, "border_walk", refuse)
        monkeypatch.setattr(polynomials, "border_walk", refuse)
        for argv, message in (
            (["scan", "--r", "8", "--p", "1/2"], "2^8 = 256"),
            (["markov-scan", "--r", "8", "--markov", "3/5,2/5,2/7,5/7"], "2^8 = 256"),
            (["families", "--r", "8", "--p", "7/10"], "2^8 = 256"),
            (["scan", "--r", "5", "--bernoulli", "1/2,3/10,1/5"], "3^5 = 243"),
            (["figure", "fig1", "--grid", "1/2:3/5:1/10"], "2^4 = 16"),
        ):
            code, out, err = run(capsys, *argv, "--cap", "15")
            assert (code, out) == (4, "")
            assert err == f"enumeration cap: {message} words exceeds the cap of 15\n"

    def test_survival_denominators_never_rescaled(self, capsys, monkeypatch):
        # every denominator is built from integers, and the scan reads only
        # those: no polynomial from Fraction coefficients, no coeffs made
        calls = []
        cls = polynomials.RationalPolynomial
        init, coeffs = cls.__init__, cls.coeffs

        def counting_init(poly, values):
            calls.append("__init__")
            init(poly, values)

        def counting_coeffs(poly):
            calls.append("coeffs")
            return coeffs.fget(poly)

        monkeypatch.setattr(cls, "__init__", counting_init)
        monkeypatch.setattr(cls, "coeffs", property(counting_coeffs))
        code, out, _ = run(capsys, "scan", "--r", "8", "--p", "7/10")
        assert code == 0 and len(out.splitlines()) == 1 + 2**8
        assert calls == []

    def test_r1_table(self, capsys):
        code, out, _ = run(capsys, "scan", "--r", "1", "--bernoulli", "3/5,2/5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("word,measure,mu_tilde,gamma_lower")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "a"
        assert math.isclose(float(first[3]), -math.log(0.4), rel_tol=1e-10)

    def test_deterministic_output(self, capsys):
        args = ("scan", "--r", "3", "--p", "0.7", "--tol", "1e-10")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize(
        "sources",
        [
            ("--grid", "1/2:1/2:1/10", "--p", "3/4"),
            ("--grid", "1/2:1/2:1/10", "--markov-grid", "1/2:1/2:1/10"),
            ("--markov-grid", "1/2:1/2:1/10", "--p", "3/4"),
            ("--markov-grid", "1/2:1/2:1/10", "--markov", "1/2,1/2,1/2,1/2"),
            ("--grid", "1/2:1/2:1/10", "--bernoulli", "1/2,1/2"),
        ],
    )
    def test_two_measure_sources_are_refused(self, capsys, sources):
        # one would silently be dropped
        code, out, err = run(capsys, "scan", "--r", "2", *sources)
        assert (code, out) == (1, "")
        assert err == "error: scan takes exactly one of --grid, --markov-grid or a measure flag\n"

    def test_grid_jobs_equivalence(self, capsys):
        base = ("scan", "--r", "2", "--grid", "0.5:0.55:0.01", "--tol", "1e-10")
        _, serial, _ = run(capsys, *base, "--jobs", "1")
        _, parallel, _ = run(capsys, *base, "--jobs", "2")
        assert serial == parallel

    def test_pool_is_bounded_by_points_and_cpus(self, capsys, monkeypatch):
        # a stand-in pool records its size and maps serially: no process starts
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # the CLI imports the pool where it runs one, so the stand-in goes on its module
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        two_points = ("scan", "--r", "4", "--grid", "1/2:3/5:1/10")
        _, serial, _ = run(capsys, *two_points, "--jobs", "1")
        for cpus, argv, expected in (
            (4, (*two_points, "--jobs", "5000"), [2]),
            (4, ("scan", "--r", "2", "--grid", "1/2:9/10:1/10", "--jobs", "5000"), [4]),
            (4, (*two_points, "--jobs", "0"), []),
            (1, (*two_points, "--jobs", "5000"), []),
            (None, (*two_points, "--jobs", "5000"), []),
        ):
            sizes.clear()
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            code, out, _ = run(capsys, *argv)
            assert code == 0 and sizes == expected
            if argv[:5] == two_points:
                assert out == serial

    def test_markov_grid(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--r", "2", "--markov-grid", "1/4:3/4:1/4", "--tol", "1e-10"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("pi_aa,pi_bb,word")
        assert len(lines) == 1 + 9 * 4


class TestMax:
    def test_measure_max_regime(self, capsys):
        code, out, _ = run(capsys, "max", "--r", "4", "--p", "0.9")
        payload = json.loads(out)
        assert code == 0
        assert payload["regime"] == "MEASURE_MAX"
        assert payload["witnesses"] == ["aaaa"]

    def test_flat_regime(self, capsys):
        code, out, _ = run(capsys, "max", "--r", "5", "--p", "0.8")
        payload = json.loads(out)
        assert payload["regime"] == "PRIME_FLAT"
        assert math.isclose(payload["gamma"], math.log(1.25), rel_tol=1e-12)

    def test_multi_symbol_dispatch(self, capsys):
        code, out, _ = run(
            capsys, "max", "--r", "3", "--bernoulli", "7/10,3/20,3/20"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["regime"] == "MEASURE_MAX"
        assert payload["reason"] == "q < p(1-p)"

    def test_second_symbol_more_probable(self, capsys):
        # the witnesses are words over the given alphabet, built from its
        # most probable symbol y; the rate is that of --p 4/5
        _, out, _ = run(capsys, "max", "--r", "5", "--bernoulli", "1/5,4/5", "--symbols", "xy")
        payload = json.loads(out)
        _, reference, _ = run(capsys, "max", "--r", "5", "--p", "4/5")
        expected = json.loads(reference)
        assert payload["witnesses"] == ["yyyyx", "xyyyy"]
        for key in ("regime", "reason", "z0_lower", "z0_upper"):
            assert payload[key] == expected[key]

    def test_wrong_comparison_exits_internal(self, capsys, monkeypatch):
        # a reversed verdict contradicts the two-symbol closed form: the
        # check fails, and the CLI exits 5 with one stderr line
        compare = extremal.compare
        monkeypatch.setattr(extremal, "compare", lambda a, b: -compare(a, b))
        code, out, err = run(capsys, "max", "--r", "5", "--p", "7/10")
        assert (code, out) == (5, "")
        assert err.startswith("internal check failed: r = 5, p = 7/10: closed form PRIME_LOW")
        assert err.count("\n") == 1


class TestBounds:
    def test_columns_and_sandwich(self, capsys):
        code, out, _ = run(capsys, "bounds", "--p", "9/10", "--r", "2:12")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["p", "r", "regime", "lower", "upper", "gamma"]
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["lower"]) - 1e-12 <= float(row["gamma"]) <= float(row["upper"]) + 1e-12

    def test_flat_rows_have_zero_error(self, capsys):
        _, out, _ = run(capsys, "bounds", "--p", "9/10", "--r", "9:10")
        lines = out.strip().splitlines()
        for line in lines[1:]:
            row = line.split(",")
            assert row[2] == "PRIME_FLAT" or row[2] == "TIE"
            assert float(row[6]) == 0.0  # rel_err_lower

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("r", ["5:3", "2:3:4"])
    def test_malformed_range_is_a_usage_error(self, capsys, fmt, r):
        code, out, err = run(capsys, "bounds", "--p", "1/2", "--r", r, "--format", fmt)
        assert (code, out) == (1, "")
        assert "N or lo:hi with lo <= hi" in err


class TestOracle:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--word", "aabbaa", "--bernoulli", "7/10,3/10", "--n", "12"
        )
        assert code == 0
        payload = json.loads(out)
        assert all(
            payload["checks"][key]
            for key in (
                "genfun_series_matches_automaton",
                "direct_enumeration_matches",
                "word_equations_match",
                "denominator_is_rate_polynomial",
            )
        )

    def test_markov_oracle(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--word", "ab", "--markov", "3/4,1/4,1/3,2/3", "--n", "15"
        )
        assert code == 0
        assert json.loads(out)["checks"]["genfun_series_matches_automaton"]

    def test_series_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--word", "a", "--bernoulli", "1/2,1/2", "--n", "10",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,p_n,p_n_float,ratio_estimate"
        assert lines[1].split(",")[1] == "1/2"
        assert lines[3].split(",")[1] == "1/8"

    def test_twenty_symbols(self, capsys):
        # hole ab keeps one letter per window state: 20 states walk every length
        code, out, _ = run(
            capsys,
            "oracle", "--word", "ab", "--bernoulli", ",".join(["1/20"] * 20),
            "--symbols", "abcdefghijklmnopqrst", "--n", "10",
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert checks.pop("direct_enumeration_matches_up_to_length") == 12
        assert all(checks.values())

    def test_one_enumeration_walk_per_run(self, capsys, monkeypatch):
        calls = []
        walk = survival.direct_enumeration

        def counted(*args, **kwargs):
            calls.append(args)
            return walk(*args, **kwargs)

        monkeypatch.setattr(survival, "direct_enumeration", counted)
        code, out, _ = run(capsys, "oracle", "--word", "aab", "--p", "3/5", "--n", "20")
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out)["checks"]["direct_enumeration_matches_up_to_length"] == 23

    def test_hole_covering_everything_exits_no_root(self, capsys):
        # with the aa-transition forbidden every sequence meets b: the
        # denominator is rated before the series, so oracle exits as rate does
        for command in ("oracle", "rate"):
            code, out, err = run(capsys, command, "--word", "b", "--markov", "0,1,1/2,1/2")
            assert (code, out) == (3, "")
            assert err.startswith("no positive root")

    #: A product-measure hole and a chain hole whose cross-checks are broken.
    BROKEN = [["--word", "aabbaa", "--p", "7/10"], ["--word", "aabaa", "--markov", "3/5,2/5,2/7,5/7"]]

    @staticmethod
    def _failed_checks(capsys, argv):
        """The checks dict of an oracle run that exits 5, from its one stderr line."""
        code, out, err = run(capsys, "oracle", *argv)
        assert (code, out) == (5, "")
        assert err.startswith("internal check failed: oracle cross-check failed: {")
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("argv", BROKEN, ids=["bernoulli", "chain"])
    @pytest.mark.parametrize(
        "change", [lambda q: q[:-1] + [q[-1] + 1], lambda q: q[:-1]], ids=["last-term", "one-term-short"]
    )
    def test_changed_series_fails_the_cross_check(self, capsys, monkeypatch, argv, change):
        series = survival.RationalGenFun.series

        def changed(self, count):
            q, d0 = series(self, count)
            return change(q), d0

        monkeypatch.setattr(survival.RationalGenFun, "series", changed)
        err = self._failed_checks(capsys, argv)
        assert "'genfun_series_matches_automaton': False" in err
        assert "'word_equations_match': False" in err

    @pytest.mark.parametrize("argv", BROKEN, ids=["bernoulli", "chain"])
    def test_changed_enumeration_fails_the_cross_check(self, capsys, monkeypatch, argv):
        walk = survival.direct_enumeration

        def changed(*args, **kwargs):
            totals = walk(*args, **kwargs)
            return totals[:-1] + [totals[-1] + 1]

        monkeypatch.setattr(survival, "direct_enumeration", changed)
        assert "'direct_enumeration_matches': False" in self._failed_checks(capsys, argv)

    @pytest.mark.parametrize("argv", BROKEN, ids=["bernoulli", "chain"])
    def test_changed_denominator_fails_the_cross_check(self, capsys, monkeypatch, argv):
        rate = cli.escape_rate

        def changed(*args, **kwargs):
            result = rate(*args, **kwargs)
            ints = result.poly.ints
            return dataclasses.replace(result, poly=RationalPolynomial([*ints[:-1], ints[-1] + 1]))

        monkeypatch.setattr(cli, "escape_rate", changed)
        err = self._failed_checks(capsys, argv)
        assert "'genfun_series_matches_automaton': True" in err
        assert "'word_equations_match': False" in err
        assert "'denominator_is_rate_polynomial': False" in err

    @pytest.mark.parametrize("argv", BROKEN, ids=["bernoulli", "chain"])
    def test_one_equation_solve_per_run(self, capsys, monkeypatch, argv):
        calls = []
        solve, expand = survival.genfun_from_word_equations, survival.RationalGenFun.series

        def counted_solve(*args):
            calls.append("solve")
            return solve(*args)

        def counted_expand(self, count):
            calls.append("expand")
            return expand(self, count)

        monkeypatch.setattr(survival, "genfun_from_word_equations", counted_solve)
        monkeypatch.setattr(survival.RationalGenFun, "series", counted_expand)
        code, out, _ = run(capsys, "oracle", *argv, "--n", "20")
        assert code == 0
        assert calls == ["solve", "expand"]
        assert all(json.loads(out)["checks"].values())

    def test_enum_cap_bounds_the_enumerated_lengths(self, capsys):
        argv = ["oracle", "--word", "ab", "--p", "1/2", "--n", "10"]
        # two window states from length 1 on: a cap below 2 stops the walk
        # at length 0, short of r, so no length is matched (a cap below 1 is
        # a usage error, see test_inputs_outside_the_domain_exit_with_one_line)
        for cap, expected in ((1 << 16, 12), (2, 12), (1, 0)):
            code, out, _ = run(capsys, *argv, "--enum-cap", str(cap))
            assert code == 0
            assert json.loads(out)["checks"]["direct_enumeration_matches_up_to_length"] == expected

    def test_json_run_builds_no_fraction_view(self, capsys, monkeypatch):
        # the estimates read logs of the series' integers; only the CSV
        # table prints the p_n as Fractions
        def refuse(self):
            raise AssertionError("read SurvivalSeries.values")

        monkeypatch.setattr(survival.SurvivalSeries, "values", property(refuse))
        argv = ["oracle", "--word", "aabbaa", "--bernoulli", "7/10,3/10"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert all(json.loads(out)["checks"].values())
        assert run(capsys, *argv, "--format", "csv") == (5, "", "internal check failed: read SurvivalSeries.values\n")


class TestFamiliesCommand:
    def test_r4(self, capsys):
        code, out, _ = run(capsys, "families", "--r", "4", "--bernoulli", "3/5,2/5")
        payload = json.loads(out)
        assert code == 0
        assert payload["max_unbordered"] == ["aaab", "baaa"]
        assert payload["max_measure"] == ["aaaa"]


class TestMarkovScanCommand:
    def test_green_region_point(self, capsys):
        code, out, _ = run(
            capsys,
            "markov-scan", "--r", "3", "--markov", "1/10,9/10,9/10,1/10",
            "--format", "json", "--tol", "1e-10",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["argmax"] == ["aba", "bab"]
        assert all(check["holds"] for check in payload["pair_checks"])

    def test_pair_checks_computed_only_for_json(self, capsys, monkeypatch):
        calls = []
        pair_checks = extremal._pair_checks

        def counted(*args):
            calls.append(args)
            return pair_checks(*args)

        monkeypatch.setattr(extremal, "_pair_checks", counted)
        argv = ("markov-scan", "--r", "5", "--markov", "2/5,3/5,1/3,2/3")
        assert run(capsys, *argv)[0] == 0
        assert calls == []
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and len(calls) == 1
        assert json.loads(out)["pair_checks"]


#: The columns a table row takes from its class and rank, after its word.
TABLE_TAIL = ["measure", "mu_tilde", "gamma_lower", "gamma_upper", "prime", "min_period", "rank"]


class TestTables:
    """Ordering tables: one row per word, whose shared columns are written
    once per class; CSV and JSON must hold the same rows."""

    @pytest.mark.parametrize(
        "argv, prefix, key",
        [
            (("scan", "--r", "6", "--p", "7/10"), [], None),
            (("scan", "--r", "3", "--bernoulli", "3/5,2/5", "--symbols", '"x'), [], None),
            (("scan", "--r", "3", "--markov-grid", "1/4:3/4:1/4"), ["pi_aa", "pi_bb"], None),
            (("markov-scan", "--r", "6", "--markov", "3/5,2/5,2/7,5/7"), [], "rows"),
            (("figure", "fig1", "--grid", "1/2:11/20:1/20"), ["p"], None),
        ],
        ids=["scan", "quoted symbols", "markov grid", "markov-scan", "fig1"],
    )
    def test_csv_and_json_hold_the_same_rows(self, capsys, argv, prefix, key):
        code, text, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0 and next(csv.reader(io.StringIO(text))) == [*prefix, "word", *TABLE_TAIL]
        code, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        records = payload if key is None else payload[key]
        assert code == 0 and records
        assert list(csv.DictReader(io.StringIO(text))) == [
            {name: str(value) for name, value in record.items()} for record in records
        ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_tables_print_the_same_bytes_on_two_workers(self, capsys, monkeypatch, fmt):
        # each worker pickles its point's rows, with the tails they share
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ("scan", "--r", "5", "--grid", "1/2:13/20:1/20", "--format", fmt)
        code, serial, _ = run(capsys, *argv, "--jobs", "1")
        assert code == 0
        assert run(capsys, *argv, "--jobs", "2") == (0, serial, "")

    @given(
        st.lists(st.text(st.sampled_from('ab,"\r\n x1-é'), min_size=1, max_size=2), min_size=2, max_size=3, unique=True),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_csv_text_is_what_the_csv_writer_writes(self, symbols, grid):
        # a word of letters and digits goes in bare; any other is quoted, or
        # not, as csv.writer decides
        measure = BernoulliMeasure.from_rationals(
            [Fraction(1, len(symbols))] * len(symbols), Alphabet(tuple(symbols))
        )
        points = [({"p": "1/2"}, measure), ({"p": "3/4"}, measure)] if grid else [({}, measure)]
        table = cli._sweep(2, points, Fraction(1, 10**10), 1 << 10, 1)
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(table.columns)
        writer.writerows(record.values() for record in table.dicts())
        assert table.csv_text() == buffer.getvalue()


class TestFigure:
    def test_relerr_table(self, capsys):
        code, out, _ = run(capsys, "figure", "relerr", "--tol", "1e-10")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 3 * 39

    def test_fig1_small_grid(self, capsys):
        code, out, _ = run(capsys, "figure", "fig1", "--grid", "1/2:11/20:1/20", "--tol", "1e-10")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 2 * 16

    def test_markov_grid_figure(self, capsys):
        code, out, _ = run(
            capsys, "figure", "markov-r3", "--grid", "1/4:3/4:1/4", "--tol", "1e-10"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 9 * 8


class TestConfig:
    def test_config_provides_defaults(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"word": "ab", "bernoulli": "3/5,2/5"}))
        code, out, _ = run(capsys, "--config", str(config), "rate")
        assert code == 0
        assert json.loads(out)["z0_lower"] == "5/3"

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"word": "ab", "bernoulli": "3/5,2/5"}))
        code, out, _ = run(capsys, "--config", str(config), "rate", "--word", "aa")
        assert code == 0
        assert json.loads(out)["word"] == "aa"

    def test_binary_float_needs_flag(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"word": "ab", "p": 0.5}))
        code, _, err = run(capsys, "--config", str(config), "rate")
        assert code == 1
        assert "allow-float" in err
        code, out, _ = run(capsys, "--allow-float", "--config", str(config), "rate")
        assert code == 0
        assert json.loads(out)["z0_lower"] == "2/1"

    @pytest.mark.parametrize("form", ["separate", "equals"])
    def test_both_config_forms_are_read(self, capsys, tmp_path, form):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"word": "ab", "bernoulli": "3/5,2/5"}))
        flag = ["--config", str(config)] if form == "separate" else [f"--config={config}"]
        code, out, _ = run(capsys, *flag, "rate")
        assert code == 0
        assert json.loads(out)["z0_lower"] == "5/3"

    def test_config_must_hold_an_object(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("[1, 2]")
        code, _, err = run(capsys, "--config", str(config), "rate")
        assert code == 1
        assert "config file must hold a JSON object" in err

    @pytest.mark.parametrize("argv", [["--config"], ["--config=", "rate"]])
    def test_config_without_path(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "--config needs a file path" in capsys.readouterr().err

    # an abbreviation would slip past the exact match that finds --config
    @pytest.mark.parametrize("flags", [["--conf"], ["--allow-fl", "--config"]])
    def test_abbreviated_top_level_flag_is_a_usage_error(self, capsys, tmp_path, flags):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"word": "ab", "bernoulli": "3/5,2/5"}))
        with pytest.raises(SystemExit) as exc:
            main([*flags, str(config), "rate"])
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_supplies_required_flags(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"r": 3, "p": "1/2"}))
        code, out, _ = run(capsys, "--config", str(config), "max")
        assert code == 0
        assert (code, out) == run(capsys, "max", "--r", "3", "--p", "1/2")[:2]
        config.write_text(json.dumps({"p": "1/2"}))
        for argv in (["--config", str(config), "max"], ["max", "--p", "1/2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            assert "required: --r" in capsys.readouterr().err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rate.json"
        code, out, _ = run(
            capsys, "rate", "--word", "ab", "--p", "3/5", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["z0_lower"] == "5/3"


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--word", "ab", "--p", "3/5", "--cap", "5"],
        ["families", "--r", "3", "--p", "3/5", "--tol", "1e-10"],
    ],
)
def test_flags_a_command_never_reads_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["rate", "--word", "ab", "--p", "3/5", "--tol", "0"], "tolerance must lie in (0, 1/1000000]"),
        (["rate", "--word", "ab", "--p", "3/5", "--tol", "1/1000"], "tolerance must lie in (0, 1/1000000]"),
        # a cap below one window state would compare nothing
        (["oracle", "--word", "ab", "--p", "3/5", "--enum-cap", "0"], "--enum-cap must be an integer >= 1"),
        (["oracle", "--word", "ab", "--p", "3/5", "--enum-cap", "-5"], "--enum-cap must be an integer >= 1"),
        (["max", "--r", "3", "--markov", "2/5,3/5,1/3,2/3"], "max handles product measures; use markov-scan for chains"),
        (["families", "--r", "3", "--markov", "2/5,3/5,1/3,2/3"], "families is defined for product measures"),
        (["markov-scan", "--r", "3", "--p", "7/10"], "markov-scan requires --markov"),
        (["scan", "--r", "3", "--grid", "1/2:3/5"], "grid must look like lo:hi:step, got '1/2:3/5'"),
        (["scan", "--r", "3", "--grid", "3/5:1/2:1/50"], "grid needs step > 0 and hi >= lo"),
        # a grid is only lo:hi:step, with no name in front
        (["scan", "--r", "3", "--grid", "p=1/2:3/5:1/50"], "cannot parse 'p=1/2' as an exact rational"),
    ],
)
def test_inputs_outside_the_domain_exit_with_one_line(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


class TestSharedParser:
    def test_config_defaults_do_not_leak(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"word": "ab", "bernoulli": "3/5,2/5"}))
        code, _, _ = run(capsys, f"--config={config}", "rate")
        assert code == 0
        code, _, err = run(capsys, "rate", "--p", "3/5")
        assert code == 1
        assert "--word is required" in err

    def test_repeated_calls_print_identical_bytes(self, capsys):
        argv = ("oracle", "--word", "aab", "--p", "3/5", "--n", "12")
        first = run(capsys, *argv)
        assert first[0] == 0
        assert run(capsys, *argv) == first

    def test_import_builds_no_parser(self):
        _run_script(
            """
            import argparse
            built = []
            init = argparse.ArgumentParser.__init__
            def counting_init(self, *args, **kwargs):
                built.append(self)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting_init
            import holerates.cli as cli
            assert not built, "import built a parser"
            argv = ["rate", "--word", "ab", "--p", "3/5", "--out", __import__("os").devnull]
            assert cli.main(argv) == 0
            once = len(built)
            assert cli.main(argv) == 0
            assert len(built) == once > 0, (once, len(built))
            """
        )


def _python(*argv):
    """Run a fresh interpreter that imports this checkout; its stdout."""
    src = str(Path(holerates.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _run_script(script):
    """Run the script in a fresh interpreter that imports this checkout."""
    _python("-c", textwrap.dedent(script))


def test_import_loads_no_numpy():
    # the package never imports numpy
    _run_script(
        """
        import sys
        import holerates.cli
        assert "numpy" not in sys.modules
        """
    )


def test_oracle_runs_with_numpy_blocked():
    _run_script(
        """
        import sys
        sys.modules["numpy"] = None  # any import of numpy now raises ImportError
        import holerates
        import holerates.cli
        assert holerates.cli.main(["oracle", "--word", "aab", "--p", "3/5"]) == 0
        """
    )


def test_locate_order_switch_example():
    # the example in the script's docstring
    script = Path(__file__).resolve().parent.parent / "scripts" / "locate_order_switch.py"
    out = _python(str(script), "aabbaa", "baaaab", "--window", "0.70:0.72")
    assert "crossing enclosed in (144339/204800, 1154713/1638400)\n" in out
