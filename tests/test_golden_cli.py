"""Byte-for-byte CLI output against files under ``tests/golden/``.

Each file holds stdout of its command as printed by the code before the
change that added the case; any change that only touches how results are
computed (roots, scans, the survival oracles) must leave every byte as it
was.  Rewrite them (``python tests/test_golden_cli.py``) only for an
intended change of output; ``python tests/test_golden_cli.py NAME...``
writes only the named cases, which is how a new case is captured before
the change it guards.

Bytes cannot tell a right answer from a wrong one, so the files that print
an enclosure are also checked for truth: the gamma bounds against the log
of the enclosure at 300 bits, and the printed denominator's root inside it.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from holerates.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: A fixed pseudo-random word of length 60.
RANDOM60 = "abbbaabbbaabbbbaaabbaabaababaaabbabbabbbbbbabaaaaaaababbaaba"

CASES = {}
for _name, _word in (("a59b", "a" * 59 + "b"), ("aab20", "aab" * 20), ("random60", RANDOM60)):
    CASES[f"rate_{_name}_bernoulli"] = ["rate", "--word", _word, "--bernoulli", "7/10,3/10"]
    CASES[f"rate_{_name}_markov"] = ["rate", "--word", _word, "--markov", "3/4,1/4,1/3,2/3"]
CASES["scan_r6"] = ["scan", "--r", "6", "--p", "7/10"]
CASES["markov_scan_r5"] = ["markov-scan", "--r", "5", "--markov", "2/5,3/5,1/3,2/3"]
CASES["max_r5"] = ["max", "--r", "5", "--p", "0.8"]
CASES["bounds"] = ["bounds", "--p", "9/10", "--r", "2:12"]
CASES["oracle_aabbaa"] = ["oracle", "--word", "aabbaa", "--bernoulli", "7/10,3/10"]
CASES["scan_r10_half"] = ["scan", "--r", "10", "--p", "1/2"]
CASES["markov_scan_r8_forbidden"] = ["markov-scan", "--r", "8", "--markov", "0,1,1/2,1/2"]
CASES["scan_r4_grid"] = ["scan", "--r", "4", "--grid", "1/2:3/5:1/50"]
CASES["families_r8"] = ["families", "--r", "8", "--p", "7/10"]
CASES["markov_scan_r5_json"] = [
    "markov-scan", "--r", "5", "--markov", "2/5,3/5,1/3,2/3", "--format", "json"
]
CASES["oracle_ab_forbidden"] = ["oracle", "--word", "ab", "--markov", "0,1,1/2,1/2"]
CASES["oracle_abc_ternary"] = ["oracle", "--word", "abc", "--bernoulli", "1/2,3/10,1/5"]
CASES["figure_markov_r3"] = ["figure", "markov-r3"]
CASES["rate_abcab_ternary"] = ["rate", "--word", "abcab", "--bernoulli", "1/2,1/3,1/6"]
CASES["rate_bab_forbidden"] = ["rate", "--word", "bab", "--markov", "0,1,1/2,1/2"]
CASES["rate_abba_markov"] = ["rate", "--word", "abba", "--markov", "2/5,3/5,1/3,2/3"]
CASES["oracle_abab_markov_cap1000"] = [
    "oracle", "--word", "abab", "--markov", "2/5,3/5,1/3,2/3", "--n", "20", "--enum-cap", "1000"
]
#: 8 window states exceed --enum-cap 4 at length 3, short of r = 4, so the
#: walk matches no length and reports 0.
CASES["oracle_abab_markov_cap4"] = [
    "oracle", "--word", "abab", "--markov", "2/5,3/5,1/3,2/3", "--n", "20", "--enum-cap", "4"
]
CASES["max_r4_measure_max"] = ["max", "--r", "4", "--p", "9/10"]
CASES["max_r4_tie"] = ["max", "--r", "4", "--p", "4/5"]
CASES["max_r3_ternary_q_small"] = ["max", "--r", "3", "--bernoulli", "7/10,1/5,1/10"]
CASES["max_r3_ternary_p_large"] = ["max", "--r", "3", "--bernoulli", "17/20,1/10,1/20"]
CASES["max_r4_ternary_direct"] = ["max", "--r", "4", "--bernoulli", "3/5,39/100,1/100"]
CASES["figure_relerr"] = ["figure", "relerr"]
CASES["markov_scan_r8_uniform"] = ["markov-scan", "--r", "8", "--markov", "1/2,1/2,1/2,1/2"]
CASES["scan_r5_ternary_uniform"] = ["scan", "--r", "5", "--bernoulli", "1/3,1/3,1/3"]
#: The benchmark's chain table: its 292 classes have 208 distinct roots, 84
#: of them shared by two classes, so one root object serves the columns of
#: several classes.
CASES["markov_scan_r10_tilted"] = ["markov-scan", "--r", "10", "--markov", "3/5,2/5,2/7,5/7"]
#: Bordered holes for the oracle: a chain hole with equal ends (degree 5),
#: a chain hole whose denominator drops to degree 4 on a zero transition, a
#: bordered ternary hole, and a binary hole of length 12.
CASES["oracle_aabaa_markov"] = ["oracle", "--word", "aabaa", "--markov", "3/5,2/5,2/7,5/7"]
CASES["oracle_abbab_forbidden"] = ["oracle", "--word", "abbab", "--markov", "0,1,1/2,1/2"]
CASES["oracle_abcab_ternary"] = ["oracle", "--word", "abcab", "--bernoulli", "1/2,3/10,1/5"]
CASES["oracle_aabaab_r12"] = ["oracle", "--word", "aabaabaabaab", "--p", "7/10"]
#: A one-letter chain hole: the walk keeps one letter of window (k = 1),
#: and each length's fold drops the letter that picked the row.
CASES["oracle_a_markov"] = ["oracle", "--word", "a", "--markov", "3/4,1/4,1/3,2/3"]
#: The first non-uniform ternary scan: class weights differ per letter.
CASES["scan_r4_ternary"] = ["scan", "--r", "4", "--bernoulli", "1/2,3/10,1/5"]
#: A chain oracle on a hole that starts with b: the first letter's
#: stationary weight, and the row state 0 reads after a.
CASES["oracle_baab_markov"] = ["oracle", "--word", "baab", "--markov", "3/4,1/4,1/3,2/3"]
#: Four letters: the first cases where every row of the factor table sums
#: to d over an alphabet of more than three letters.
CASES["rate_abcd_quaternary"] = ["rate", "--word", "abcd", "--bernoulli", "1/10,1/5,3/10,2/5"]
CASES["scan_r3_quaternary"] = ["scan", "--r", "3", "--bernoulli", "2/5,3/10,1/5,1/10"]
#: Holes longer than 60: denominators of degree 100 to 200, whose roots are
#: isolated at dyadic points with thousands of bits.
CASES["rate_a199b_bernoulli"] = ["rate", "--word", "a" * 199 + "b", "--bernoulli", "7/10,3/10"]
CASES["rate_a200_markov"] = ["rate", "--word", "a" * 200, "--markov", "3/4,1/4,1/3,2/3"]
CASES["rate_ab50_bernoulli"] = ["rate", "--word", "ab" * 50, "--bernoulli", "7/10,3/10"]
#: Chain cores of degree 100 with several sign variations: their roots are
#: counted on the shape of a survival denominator, not on a Sturm chain.
CASES["rate_aab33a_markov"] = ["rate", "--word", "aab" * 33 + "a", "--markov", "3/4,1/4,1/3,2/3"]
CASES["rate_ab50_markov"] = ["rate", "--word", "ab" * 50, "--markov", "3/4,1/4,1/3,2/3"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    # read as bytes: the CSV writer ends lines with \r\n
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_bytes().decode()


def _json_record(name):
    """The golden file's JSON object, or None for a CSV table."""
    try:
        record = json.loads((GOLDEN / f"{name}.out").read_text())
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


#: The golden files that print an enclosure and gamma bounds beside it.
BOUNDED = sorted(
    name for name in CASES
    if {"z0_lower", "z0_upper", "gamma_lower", "gamma_upper"} <= set(_json_record(name) or ())
)
#: Those whose float gamma bounds exclude the log of the printed enclosure:
#: each bound is widened by one ulp from log(num) - log(den), which loses
#: more than that to cancellation.
FALSE_GAMMA_BOUNDS = {
    "max_r3_ternary_q_small", "max_r4_measure_max", "max_r4_ternary_direct", "max_r4_tie",
    "max_r5", "oracle_a_markov", "oracle_aabaa_markov", "oracle_aabaab_r12", "oracle_aabbaa",
    "oracle_abc_ternary", "oracle_abcab_ternary", "oracle_baab_markov", "rate_a199b_bernoulli",
    "rate_a200_markov", "rate_a59b_bernoulli", "rate_a59b_markov", "rate_aab20_bernoulli",
    "rate_aab20_markov", "rate_aab33a_markov", "rate_ab50_bernoulli", "rate_ab50_markov",
    "rate_abcab_ternary", "rate_abcd_quaternary", "rate_random60_bernoulli", "rate_random60_markov",
}
#: The golden files that print a denominator beside the enclosure.
WITH_DENOMINATOR = sorted(name for name in BOUNDED if "denominator" in _json_record(name))


def test_truth_checks_cover_the_golden_files():
    assert len(BOUNDED) == 32 and len(WITH_DENOMINATOR) == 26
    assert FALSE_GAMMA_BOUNDS <= set(BOUNDED)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason="one-ulp widening lost to cancellation"))
        if name in FALSE_GAMMA_BOUNDS else name
        for name in BOUNDED
    ],
)
def test_gamma_bounds_hold_the_log_of_the_enclosure(name):
    mpmath = pytest.importorskip("mpmath")
    record = _json_record(name)

    def log(text):
        value = Fraction(text)
        return mpmath.log(mpmath.mpf(value.numerator) / value.denominator)

    with mpmath.workprec(300):
        assert mpmath.mpf(record["gamma_lower"]) <= log(record["z0_lower"])
        assert mpmath.mpf(record["gamma_upper"]) >= log(record["z0_upper"])


@pytest.mark.parametrize("name", WITH_DENOMINATOR)
def test_enclosure_holds_a_root_of_the_printed_denominator(name):
    # exact: a zero at an exact root, a sign change across an inexact one
    record = _json_record(name)
    coeffs = [Fraction(text) for text in record["denominator"]]
    lower, upper = Fraction(record["z0_lower"]), Fraction(record["z0_upper"])

    def value(z):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    if lower == upper:
        assert value(lower) == 0
    else:
        assert value(lower) * value(upper) < 0


#: One golden case per subcommand, with the format it does not default to.
OUT_CASES = {
    "rate_abba_markov": "csv",
    "scan_r6": "json",
    "max_r5": "csv",
    "bounds": "json",
    "oracle_aabbaa": "csv",
    "families_r8": "csv",
    "markov_scan_r5": "json",
    "figure_relerr": "json",
}


@pytest.mark.parametrize("name", sorted(OUT_CASES))
def test_out_file_holds_the_golden_bytes(name, capsys, tmp_path):
    target = tmp_path / "out"
    assert main(CASES[name] + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(OUT_CASES))
def test_out_file_holds_the_stdout_bytes_in_the_other_format(name, capsys, tmp_path):
    argv = CASES[name] + ["--format", OUT_CASES[name]]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "out"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode()


if __name__ == "__main__":
    import contextlib
    import io
    import sys

    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    for name in names:
        argv = CASES[name]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            main(argv)
        (GOLDEN / f"{name}.out").write_bytes(buffer.getvalue().encode())
