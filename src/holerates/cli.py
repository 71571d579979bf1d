"""Command-line interface: certified escape rates as reproducible CSV/JSON.

Subcommands: rate, scan, max, bounds, oracle, families, markov-scan, figure.
All numeric inputs are exact: fractions like 3/5 or decimal strings like
0.95 (converted via their exact decimal expansion).  Binary floats are
accepted only from a JSON config file and only with --allow-float.

Exit codes: 0 ok, 1 usage or parse error, 2 forbidden word, 3 no positive
root, 4 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import extremal, survival
from .errors import EnumerationCapError, ForbiddenWordError, NoPositiveRootError
from .measures import BernoulliMeasure, MarkovChain
from .roots import RootResult, escape_rate
from .words import Alphabet, Word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORBIDDEN = 2
EXIT_NO_ROOT = 3
EXIT_CAP = 4

MAX_TOL = Fraction(1, 10**6)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the CLI reserves 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as an exact rational") from exc


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in str(text).split(",") if part.strip()]


def frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def float_str(value: float) -> str:
    return format(value, ".17g")


def _parse_range(text: str) -> list[int]:
    if ":" in str(text):
        lo, hi = str(text).split(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _parse_grid(text: str) -> list[Fraction]:
    """[name=]lo:hi:step with inclusive endpoints, all exact."""
    text = str(text)
    if "=" in text:
        text = text.split("=", 1)[1]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like lo:hi:step, got {text!r}")
    lo, hi, step = (_fraction(part) for part in parts)
    if step <= 0 or hi < lo:
        raise ValueError("grid needs step > 0 and hi >= lo")
    out = []
    value = lo
    while value <= hi:
        out.append(value)
        value += step
    return out


def _measure_from_args(args) -> BernoulliMeasure | MarkovChain:
    chosen = [
        name
        for name in ("bernoulli", "markov", "p")
        if getattr(args, name, None) not in (None, "")
    ]
    if len(chosen) != 1:
        raise ValueError("specify exactly one of --bernoulli, --markov, --p")
    if chosen[0] == "p":
        p = _fraction(args.p)
        return BernoulliMeasure.from_rationals([p, 1 - p])
    if chosen[0] == "bernoulli":
        probs = _fraction_list(args.bernoulli)
        alphabet = Alphabet(tuple(args.symbols)) if getattr(args, "symbols", None) else None
        return BernoulliMeasure.from_rationals(probs, alphabet)
    entries = _fraction_list(args.markov)
    return MarkovChain.from_rationals(entries)


def _word_from_args(args, measure) -> Word:
    if not getattr(args, "word", None):
        raise ValueError("--word is required")
    return Word.parse(args.word, measure.alphabet)


def _tol_from_args(args) -> Fraction:
    tol = _fraction(args.tol)
    if not 0 < tol <= MAX_TOL:
        raise ValueError(f"tolerance must lie in (0, {MAX_TOL}]")
    return tol


def _emit(args, payload, rows=None, fieldnames=None) -> None:
    """Write JSON (payload) or CSV (rows) to --out or stdout."""
    fmt = args.format
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        if rows is None:
            raise ValueError("this command only supports --format json")
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames or list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _root_fields(result: RootResult) -> dict:
    return {
        "z0_lower": frac_str(result.lower),
        "z0_upper": frac_str(result.upper),
        "z0": result.z0,
        "exact": result.exact,
        "gamma_lower": result.gamma_lower,
        "gamma_upper": result.gamma_upper,
        "gamma": result.gamma,
    }


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_rate(args) -> int:
    measure = _measure_from_args(args)
    word = _word_from_args(args, measure)
    tol = _tol_from_args(args)
    result = escape_rate(word, measure, tol)
    payload = {
        "word": str(word),
        "denominator": result.poly.coeff_strings(),
        **_root_fields(result),
    }
    row = dict(payload)
    row["denominator"] = ";".join(payload["denominator"])
    for key in ("z0", "gamma", "gamma_lower", "gamma_upper"):
        row[key] = float_str(row[key])
    _emit(args, payload, [row])
    return EXIT_OK


def _table_rows(prefix: dict, table) -> list[dict]:
    rows = []
    for entry in table:
        rows.append(
            {
                **prefix,
                "word": str(entry.word),
                "measure": frac_str(entry.measure),
                "mu_tilde": frac_str(entry.cycle_weight) if entry.cycle_weight is not None else "",
                "gamma_lower": float_str(entry.gamma.gamma_lower),
                "gamma_upper": float_str(entry.gamma.gamma_upper),
                "prime": entry.unbordered,
                "min_period": entry.min_period,
                "rank": entry.rank,
            }
        )
    return rows


def _scan_point_bernoulli(job) -> list[dict]:
    r, p, tol, cap = job
    measure = BernoulliMeasure.from_rationals([p, 1 - p])
    table = extremal.ordering_table(r, measure, tol, cap)
    return _table_rows({"p": frac_str(p)}, table)


def _scan_point_markov(job) -> list[dict]:
    r, paa, pbb, tol, cap = job
    chain = MarkovChain.from_rationals([paa, 1 - paa, 1 - pbb, pbb])
    table = extremal.ordering_table(r, chain, tol, cap)
    return _table_rows({"pi_aa": frac_str(paa), "pi_bb": frac_str(pbb)}, table)


def _run_jobs(worker, jobs, n_workers: int) -> list:
    if n_workers <= 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(worker, jobs))


def cmd_scan(args) -> int:
    tol = _tol_from_args(args)
    r = args.r
    if args.grid:
        jobs = [(r, p, tol, args.cap) for p in _parse_grid(args.grid)]
        chunks = _run_jobs(_scan_point_bernoulli, jobs, args.jobs)
        rows = [row for chunk in chunks for row in chunk]
    elif args.markov_grid:
        grid = _parse_grid(args.markov_grid)
        jobs = [(r, paa, pbb, tol, args.cap) for paa in grid for pbb in grid]
        chunks = _run_jobs(_scan_point_markov, jobs, args.jobs)
        rows = [row for chunk in chunks for row in chunk]
    else:
        measure = _measure_from_args(args)
        table = extremal.ordering_table(r, measure, tol, args.cap)
        rows = _table_rows({}, table)
    _emit(args, rows, rows)
    return EXIT_OK


def cmd_max(args) -> int:
    measure = _measure_from_args(args)
    tol = _tol_from_args(args)
    if not isinstance(measure, BernoulliMeasure):
        raise ValueError("max handles product measures; use markov-scan for chains")
    report = extremal.gamma_max(args.r, measure, tol)
    payload = {
        "r": report.r,
        "regime": report.regime.value,
        "reason": report.reason,
        "witnesses": [str(w) for w in report.witnesses],
        **_root_fields(report.gamma),
    }
    row = dict(payload)
    row["witnesses"] = ";".join(payload["witnesses"])
    for key in ("z0", "gamma", "gamma_lower", "gamma_upper"):
        row[key] = float_str(row[key])
    _emit(args, payload, [row])
    return EXIT_OK


def _bounds_rows(p: Fraction, r_values, tol) -> list[dict]:
    rows = []
    for r in r_values:
        report = extremal.gamma_max_two_symbols(r, p, tol)
        gamma = report.gamma.gamma
        lower, upper = extremal.max_rate_bounds(r, p)
        estimate = extremal.unbordered_lower_estimate(r, p)
        rows.append(
            {
                "p": frac_str(p),
                "r": r,
                "regime": report.regime.value,
                "lower": float_str(lower),
                "upper": float_str(upper),
                "gamma": float_str(gamma),
                "rel_err_lower": float_str((gamma - lower) / gamma),
                "prime_estimate": float_str(estimate),
                "rel_err_prime_estimate": float_str((gamma - estimate) / gamma),
            }
        )
    return rows


def cmd_bounds(args) -> int:
    tol = _tol_from_args(args)
    p = _fraction(args.p)
    rows = _bounds_rows(p, _parse_range(args.r), tol)
    _emit(args, rows, rows)
    return EXIT_OK


def cmd_oracle(args) -> int:
    measure = _measure_from_args(args)
    word = _word_from_args(args, measure)
    tol = _tol_from_args(args)
    n = args.n
    r = len(word)
    series = survival.survival_series(word, measure, n)
    gf = survival.genfun(word, measure)
    genfun_match = gf.series(n + 1) == list(series.values)

    # the walk stops at the longest length within --enum-cap, maybe below r
    enumerated = survival.direct_enumeration(word, measure, r + n, cap=args.enum_cap)[r:]
    enum_max = r + len(enumerated) - 1 if enumerated else 0
    enum_match = enumerated == series.values[: len(enumerated)]

    solution = survival.genfun_from_word_equations(word, measure)
    equations_match = solution.survival_genfun(r).series(n + 1) == list(series.values)

    rate = escape_rate(word, measure, tol)
    pole_in_enclosure = rate.poly == gf.denominator

    estimates = survival.empirical_rate(series) if n >= 10 else None
    ratios = series.ratio_estimates()
    payload = {
        "word": str(word),
        "n": n,
        "denominator": gf.denominator.coeff_strings(),
        "numerator": gf.numerator.coeff_strings(),
        "checks": {
            "genfun_series_matches_automaton": genfun_match,
            "direct_enumeration_matches_up_to_length": enum_max,
            "direct_enumeration_matches": enum_match,
            "word_equations_match": equations_match,
            "denominator_is_rate_polynomial": pole_in_enclosure,
        },
        **_root_fields(rate),
    }
    if estimates is not None:
        payload["ratio_estimate"] = estimates.ratio_estimate
        payload["cumulative_estimate"] = estimates.cumulative_estimate
        payload["converged"] = estimates.converged
    if not (genfun_match and enum_match and equations_match):
        raise AssertionError(f"oracle cross-check failed: {payload['checks']}")
    rows = [
        {
            "n": i,
            "p_n": frac_str(value),
            "p_n_float": float_str(value.numerator / value.denominator),
            "ratio_estimate": float_str(ratios[i - 1]) if i >= 1 else "",
        }
        for i, value in enumerate(series.values)
    ]
    _emit(args, payload, rows)
    return EXIT_OK


def cmd_families(args) -> int:
    measure = _measure_from_args(args)
    if not isinstance(measure, BernoulliMeasure):
        raise ValueError("families is defined for product measures")
    fam = extremal.families(args.r, measure, args.cap)
    payload = {
        "r": args.r,
        "max_unbordered": [str(w) for w in fam.max_unbordered],
        "max_measure": [str(w) for w in fam.max_measure],
        "unbordered_measure": frac_str(fam.unbordered_measure),
        "top_measure": frac_str(fam.top_measure),
    }
    rows = [
        {"family": "max_unbordered", "word": str(w), "measure": frac_str(fam.unbordered_measure)}
        for w in fam.max_unbordered
    ] + [
        {"family": "max_measure", "word": str(w), "measure": frac_str(fam.top_measure)}
        for w in fam.max_measure
    ]
    _emit(args, payload, rows)
    return EXIT_OK


def cmd_markov_scan(args) -> int:
    measure = _measure_from_args(args)
    if not isinstance(measure, MarkovChain):
        raise ValueError("markov-scan requires --markov")
    tol = _tol_from_args(args)
    report = extremal.markov_scan(args.r, measure, tol, args.cap)
    rows = _table_rows({}, report.rows)
    payload = {
        "r": report.r,
        "second_eigenvalue": frac_str(report.second_eigenvalue),
        "argmax": [str(w) for w in report.argmax],
        "rows": rows,
    }
    if args.format == "json":  # CSV writes only the rows
        payload["pair_checks"] = [
            {
                "unbordered_word": str(check.unbordered_word),
                "other": str(check.other),
                "cycle_weight": frac_str(check.cycle_weight),
                "second_eig_sign": check.second_eig_sign,
                "other_unbordered": check.other_unbordered,
                "endpoints_distinct": check.endpoints_distinct,
                "predicted": check.predicted,
                "observed": check.observed,
                "holds": check.holds,
            }
            for check in report.pair_checks
        ]
    _emit(args, payload, rows)
    return EXIT_OK


def _figure_relerr_rows(tol) -> list[dict]:
    rows = []
    for p in (Fraction(17, 20), Fraction(9, 10), Fraction(19, 20)):
        rows.extend(_bounds_rows(p, range(2, 41), tol))
    return rows


def cmd_figure(args) -> int:
    tol = _tol_from_args(args)
    if args.name == "fig1":
        jobs = [(4, p, tol, args.cap) for p in _parse_grid(args.grid or "1/2:99/100:1/200")]
        chunks = _run_jobs(_scan_point_bernoulli, jobs, args.jobs)
        rows = [row for chunk in chunks for row in chunk]
    elif args.name == "relerr":
        rows = _figure_relerr_rows(tol)
    else:  # markov-r3
        grid = _parse_grid(args.grid or "1/20:19/20:1/20")
        jobs = [(3, paa, pbb, tol, args.cap) for paa in grid for pbb in grid]
        chunks = _run_jobs(_scan_point_markov, jobs, args.jobs)
        rows = [row for chunk in chunks for row in chunk]
    _emit(args, rows, rows)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_common(sub, table_default: str) -> None:
    sub.add_argument("--bernoulli", help="comma-separated exact probabilities, e.g. 3/5,2/5")
    sub.add_argument("--markov", help="four exact entries of the 2x2 row-stochastic matrix")
    sub.add_argument("--p", help="two-symbol shorthand: Bernoulli(p, 1-p)")
    sub.add_argument("--symbols", help="symbol names for --bernoulli, e.g. abc")
    sub.add_argument("--tol", default="1e-14", help="relative root tolerance (default 1e-14)")
    sub.add_argument("--format", choices=("csv", "json"), default=table_default)
    sub.add_argument("--out", help="write output to this file instead of stdout")
    sub.add_argument("--cap", type=int, default=1 << 24, help="enumeration cap")
    sub.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")


def build_parser() -> _Parser:
    parser = _Parser(prog="holerates", description=__doc__)
    parser.add_argument("--config", help="JSON file whose keys mirror the flag names")
    parser.add_argument("--allow-float", action="store_true",
                        help="accept binary floats in the config file (converted exactly)")
    subs = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = []

    rate = subs.add_parser("rate", help="escape rate of one hole")
    rate.add_argument("--word", help="the hole word, e.g. aabbaa")
    _add_common(rate, "json")
    rate.set_defaults(func=cmd_rate)

    scan = subs.add_parser("scan", help="escape rates of every hole of length r")
    scan.add_argument("--r", type=int, required=True)
    scan.add_argument("--grid", help="two-symbol p sweep lo:hi:step")
    scan.add_argument("--markov-grid", dest="markov_grid", help="pi_aa/pi_bb grid lo:hi:step")
    _add_common(scan, "csv")
    scan.set_defaults(func=cmd_scan)

    top = subs.add_parser("max", help="hole with maximal escape rate")
    top.add_argument("--r", type=int, required=True)
    _add_common(top, "json")
    top.set_defaults(func=cmd_max)

    bounds = subs.add_parser("bounds", help="rigorous bounds on the maximal rate")
    bounds.add_argument("--p", required=True)
    bounds.add_argument("--r", default="2:40", help="length or range lo:hi (default 2:40)")
    bounds.add_argument("--tol", default="1e-14")
    bounds.add_argument("--format", choices=("csv", "json"), default="csv")
    bounds.add_argument("--out")
    bounds.set_defaults(func=cmd_bounds)

    oracle = subs.add_parser("oracle", help="cross-check all survival oracles for one hole")
    oracle.add_argument("--word")
    oracle.add_argument("--n", type=int, default=20, help="series terms (default 20)")
    oracle.add_argument("--enum-cap", dest="enum_cap", type=int, default=1 << 16,
                        help="word-count cap for the brute-force oracle")
    _add_common(oracle, "json")
    oracle.set_defaults(func=cmd_oracle)

    fam = subs.add_parser("families", help="the two extremal families at length r")
    fam.add_argument("--r", type=int, required=True)
    _add_common(fam, "json")
    fam.set_defaults(func=cmd_families)

    mscan = subs.add_parser("markov-scan", help="rates of all allowed holes under a chain")
    mscan.add_argument("--r", type=int, required=True)
    _add_common(mscan, "csv")
    mscan.set_defaults(func=cmd_markov_scan)

    figure = subs.add_parser("figure", help="emit figure-ready data tables")
    figure.add_argument("name", choices=("fig1", "relerr", "markov-r3"))
    figure.add_argument("--grid", help="override the default grid")
    figure.add_argument("--tol", default="1e-12")
    figure.add_argument("--format", choices=("csv", "json"), default="csv")
    figure.add_argument("--out")
    figure.add_argument("--cap", type=int, default=1 << 24)
    figure.add_argument("--jobs", type=int, default=1)
    figure.set_defaults(func=cmd_figure)

    parser.subcommands = [rate, scan, top, bounds, oracle, fam, mscan, figure]
    return parser


def _config_path(argv: list[str]) -> str | None:
    """The path given as ``--config PATH`` or ``--config=PATH``; "" if the
    flag has no path, None if there is no such flag."""
    for idx, token in enumerate(argv):
        if token == "--config":
            return argv[idx + 1] if idx + 1 < len(argv) else ""
        if token.startswith("--config="):
            return token[len("--config="):]
    return None


def _apply_config(parser: _Parser, path: str, argv: list[str]) -> None:
    """Load the --config JSON as parser defaults; explicit flags still win."""
    if not path:
        parser.error("--config needs a file path")
    with open(path) as handle:
        data = json.load(handle)
    allow_float = "--allow-float" in argv
    clean: dict = {}
    for key, value in data.items():
        if isinstance(value, float):
            if not allow_float:
                raise ValueError(
                    f"config key {key!r} is a binary float; quote it as a string "
                    "or pass --allow-float to convert it exactly"
                )
            value = str(Fraction(value))
        clean[key.replace("-", "_")] = value
    # Subparsers re-apply their own defaults over the namespace, so the
    # config defaults must be installed on each of them as well.
    parser.set_defaults(**clean)
    for sub in parser.subcommands:
        sub.set_defaults(**clean)


@functools.cache
def _shared_parser() -> _Parser:
    """The parser of every call without --config, built on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config = _config_path(argv)
    # config defaults go on a parser of the call's own, never the shared one
    parser = _shared_parser() if config is None else build_parser()
    try:
        if config is not None:
            _apply_config(parser, config, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except ForbiddenWordError as exc:
        print(f"forbidden word: {exc}", file=sys.stderr)
        return EXIT_FORBIDDEN
    except NoPositiveRootError as exc:
        print(f"no positive root: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except EnumerationCapError as exc:
        print(f"enumeration cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
