"""Command-line interface: certified escape rates as reproducible CSV/JSON.

Subcommands: rate, scan, max, bounds, oracle, families, markov-scan, figure.
All numeric inputs are exact: fractions like 3/5 or decimal strings like
0.95 (converted via their exact decimal expansion).  Binary floats are
accepted only from a JSON config file and only with --allow-float.

Exit codes: 0 ok, 1 usage or parse error, 2 forbidden word, 3 no positive
root, 4 enumeration cap exceeded, 5 internal check failed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import sys
from fractions import Fraction

from . import extremal, survival
from .errors import EnumerationCapError, ForbiddenWordError, NoPositiveRootError
from .measures import BernoulliMeasure, MarkovChain
from .polynomials import _int_str
from .roots import RootResult, escape_rate
from .words import DEFAULT_ENUMERATION_CAP, Alphabet, Word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORBIDDEN = 2
EXIT_NO_ROOT = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5

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
    return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"


def float_str(value: float) -> str:
    return format(value, ".17g")


def _parse_range(text: str) -> list[int]:
    """N, or lo:hi with lo <= hi and both ends included."""
    try:
        ends = [int(part) for part in str(text).split(":")]
        if len(ends) == 1 or (len(ends) == 2 and ends[0] <= ends[1]):
            return list(range(ends[0], ends[-1] + 1))
    except ValueError:
        pass
    raise ValueError(f"range must look like N or lo:hi with lo <= hi, got {text!r}")


def _parse_grid(text: str) -> list[Fraction]:
    """lo:hi:step with inclusive endpoints, all exact."""
    text = str(text)
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like lo:hi:step, got {text!r}")
    lo, hi, step = (_fraction(part) for part in parts)
    if step <= 0 or hi < lo:
        raise ValueError("grid needs step > 0 and hi >= lo")
    return [lo + i * step for i in range((hi - lo) // step + 1)]


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


def _emit(args, payload, rows) -> None:
    """Write JSON (payload) or CSV (rows: a ``_Table``, or dicts with the
    keys of the first, in order) to --out or stdout."""
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=_json_table) + "\n"
    elif isinstance(rows, _Table):
        text = rows.csv_text()
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(rows[0].keys())
        writer.writerows(map(dict.values, rows))
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


def _record(payload: dict, joined: str) -> tuple[dict, list[dict]]:
    """A one-record command's payload and its one CSV row: the list under
    ``joined`` as ``a;b``, the floats of ``_root_fields`` at 17 digits."""
    row = {**payload, joined: ";".join(payload[joined])}
    for key in ("z0", "gamma", "gamma_lower", "gamma_upper"):
        row[key] = float_str(row[key])
    return payload, [row]


# --------------------------------------------------------------------------
# subcommands: each returns (JSON payload, CSV rows) for main to _emit
# --------------------------------------------------------------------------


def cmd_rate(args) -> tuple:
    measure = _measure_from_args(args)
    word = _word_from_args(args, measure)
    rate = escape_rate(word, measure, _tol_from_args(args))
    payload = {"word": str(word), "denominator": rate.poly.coeff_strings(), **_root_fields(rate)}
    return _record(payload, "denominator")


#: The columns an ordering-table row takes from its class and rank.
_TAIL_COLUMNS = ("measure", "mu_tilde", "gamma_lower", "gamma_upper", "prime", "min_period", "rank")


class _Table:
    """Ordering-table rows as (head, word, tail): ``head`` holds the sweep
    point's prefix values, one tuple per point, and ``tail`` the formatted
    columns of the word's class and its rank, one tuple per (class, rank).
    Only the word is made per row; JSON sees the rows as dicts."""

    def __init__(self, prefix: tuple[str, ...], rows: list[tuple[tuple, str, tuple]]) -> None:
        self.columns = (*prefix, "word", *_TAIL_COLUMNS)
        self.rows = rows

    def dicts(self) -> list[dict]:
        columns = self.columns
        return [dict(zip(columns, (*head, word, *tail))) for head, word, tail in self.rows]

    def csv_text(self) -> str:
        """The table as ``csv.writer`` writes it: each distinct head and tail
        is written once, and a word whose symbols are all letters or digits
        needs no quoting, so it goes in as it is."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)

        def line(values) -> str:
            buffer.seek(0)
            buffer.truncate()
            writer.writerow(values)
            return buffer.getvalue()

        heads: dict[int, str] = {}
        tails: dict[int, str] = {}
        parts = [line(self.columns)]
        for head, word, tail in self.rows:
            head_text = heads.get(id(head))
            if head_text is None:  # the head's fields and the comma before the word
                head_text = heads[id(head)] = line((*head, ""))[:-2] if head else ""
            tail_text = tails.get(id(tail))
            if tail_text is None:  # the comma after the word, the tail's fields, the line end
                tail_text = tails[id(tail)] = line(("", *tail))
            parts += head_text, word if word.isalnum() else line((word,))[:-2], tail_text
        return "".join(parts)


def _json_table(value) -> list[dict]:
    """A ``_Table`` in a JSON payload, as its rows' dicts: built only here."""
    if not isinstance(value, _Table):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return value.dicts()


def _table_rows(head: tuple, table) -> list[tuple[tuple, str, tuple]]:
    """The ``_Table`` rows of an ordering table.  Every row of a class holds
    the class's own measure object, so (its id, rank) keys the class's tail,
    formatted once while the table keeps the measure alive."""
    tails: dict[tuple[int, int], tuple] = {}
    rows = []
    for word, measure, cycle_weight, gamma, unbordered, min_period, rank in table:
        tail = tails.get((id(measure), rank))
        if tail is None:
            tail = tails[id(measure), rank] = (
                frac_str(measure),
                frac_str(cycle_weight) if cycle_weight is not None else "",
                float_str(gamma.gamma_lower),
                float_str(gamma.gamma_upper),
                unbordered,
                min_period,
                rank,
            )
        rows.append((head, str(word), tail))
    return rows


def _p_grid(text: str) -> list[tuple[dict, BernoulliMeasure]]:
    return [({"p": frac_str(p)}, BernoulliMeasure.from_rationals([p, 1 - p]))
            for p in _parse_grid(text)]


def _chain_grid(text: str) -> list[tuple[dict, MarkovChain]]:
    return [({"pi_aa": frac_str(a), "pi_bb": frac_str(b)},
             MarkovChain.from_rationals([a, 1 - a, 1 - b, b]))
            for a, b in itertools.product(_parse_grid(text), repeat=2)]


def _sweep_point(job) -> list[tuple[tuple, str, tuple]]:
    r, prefix, measure, tol, cap = job
    return _table_rows(tuple(prefix.values()), extremal.ordering_table(r, measure, tol, cap))


def _sweep(r: int, points, tol: Fraction, cap: int, n_workers: int) -> _Table:
    """The ordering tables of length ``r`` at every ``(prefix, measure)`` point, in
    point order: serially, or on at most ``n_workers`` processes, one per point and CPU."""
    jobs = [(r, prefix, measure, tol, cap) for prefix, measure in points]
    n_workers = min(n_workers, len(jobs), os.cpu_count() or 1)
    if n_workers <= 1:
        tables = map(_sweep_point, jobs)
    else:
        from concurrent.futures import ProcessPoolExecutor  # imported only where a pool runs

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            tables = list(pool.map(_sweep_point, jobs))
    return _Table(tuple(points[0][0]), [row for table in tables for row in table])


def cmd_scan(args) -> tuple:
    tol = _tol_from_args(args)
    measure = any(getattr(args, name) not in (None, "") for name in ("bernoulli", "markov", "p"))
    if bool(args.grid) + bool(args.markov_grid) + measure > 1:
        raise ValueError("scan takes exactly one of --grid, --markov-grid or a measure flag")
    if args.grid:
        points = _p_grid(args.grid)
    elif args.markov_grid:
        points = _chain_grid(args.markov_grid)
    else:
        points = [({}, _measure_from_args(args))]
    table = _sweep(args.r, points, tol, args.cap, args.jobs)
    return table, table


def cmd_max(args) -> tuple:
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
    return _record(payload, "witnesses")


def _bounds_row(p: Fraction, r: int, tol: Fraction) -> dict:
    report = extremal.gamma_max_two_symbols(r, p, tol)
    gamma = report.gamma.gamma
    lower, upper = extremal.max_rate_bounds(r, p)
    estimate = extremal.unbordered_lower_estimate(r, p)
    return {
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


def cmd_bounds(args) -> tuple:
    tol = _tol_from_args(args)
    p = _fraction(args.p)
    rows = [_bounds_row(p, r, tol) for r in _parse_range(args.r)]
    return rows, rows


def cmd_oracle(args) -> tuple:
    measure = _measure_from_args(args)
    word = _word_from_args(args, measure)
    if args.enum_cap < 1:
        raise ValueError("--enum-cap must be an integer >= 1")
    n = args.n
    r = len(word)
    # the closed form is rated first, so a forbidden word and a hole that
    # covers everything exit as they do for rate
    rate = escape_rate(word, measure, _tol_from_args(args))
    gf = survival.genfun(word, measure)
    series = survival.survival_series(word, measure, n)
    genfun_match = series.matches(*gf.series(n + 1))
    # the word equations' determinant against the closed-form denominator
    denominator_match = rate.poly == gf.denominator

    # window states stop growing by length r - 1 (1 when the measure's rows
    # differ), so under --enum-cap the walk reaches r + n or stops short of r
    enumerated = survival.direct_enumeration(word, measure, r + n, cap=args.enum_cap)[r:]
    enum_max = r + len(enumerated) - 1 if enumerated else 0
    enum_match = enumerated == list(series.totals[: len(enumerated)])

    estimates = survival.empirical_rate(series) if n >= 10 else None
    payload = {
        "word": str(word),
        "n": n,
        "denominator": gf.denominator.coeff_strings(),
        "numerator": gf.numerator.coeff_strings(),
        "checks": {
            "genfun_series_matches_automaton": genfun_match,
            "direct_enumeration_matches_up_to_length": enum_max,
            "direct_enumeration_matches": enum_match,
            # derived: the generating function is the word equations' solution,
            # so they match when its series and its denominator both do
            "word_equations_match": genfun_match and denominator_match,
            "denominator_is_rate_polynomial": denominator_match,
        },
        **_root_fields(rate),
    }
    if estimates is not None:
        payload["ratio_estimate"] = estimates.ratio_estimate
        payload["cumulative_estimate"] = estimates.cumulative_estimate
        payload["converged"] = estimates.converged
    if not (genfun_match and enum_match and denominator_match):
        raise AssertionError(f"oracle cross-check failed: {payload['checks']}")
    rows = [
        {
            "n": i,
            "p_n": frac_str(value),
            "p_n_float": float_str(value.numerator / value.denominator),
            "ratio_estimate": float_str(series.ratio_estimates[i - 1]) if i >= 1 else "",
        }
        for i, value in enumerate(series.values)
    ] if args.format == "csv" else None  # a JSON run builds no Fraction view
    return payload, rows


def cmd_families(args) -> tuple:
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
    return payload, rows


def _json_value(value):
    """Words and fractions as text, anything else as it is."""
    if isinstance(value, Word):
        return str(value)
    return frac_str(value) if isinstance(value, Fraction) else value


def cmd_markov_scan(args) -> tuple:
    measure = _measure_from_args(args)
    if not isinstance(measure, MarkovChain):
        raise ValueError("markov-scan requires --markov")
    tol = _tol_from_args(args)
    report = extremal.markov_scan(args.r, measure, tol, args.cap)
    table = _Table((), _table_rows((), report.rows))
    payload = {
        "r": report.r,
        "second_eigenvalue": frac_str(report.second_eigenvalue),
        "argmax": [str(w) for w in report.argmax],
        "rows": table,
    }
    if args.format == "json":  # CSV writes only the rows
        payload["pair_checks"] = [
            {**{k: _json_value(v) for k, v in vars(check).items()}, "holds": check.holds}
            for check in report.pair_checks
        ]
    return payload, table


def cmd_figure(args) -> tuple:
    tol = _tol_from_args(args)
    if args.name == "fig1":
        rows = _sweep(4, _p_grid(args.grid or "1/2:99/100:1/200"), tol, args.cap, args.jobs)
    elif args.name == "relerr":
        ps = (Fraction(17, 20), Fraction(9, 10), Fraction(19, 20))
        rows = [_bounds_row(p, r, tol) for p in ps for r in range(2, 41)]
    else:  # markov-r3
        rows = _sweep(3, _chain_grid(args.grid or "1/20:19/20:1/20"), tol, args.cap, args.jobs)
    return rows, rows


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_output(sub, table_default: str) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default=table_default)
    sub.add_argument("--out", help="write output to this file instead of stdout")


def _add_workers(sub, cap: bool) -> None:  # --cap only where words are enumerated
    if cap:
        sub.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, help="enumeration cap")
    sub.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")


def _add_common(sub, table_default: str, *, tol: bool = True, cap: bool = False) -> None:
    sub.add_argument("--bernoulli", help="comma-separated exact probabilities, e.g. 3/5,2/5")
    sub.add_argument("--markov", help="four exact entries of the 2x2 row-stochastic matrix")
    sub.add_argument("--p", help="two-symbol shorthand: Bernoulli(p, 1-p)")
    sub.add_argument("--symbols", help="symbol names for --bernoulli, e.g. abc")
    if tol:
        sub.add_argument("--tol", default="1e-14", help="relative root tolerance (default 1e-14)")
    _add_output(sub, table_default)
    _add_workers(sub, cap)


def build_parser() -> _Parser:
    # abbreviated top-level flags would slip past _config_path
    parser = _Parser(prog="holerates", description=__doc__, allow_abbrev=False)
    parser.add_argument("--config", help="JSON file whose keys mirror the flag names")
    parser.add_argument("--allow-float", action="store_true",
                        help="accept binary floats in the config file (converted exactly)")
    subs = parser.add_subparsers(dest="command", required=True)

    rate = subs.add_parser("rate", help="escape rate of one hole")
    rate.add_argument("--word", help="the hole word, e.g. aabbaa")
    _add_common(rate, "json")
    rate.set_defaults(func=cmd_rate)

    scan = subs.add_parser("scan", help="escape rates of every hole of length r")
    scan.add_argument("--r", type=int, required=True)
    scan.add_argument("--grid", help="two-symbol p sweep lo:hi:step")
    scan.add_argument("--markov-grid", dest="markov_grid", help="pi_aa/pi_bb grid lo:hi:step")
    _add_common(scan, "csv", cap=True)
    scan.set_defaults(func=cmd_scan)

    top = subs.add_parser("max", help="hole with maximal escape rate")
    top.add_argument("--r", type=int, required=True)
    _add_common(top, "json")
    top.set_defaults(func=cmd_max)

    bounds = subs.add_parser("bounds", help="rigorous bounds on the maximal rate")
    bounds.add_argument("--p", required=True)
    bounds.add_argument("--r", default="2:40", help="length or range lo:hi (default 2:40)")
    bounds.add_argument("--tol", default="1e-14")
    _add_output(bounds, "csv")
    bounds.set_defaults(func=cmd_bounds)

    oracle = subs.add_parser("oracle", help="cross-check all survival oracles for one hole")
    oracle.add_argument("--word")
    oracle.add_argument("--n", type=int, default=20, help="series terms (default 20)")
    oracle.add_argument("--enum-cap", dest="enum_cap", type=int, default=survival.DEFAULT_STATE_CAP,
                        help="window-state cap for the brute-force oracle")
    _add_common(oracle, "json")
    oracle.set_defaults(func=cmd_oracle)

    fam = subs.add_parser("families", help="the two extremal families at length r")
    fam.add_argument("--r", type=int, required=True)
    _add_common(fam, "json", tol=False, cap=True)
    fam.set_defaults(func=cmd_families)

    mscan = subs.add_parser("markov-scan", help="rates of all allowed holes under a chain")
    mscan.add_argument("--r", type=int, required=True)
    _add_common(mscan, "csv", cap=True)
    mscan.set_defaults(func=cmd_markov_scan)

    figure = subs.add_parser("figure", help="emit figure-ready data tables")
    figure.add_argument("name", choices=("fig1", "relerr", "markov-r3"))
    figure.add_argument("--grid", help="override the default grid")
    figure.add_argument("--tol", default="1e-12")
    _add_output(figure, "csv")
    _add_workers(figure, cap=True)
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
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
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
    # config defaults must be installed on each of them as well; a flag the
    # config sets is no longer required on the command line.
    parser.set_defaults(**clean)
    for sub in parser.subcommands:
        sub.set_defaults(**clean)
        for action in sub._actions:
            if action.dest in clean:
                action.required = False


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
        _emit(args, *args.func(args))
        return EXIT_OK
    except ForbiddenWordError as exc:
        print(f"forbidden word: {exc}", file=sys.stderr)
        return EXIT_FORBIDDEN
    except NoPositiveRootError as exc:
        print(f"no positive root: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except EnumerationCapError as exc:
        print(f"enumeration cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
