"""The four benchmark workloads: their seeded inputs and their output checks.

All four are closed loops: one caller issues the next operation only after
the previous one has returned.  CLI operations go through
``holerates.cli.main`` in-process with ``--jobs 1``; ``regime_sweep`` calls
the library, which has no subcommand for its brute-force maximum.  The seed
picks only the sampled part of each workload; fixed parts keep the cost of a
pass steady from seed to seed.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from checks import Checker

#: CLI default tolerance; the library ops use the same value.
TOL = Fraction("1e-14")

LONG_BERNOULLI = "7/10,3/10"
LONG_CHAIN = "3/4,1/4,1/3,2/3"
#: Scan p values: small denominators, with similar cost per table.
SCAN_P = ("2/3", "7/10", "5/7", "8/11", "3/4", "7/9")
#: Chain diagonals for markov-scan; pairs summing to 1 (product measures)
#: are skipped.
CHAIN_DIAGONAL = ("1/3", "2/5", "3/5", "2/3", "3/4", "5/7")
ORACLE_TWO = "3/5,2/5"
ORACLE_THREE = "1/2,3/10,1/5"
#: A chain with a forbidden transition (aa), so "allowed" matters.
ORACLE_CHAIN = "0,1,1/2,1/2"


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argument list, or a library call."""

    label: str
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    context: tuple = ()


class Workload:
    name = ""
    #: The reference computation (``run.REFERENCES``) whose cost the
    #: workload's operations are measured in.
    reference = "rational"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.ops = self.build()

    def build(self) -> list[Op]:
        raise NotImplementedError

    def fingerprint(self, output) -> str:
        """What must be identical on every pass."""
        return output

    def check(self, op: Op, output, checker: Checker) -> list[str]:
        """Failed check kinds for one operation's output."""
        raise NotImplementedError


# --------------------------------------------------------------------------


#: Seeded random holes per length below 200 and measure.  Several, so that
#: the spread of their costs from seed to seed averages out.
RANDOM_HOLES = 4


def _shapes(r: int, rng: random.Random) -> dict[str, str]:
    shapes = {
        "a^(r-1)b": "a" * (r - 1) + "b",
        "(aab)*": ("aab" * r)[:r],
        "(ab)*": ("ab" * r)[:r],
        "a^r": "a" * r,
    }
    if r < 200:
        for i in range(RANDOM_HOLES):
            shapes[f"random{i}"] = "".join(rng.choice("ab") for _ in range(r))
    return shapes


class LongHole(Workload):
    """One ``rate`` call per hole, r in {60, 100, 200}.  At r = 200 only the
    cheap shapes a^(r-1)b and a^r run: (ab)^100 alone takes 6-17 s, and a
    random hole about 1 s."""

    name = "long_hole"
    reference = "bigint"

    def build(self) -> list[Op]:
        ops = []
        for r in (60, 100, 200):
            for flag, measure in (("--bernoulli", LONG_BERNOULLI), ("--markov", LONG_CHAIN)):
                for shape, word in _shapes(r, self.rng).items():
                    if r == 200 and shape not in ("a^(r-1)b", "a^r"):
                        continue
                    ops.append(
                        Op(
                            f"rate r={r} {shape} {flag[2:]}",
                            argv=["rate", "--word", word, flag, measure, "--jobs", "1"],
                        )
                    )
        return ops

    def check(self, op, output, checker):
        return check_rate_payload(json.loads(output), checker)


def check_rate_payload(payload: dict, checker: Checker) -> list[str]:
    coeffs = [Fraction(c) for c in payload["denominator"]]
    return checker.check_rate(
        coeffs,
        Fraction(payload["z0_lower"]),
        Fraction(payload["z0_upper"]),
        payload["gamma_lower"],
        payload["gamma_upper"],
    )


# --------------------------------------------------------------------------


class HoleScan(Workload):
    """One ``scan --r 12`` table under Bernoulli(p, 1-p) and one
    ``markov-scan --r 10`` table: every one of the 2^12 (2^10) holes."""

    name = "hole_scan"

    def build(self) -> list[Op]:
        p = self.rng.choice(SCAN_P)
        while True:
            paa, pbb = (Fraction(x) for x in self.rng.sample(CHAIN_DIAGONAL, 2))
            if paa + pbb != 1:
                break
        chain = f"{paa},{1 - paa},{1 - pbb},{pbb}"
        return [
            Op(f"scan r=12 p={p}", argv=["scan", "--r", "12", "--p", p, "--jobs", "1"], context=("p", p, 12)),
            Op(
                f"markov-scan r=10 {chain}",
                argv=["markov-scan", "--r", "10", "--markov", chain, "--jobs", "1"],
                context=("markov", chain, 10),
            ),
        ]

    def check(self, op, output, checker):
        from holerates.measures import BernoulliMeasure, MarkovChain, is_allowed
        from holerates.polynomials import survival_denominator
        from holerates.words import AB, Word, enumerate_words

        kind, value, r = op.context
        if kind == "p":
            p = Fraction(value)
            measure = BernoulliMeasure.from_rationals([p, 1 - p])
        else:
            measure = MarkovChain.from_rationals(value.split(","))
        rows = list(csv.DictReader(io.StringIO(output)))
        expected = {
            str(w) for w in enumerate_words(AB, r) if kind == "p" or is_allowed(w, measure)
        }
        failed = set()
        if {row["word"] for row in rows} != expected or len(rows) != len(expected):
            failed.add("table_order")
        refs = []
        for row in rows:
            poly = survival_denominator(Word.parse(row["word"], AB), measure)
            ref = checker.reference(poly.coeffs)
            refs.append(ref)
            if not checker.gamma_bounds_contain(
                float(row["gamma_lower"]), float(row["gamma_upper"]), ref
            ):
                failed.add("gamma_bounds")
        if not rows or rows[0]["rank"] != "1":
            failed.add("table_order")
        for i in range(1, len(rows)):
            prev, cur = rows[i - 1], rows[i]
            tie = refs[i - 1].same_root(refs[i])
            if cur["rank"] == prev["rank"]:
                ok = tie and prev["word"] < cur["word"]
            else:
                ok = (
                    not tie
                    and cur["rank"] == str(i + 1)
                    and refs[i - 1].shift is not None
                    and refs[i].shift is not None
                    and refs[i - 1].shift > refs[i].shift
                )
            if not ok:
                failed.add("table_order")
        return sorted(failed)


# --------------------------------------------------------------------------


class RegimeSweep(Workload):
    """Acceptance criterion 3's shape: for r = 2..7 and a grid of
    p = 1/2 + k/200, the brute-force maximum over all 2^r holes, the
    closed-form regime maximum, and the rigorous bounds.  The grid always
    holds p = 1/2, whose symmetric measure halves the cost of every r, plus
    one seeded k from each of 16 strata of 1..99, so every seed covers all
    of [1/2, 1) with the same mix of costs."""

    name = "regime_sweep"
    strata = 16

    def build(self) -> list[Op]:
        from holerates import extremal
        from holerates.measures import BernoulliMeasure

        def grid_point(r: int, p: Fraction):
            measure = BernoulliMeasure.from_rationals([p, 1 - p])
            best, witnesses = extremal.brute_force_gamma_max(r, measure, TOL)
            report = extremal.gamma_max_two_symbols(r, p, TOL)
            bounds = extremal.max_rate_bounds(r, p)
            return best, witnesses, report, bounds

        ks = [0] + [
            self.rng.randrange(1 + 99 * j // self.strata, 1 + 99 * (j + 1) // self.strata)
            for j in range(self.strata)
        ]
        ops = []
        for k in ks:
            p = Fraction(1, 2) + Fraction(k, 200)
            for r in range(2, 8):
                ops.append(Op(f"r={r} p={p}", call=lambda r=r, p=p: grid_point(r, p)))
        return ops

    def fingerprint(self, output) -> str:
        best, witnesses, report, bounds = output
        return repr(
            (
                best.lower,
                best.upper,
                [str(w) for w in witnesses],
                report.regime.value,
                report.gamma.lower,
                report.gamma.upper,
                [str(w) for w in report.witnesses],
                bounds,
            )
        )

    def check(self, op, output, checker):
        best, witnesses, report, _ = output
        failed = set()
        for result in (best, report.gamma):
            failed.update(
                checker.check_rate(
                    result.poly.coeffs, result.lower, result.upper, result.gamma_lower, result.gamma_upper
                )
            )
        same = checker.reference(best.poly.coeffs).same_root(checker.reference(report.gamma.poly.coeffs))
        brute = {w.letters for w in witnesses}
        if not same or not all(w.letters in brute for w in report.witnesses):
            failed.add("maxima_agree")
        return sorted(failed)


# --------------------------------------------------------------------------


class OracleCheck(Workload):
    """``oracle --n 20`` for every hole of length <= 5 over two symbols and
    of length <= 3 over three symbols, a seeded ninth of the
    three-symbol holes of length 4 and 5, and the four allowed holes of
    length <= 2 that some word avoids under a chain with a forbidden
    transition.  The chain holes take a fifth of a pass and differ in cost
    by a factor of 2.5, so all of them run on every seed."""

    name = "oracle_check"

    def build(self) -> list[Op]:
        from holerates.measures import MarkovChain, is_allowed
        from holerates.words import AB, Alphabet, enumerate_words

        ops = []
        for size, probs, full_upto in ((2, ORACLE_TWO, 5), (3, ORACLE_THREE, 3)):
            alphabet = Alphabet.of_size(size)
            for r in range(1, 6):
                words = [str(w) for w in enumerate_words(alphabet, r)]
                if r > full_upto:
                    words = self.rng.sample(words, len(words) // 9)
                ops.extend(self._op(word, "--bernoulli", probs) for word in words)
        # Words of length <= 2 cost 0.1-0.3 s each; longer ones up to 2 s.
        # The hole b is left out: the chain forbids aa, so nothing avoids b.
        chain = MarkovChain.from_rationals(ORACLE_CHAIN.split(","))
        allowed = [str(w) for r in (1, 2) for w in enumerate_words(AB, r) if is_allowed(w, chain)]
        allowed.remove("b")
        ops.extend(self._op(word, "--markov", ORACLE_CHAIN) for word in allowed)
        return ops

    @staticmethod
    def _op(word: str, flag: str, measure: str) -> Op:
        return Op(
            f"oracle {word} {flag[2:]}",
            argv=["oracle", "--word", word, flag, measure, "--n", "20", "--jobs", "1"],
            context=(word,),
        )

    def check(self, op, output, checker):
        payload = json.loads(output)
        checks = payload["checks"]
        failed = check_rate_payload(payload, checker)
        agree = (
            checks["genfun_series_matches_automaton"]
            and checks["direct_enumeration_matches"]
            and checks["word_equations_match"]
            and checks["denominator_is_rate_polynomial"]
            and checks["direct_enumeration_matches_up_to_length"] >= len(op.context[0])
        )
        if not agree:
            failed.append("oracle_checks")
        return failed


WORKLOADS = {cls.name: cls for cls in (LongHole, HoleScan, RegimeSweep, OracleCheck)}
