"""Benchmark of holerates: end-to-end metrics per workload, or per-layer
metrics from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hole_scan --seed 7 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout.  One run repeats
passes over the workload's operations, in this single-threaded process, for
``--seconds`` seconds, then checks every output (``checks.py``) and prints a
report; its last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics, writing the spans of
the first traced pass to ``perfbench/out/``.

The machine's speed drifts by tens of percent while other tenants share its
cores, and a timing in seconds drifts with it.  So every operation is
bracketed by a fixed pure-Python reference computation of about 1 ms (small
exact fraction sums, or big-integer polynomial evaluation for the workload
whose arithmetic is big-integer products), and its time is reported in
``ref``: as a multiple of the reference's time just before and after it.  An operation's cost is the
median of those multiples over the passes after the first (a warm-up);
``wall_ref`` and ``cpu_ref`` add these costs up over one pass, and
``op_ref_p50``/``op_ref_p90`` are taken over them.  The report also prints
the seconds they stand for in the run.  Set-up time is the median of several
imports of ``holerates`` in fresh interpreters, spread over the run, since
a package can only be imported once per process; each is timed against
reference imports of standard-library modules in the same way, and given in
the seconds it takes on the machine that set the reference's nominal time.  ``attempted`` counts the
distinct operations and ``failed`` those whose output failed a check, so
both depend only on the seed.  Exits with code 2, printing no result, when
the checkout has no ``src/holerates``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "op_ref_p50": "ref",
    "op_ref_p90": "ref",
    "peak_rss_mb": "MB",
}
#: Least number of set-up samples; one is taken before the passes and one
#: after each pass, so that they spread over the run.
SETUP_SAMPLES = 9
IMPORT_CODE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
#: Set-up time is timed against a fixed set of standard-library imports,
#: which a fresh interpreter takes in REFERENCE_IMPORT_S seconds (median) on
#: a 2-vCPU Xeon VM: the same kind of work, so it slows down with it.
REFERENCE_IMPORTS = "decimal, json, email.parser, http.client, xml.dom.minidom, unittest, argparse, csv, fractions"
REFERENCE_IMPORT_S = 0.058
#: Terms of the rational reference computation: about 1 ms on a 2-vCPU
#: Xeon VM.
REFERENCE_TERMS = 400
#: The big-integer reference evaluates this degree-150 polynomial, with
#: coefficients of up to 240 bits, at two points with 100-bit numerators and
#: denominators: about 1 ms on the same VM.
REFERENCE_COEFFS = tuple((-1) ** k * (3**k + 5 ** (k % 17)) for k in range(151))
REFERENCE_POINTS = ((2**100 // 3, 2**100 // 2), (2**100 // 5, 2**100 // 4))
#: Reference time on each side of an operation, as a share of the
#: operation's own time in the warm-up pass, and the least number of
#: reference repetitions on each side.
REFERENCE_SHARE = 0.1
REFERENCE_MIN_REPS = 3
#: While an untraced operation runs, a timer signal also runs the reference
#: once every this many seconds, so that it samples the machine's speed
#: during the operation itself; the handler's time is taken off the
#: operation's.
SAMPLE_INTERVAL = 0.02
#: Least number of passes: one warm-up and two timed.
MIN_PASSES = 3


def fail(code: int, message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(2, f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def import_time(modules: str) -> float:
    """Seconds a fresh interpreter takes to import ``modules``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE.format(modules)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        fail(2, f"importing {modules} failed: {done.stderr.strip()}")
    return float(done.stdout)


def setup_time() -> float:
    """Import time of holerates in a fresh interpreter, as a multiple of the
    reference imports just before and after it, in seconds of the machine
    on which those take REFERENCE_IMPORT_S."""
    before = import_time(REFERENCE_IMPORTS)
    own = import_time("holerates.cli")
    after = import_time(REFERENCE_IMPORTS)
    return REFERENCE_IMPORT_S * 2 * own / (before + after)


def environment(workload: str, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def rational_work() -> Fraction:
    """Sums of small exact fractions: interpreter-bound, like most of the
    program's arithmetic."""
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i)
    return total


def bigint_work() -> int:
    """Homogeneous Horner evaluation of a high-degree integer polynomial at
    rational points: bound by big-integer products, like root isolation on
    long holes."""
    signs = 0
    for u, v in REFERENCE_POINTS:
        value, power = 0, 1
        for c in REFERENCE_COEFFS:
            value = value * u + c * power
            power *= v
        signs += value > 0
    return signs


#: The reference computations a workload can be timed against.  Machine
#: load slows interpreter-bound and big-integer code by different factors,
#: so each workload names the one its own arithmetic resembles.
REFERENCES = {"rational": rational_work, "bigint": bigint_work}


class Reference:
    """Times a reference computation and keeps its fastest repetition."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.work = REFERENCES[name]
        self.best_wall = self.best_cpu = math.inf
        self.samples: list[tuple[float, float, float]] = []  # (start, wall, cpu)
        self._sampling = False

    def sample(self, signum, frame) -> None:
        """Timer-signal handler: one repetition, recorded with its start.  A
        signal that arrives while the handler runs is dropped, so no time is
        counted twice."""
        if self._sampling:
            return
        self._sampling = True
        start = time.perf_counter()
        wall, cpu = self.measure(1)
        self.samples.append((start, wall, cpu))
        self._sampling = False

    def measure(self, reps: int) -> tuple[float, float]:
        """Wall and CPU seconds of ``reps`` repetitions.  The garbage
        collector is off meanwhile, so the heap the program leaves behind
        does not change the reference's own cost."""
        wall = cpu = 0.0
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(reps):
                wall0, cpu0 = time.perf_counter(), time.process_time()
                self.work()
                w, c = time.perf_counter() - wall0, time.process_time() - cpu0
                wall, cpu = wall + w, cpu + c
                self.best_wall, self.best_cpu = min(self.best_wall, w), min(self.best_cpu, c)
        finally:
            if collecting:
                gc.enable()
        return wall, cpu


class Runner:
    """Executes passes over a workload and keeps what the checks need."""

    def __init__(self, workload, sampling: bool) -> None:
        from holerates import cli

        self.cli = cli
        self.workload = workload
        self.first: list | None = None  # (code, output, error) per op, first pass
        self.fingerprints: list[str | None] = []
        self.repeat_mismatch = [False] * len(workload.ops)
        self.reference = Reference(workload.reference)
        self.reps = [REFERENCE_MIN_REPS] * len(workload.ops)  # reference repetitions per side
        self.sampling = sampling

    def execute(self, op):
        """(exit code, output, error text) of one operation."""
        if op.argv is None:
            return 0, op.call(), ""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(op.argv)
        return code, out.getvalue(), err.getvalue()

    def run_pass(self) -> dict:
        """One pass over every operation: its wall time, and each operation's
        wall and CPU time as multiples of the reference computation, run just
        before and after it and sampled during it."""
        latencies, wall_ratios, cpu_ratios, outputs = [], [], [], []
        output_bytes = 0
        samples = self.reference.samples
        wall0 = time.perf_counter()
        for op, reps in zip(self.workload.ops, self.reps):
            # every operation starts from an empty young generation, so the
            # collections it triggers are the same on every pass
            gc.collect()
            ref_wall, ref_cpu = self.reference.measure(reps)
            samples.clear()
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
            start, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = self.execute(op)
            except Exception as exc:  # an operation's failure is a result
                result = (None, None, f"{type(exc).__name__}: {exc}")
            finally:
                end, cpu1 = time.perf_counter(), time.process_time()
                signal.setitimer(signal.ITIMER_REAL, 0)
            inside = [(w, c) for t, w, c in samples if t < end]
            sampled_wall, sampled_cpu = sum(w for w, _ in inside), sum(c for _, c in inside)
            after_wall, after_cpu = self.reference.measure(reps)
            count = 2 * reps + len(inside)
            latency = end - start - sampled_wall
            latencies.append(latency)
            wall_ratios.append(latency * count / (ref_wall + sampled_wall + after_wall))
            cpu_ratios.append((cpu1 - cpu0 - sampled_cpu) * count / (ref_cpu + sampled_cpu + after_cpu))
            outputs.append(result)
            if isinstance(result[1], str):
                output_bytes += len(result[1].encode())
        wall = time.perf_counter() - wall0
        if self.first is None:
            # size each operation's reference to a share of its own time
            self.reps = [
                max(REFERENCE_MIN_REPS, round(REFERENCE_SHARE * t / self.reference.best_wall)) for t in latencies
            ]
        prints = [None if out[1] is None else self.workload.fingerprint(out[1]) for out in outputs]
        if self.first is None:
            self.first, self.fingerprints = outputs, prints
        else:
            for i, fingerprint in enumerate(prints):
                if fingerprint != self.fingerprints[i]:
                    self.repeat_mismatch[i] = True
        return {
            "wall": wall,
            "wall_ratios": wall_ratios,
            "cpu_ratios": cpu_ratios,
            "output_bytes": output_bytes,
        }

    def check(self):
        """(failed operations, log of failures per kind) for the whole run."""
        from checks import Checker, CheckLog

        checker = Checker()
        log = CheckLog()
        failed_ops = 0
        for i, (op, (code, output, error)) in enumerate(zip(self.workload.ops, self.first)):
            kinds = []
            if code is None:
                kinds.append("exception")
            elif code != 0:
                kinds.append("exit_code")
            else:
                try:
                    kinds.extend(self.workload.check(op, output, checker))
                except Exception as exc:  # a malformed output fails its check
                    error = f"{type(exc).__name__}: {exc}"
                    kinds.append("exception")
            if self.repeat_mismatch[i]:
                kinds.append("repeat")
            for kind in kinds:
                log.fail(kind, f"{op.label}: {error.strip()}" if error else op.label)
            if kinds:
                failed_ops += 1
        return failed_ops, log


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_of(passes: list[dict], key: str) -> list[float]:
    """Each operation's median over the passes."""
    return [statistics.median(repeats) for repeats in zip(*(p[key] for p in passes))]


def run(args) -> int:
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(2, f"unknown workload {args.workload!r}; declared: {', '.join(names)}")

    setup = None if args.trace else [setup_time()]
    sys.path.insert(0, str(SRC))
    import holerates

    if Path(holerates.__file__).resolve().parent != SRC / "holerates":
        fail(2, f"holerates imported from {holerates.__file__}, not from {SRC}")
    import tracer
    from workloads import WORKLOADS

    if set(names) != set(WORKLOADS):
        fail(3, f"workloads {sorted(WORKLOADS)} do not match BENCHMARK.json {sorted(names)}")
    workload = WORKLOADS[args.workload](args.seed)
    trace = tracer.Tracer() if args.trace else None
    runner = Runner(workload, sampling=trace is None)
    previous_handler = signal.signal(signal.SIGALRM, runner.reference.sample)

    plain, traced = [], []
    started = time.perf_counter()
    while True:
        use_trace = trace is not None and len(traced) < len(plain)
        if use_trace:
            trace.reset()
            trace.install()
            try:
                stats = runner.run_pass()
            finally:
                trace.remove()
            stats["layers"] = trace.summary(stats["output_bytes"])
            if not traced:
                first_spans = trace.spans
            traced.append(stats)
        else:
            plain.append(runner.run_pass())
        if setup is not None:
            setup.append(setup_time())
        elapsed = time.perf_counter() - started
        typical = statistics.median(s["wall"] for s in plain + traced)
        # untraced: a warm-up and two timed passes; traced: a warm-up, then
        # at least one traced and one untraced timed pass
        enough = plain[MIN_PASSES - 1 :] if trace is None else traced and plain[1:]
        if enough and elapsed + typical > args.seconds:
            break
    signal.signal(signal.SIGALRM, previous_handler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while setup is not None and len(setup) < SETUP_SAMPLES:
        setup.append(setup_time())
    if traced:
        write_spans(first_spans, args)

    failed, log = runner.check()
    from checks import EXACT_KINDS

    correct = not any(log.counts[kind] for kind in EXACT_KINDS)
    timed = plain[1:]  # the first pass warms up

    if trace is None:
        latencies = median_of(timed, "wall_ratios")
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_ref": sum(latencies),
            "cpu_ref": sum(median_of(timed, "cpu_ratios")),
            "op_ref_p50": statistics.median(latencies),
            "op_ref_p90": quantile(latencies, 90),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        wanted = spec["end_to_end"]
    else:
        # in seconds at the machine's best speed in the run
        extra = sum(median_of(traced, "wall_ratios")) - sum(median_of(timed, "wall_ratios"))
        overhead = runner.reference.best_wall * extra
        metrics = tracer.combine([s["layers"] for s in traced], overhead)
        units = dict(tracer.PER_LAYER)
        wanted = spec["per_layer"]

    declared_units = {m["name"]: m["unit"] for m in wanted}
    if declared_units != {name: units[name] for name in metrics}:
        fail(3, f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared_units)}")

    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"run: {len(workload.ops)} ops per pass, {len(plain)} untraced and {len(traced)} traced passes")
    if trace is None:
        print(
            f"op costs: median of {len(timed)} timed passes for each of {len(latencies)} ops; "
            f"1 ref = one {runner.reference.name} reference, {1000 * runner.reference.best_wall:.4g} ms at best "
            "in this run; "
            f"a pass took {statistics.median(p['wall'] for p in timed):.6g} s (median)"
        )
    attempted = len(workload.ops)
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for kind, count in log.counts.items():
        if count:
            print(f"  failed check {kind}: {count} ops, e.g. {log.examples[kind]}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_spans(spans: list, args) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as handle:
        json.dump({"fields": ["layer", "function", "parent", "start", "end"], "spans": spans}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "holerates" / "__init__.py").is_file():
        fail(2, f"no holerates package under {SRC}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
