#!/usr/bin/env python3
"""sqfree benchmark: seeded job lists through the ``sqfree`` command entry, in-process.

Usage (from the repository root):

    python3 bench/run.py --workload wide_window --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` next to this directory, never from an
installed copy.  A run measures whole passes (one job per workload template
each, see ``workloads.py``) until ``--seconds`` have passed.  Jobs go
through ``sqfree.cli.main`` with stdout captured; every job's output is
checked against the recorded reference in ``reference.json``.

With ``--trace 0`` the run prints the end-to-end metrics: set-up time is the
median over processes that import ``sqfree`` and build every table the jobs
need, and everything else is timed untraced.  With ``--trace 1`` the run
runs each pass untraced and traced and prints the per-layer metrics of
``BENCHMARK.json`` from the spans of ``tracer.py``, per traced pass.

The last line of stdout is the result object; the line before it is the
report (environment stamp, sample counts, input properties, failures).
Spans and the report are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

# Processes timed for set-up, the measuring one included: 3 to 9, more
# while they are cheap.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 4.0
# A run measures at least this many jobs, so that the tail is defined.
MIN_JOBS = 11
# Jobs of the first pass rerun with --threads 1 and --threads 2 in a traced run.
SPEEDUP_JOBS = 3


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken set-up)."""


def import_program():
    """Import ``sqfree.cli`` from this checkout's ``src/``."""
    package = SRC / "sqfree"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no sqfree package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sqfree.cli
    if Path(sqfree.cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported sqfree from {sqfree.cli.__file__}, not from {package}")
    return sqfree.cli


def run_job(cli, argv):
    """Run one job through the command entry; returns (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a crash is a failed job, not a failed benchmark
        code = 1
        err.write(traceback.format_exc())
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


def matches(expected: str, actual: str) -> bool:
    """True when ``actual`` has ``expected``'s rows with the same bytes in every
    column ``expected`` has.  Extra columns are allowed, so a change that adds
    an output column does not read as a wrong answer; any changed cell does."""
    exp, act = expected.split("\n"), actual.split("\n")
    if len(exp) != len(act) or exp[-1] != "" or act[-1] != "":
        return False
    exp_cols, act_cols = exp[0].split(","), act[0].split(",")
    if not set(exp_cols) <= set(act_cols):
        return False
    where = [act_cols.index(c) for c in exp_cols]
    for exp_row, act_row in zip(exp[1:-1], act[1:-1]):
        cells = act_row.split(",")
        if len(cells) != len(act_cols) or [cells[i] for i in where] != exp_row.split(","):
            return False
    return True


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: (value, percentile)."""
    n = len(samples)
    if n < 11:
        raise ValueError(f"need at least 11 samples for the tail, got {n}")
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def set_up(bounds) -> float:
    """Import sqfree and build the prime tables up to ``bounds``; returns the seconds.

    A bound the program refuses to tabulate is skipped: the jobs then get
    their primes some other way, and set-up has nothing to build for them.
    """
    start = time.perf_counter()
    import_program()
    from sqfree import arith, errors
    for bound in bounds:
        try:
            arith.primes_up_to(bound)
        except (errors.MemoryBudgetError, ValueError):
            pass
    return time.perf_counter() - start


def probe_setup(args) -> float:
    """Set-up time of a fresh process building the same tables."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise BenchError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def setup_samples(args, bounds) -> list:
    """Set-up times: this process's own, then fresh processes until there are
    SETUP_MIN samples, and more (up to SETUP_MAX) while they took less than
    SETUP_BUDGET_S in all.  This process has imported nothing of sqfree yet,
    like the fresh ones."""
    start = time.perf_counter()
    samples = [set_up(bounds)]
    while len(samples) < SETUP_MIN or (len(samples) < SETUP_MAX and
                                       time.perf_counter() - start < SETUP_BUDGET_S):
        samples.append(probe_setup(args))
    return samples


class Checker:
    """Counts attempted and failed jobs and keeps the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.exit_codes: dict[str, int] = {}
        self.reasons: list[str] = []

    def job(self, argv, code, out, expected, err) -> None:
        """Record one job; ``expected`` None checks the exit code only."""
        self.attempted += 1
        self.exit_codes[str(code)] = self.exit_codes.get(str(code), 0) + 1
        if code != 0:
            self.fail(f"exit {code}: {' '.join(argv)}: {err.strip()[-300:]}")
        elif expected is not None and not matches(expected, out):
            self.fail(f"output differs from reference: {' '.join(argv)}: {out!r}")

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def oracle_check(checker, records) -> None:
    """r = 1 counts against Q(x+h) - Q(x), an independent path (untimed)."""
    from sqfree.sieve import count_squarefree
    verdict = {}
    for job, code, _, out in records:
        if job.argv[0] != "count" or code != 0 or not matches(job.expected, out):
            continue
        x, h, offsets = workloads.window_of(job.argv)
        if "," in offsets:
            continue
        if job.argv not in verdict:
            q = int(out.split("\n")[1].split(",")[-1])
            verdict[job.argv] = q == count_squarefree(x + h) - count_squarefree(x)
        if not verdict[job.argv]:
            checker.fail(f"count differs from Q(x+h) - Q(x): {' '.join(job.argv)}")


def run_pass(cli, jobs, checker, records=None, tracer=None, label=0):
    """Run one pass of jobs; returns its wall time and the per-job latencies."""
    gc.collect()
    latencies = []
    context = tracer if tracer is not None else contextlib.nullcontext()
    with context:
        start = time.perf_counter()
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = f"{label}.{index}"
            code, seconds, out, err = run_job(cli, job.argv)
            latencies.append(seconds)
            checker.job(job.argv, code, out, job.expected, err)
            if records is not None:
                records.append((job, code, seconds, out))
        wall = time.perf_counter() - start
    return wall, latencies


def timed_run(args, workload, passes, checker, report) -> dict:
    flat = [job for jobs in passes for job in jobs]
    setup = setup_samples(args, workloads.table_bounds(flat))
    cli = import_program()
    walls, latencies, records = [], [], []
    start = time.perf_counter()
    for jobs in passes:
        wall, lat = run_pass(cli, jobs, checker, records)
        walls.append(wall)
        latencies.extend(lat)
        if time.perf_counter() - start >= args.seconds and len(latencies) >= MIN_JOBS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload.oracle:
        oracle_check(checker, records)
    elems = 0
    for job, _, _, _ in records:
        window = workloads.window_of(job.argv)
        if window is not None:
            elems += window[1] * (window[2].count(",") + 1)
    tail_ms, percentile = tail(latencies)
    report.update(setup_samples_s=setup, passes_run=len(walls), pass_walls_s=walls,
                  job_latencies_s=[[job.template, seconds] for job, _, seconds, _ in records],
                  samples=len(latencies),
                  tail_percentile=percentile)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_tail_ms": tail_ms * 1e3,
        "elems_per_s": elems / sum(walls),
        "peak_rss_mb": peak_rss_mb,
    }


def speedup_subset(cli, jobs, checker) -> float:
    """Time the largest windows of a pass as `count` jobs at 1 and 2 threads."""
    windows = [w for w in (workloads.window_of(job.argv) for job in jobs) if w is not None]
    windows.sort(key=lambda w: (-w[1] * (w[2].count(",") + 1), w))
    windows = windows[:SPEEDUP_JOBS]
    times = {"1": 0.0, "2": 0.0}
    for k, (x, h, offsets) in enumerate(windows):
        outputs = {}
        for threads in (("1", "2") if k % 2 == 0 else ("2", "1")):
            argv = ["count", "--x", str(x), "--h", str(h), "--offsets", offsets,
                    "--threads", threads]
            code, seconds, out, err = run_job(cli, argv)
            times[threads] += seconds
            outputs[threads] = out
            checker.job(argv, code, out, None, err)
        if outputs["1"] != outputs["2"]:
            checker.fail(f"--threads changed the output of count {x} {h} {offsets}")
    return times["1"] / times["2"]


def traced_run(args, passes, checker, report) -> dict:
    flat = [job for jobs in passes for job in jobs]
    cli = import_program()
    setup_tracer = tracing.Tracer()
    setup_tracer.job = "setup"
    bindings = setup_tracer.bindings()
    with setup_tracer:
        set_up(workloads.table_bounds(flat))

    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    for k, jobs in enumerate(passes):
        order = (None, tracer) if k % 2 == 0 else (tracer, None)
        for tr in order:
            wall, _ = run_pass(cli, jobs, checker, tracer=tr, label=k)
            (traced if tr is not None else plain).append(wall)
        if time.perf_counter() - start >= args.seconds:
            break
    speedup = speedup_subset(cli, passes[0], checker)

    restored = all(getattr(mod, attr) is setup_tracer.originals[name]
                   for mod, attr, name in bindings)
    import sqfree.selberg
    import sqfree.sieve
    restored = restored and sqfree.selberg.count_congruent is sqfree.sieve.count_congruent
    if not restored:
        checker.fail("a traced function was not restored")

    spans = tracer.spans
    totals = tracing.layer_totals(spans)
    self_sum = sum(tracing.self_times(spans))
    trace_wall = sum(traced)
    if self_sum > trace_wall:
        checker.fail(f"self times {self_sum} exceed the traced wall time {trace_wall}")

    def per(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    # sums over the traced passes, reported per pass
    n = len(traced)
    metrics = {}
    for name, row in totals.items():
        for key, value in row.items():
            metrics[f"{name}.{key}"] = value / n
    c = collections.defaultdict(float, {k: v / n for k, v in tracer.counters.items()})

    metrics["arith.primes_up_to.setup_s"] = tracing.layer_totals(
        setup_tracer.spans)["arith.primes_up_to"]["busy_s"]
    metrics["arith.primes_up_to.max_primes"] = max(
        setup_tracer.maxima["arith.primes_up_to.max_primes"],
        tracer.maxima["arith.primes_up_to.max_primes"])
    elems = c["sieve.count_tuples.elems"]
    metrics["sieve.count_tuples.elems"] = elems
    metrics["sieve.count_tuples.ns_per_elem"] = per(
        metrics["sieve.count_tuples.busy_s"], elems, 1e9)
    metrics["sieve.count_tuples.speedup_2t"] = speedup
    small = c["sieve.count_congruent.small_modulus_calls"]
    metrics["sieve.count_congruent.small_modulus_calls"] = small
    metrics["density.density_constant.factors"] = c["density.density_constant.factors"]
    metrics["selberg.optimal_weights.weights"] = c["selberg.optimal_weights.weights"]
    pairs = c["selberg.quadratic_form_bound.pairs"]
    moduli = tracing.child_calls(spans, "selberg.quadratic_form_bound", "sieve.count_congruent") / n
    metrics["selberg.quadratic_form_bound.pairs"] = pairs
    metrics["selberg.quadratic_form_bound.distinct_moduli"] = moduli
    metrics["selberg.quadratic_form_bound.pairs_per_modulus"] = per(pairs, moduli)
    scans = c["buchstab.buchstab_decompose.candidate_scans"]
    metrics["buchstab.buchstab_decompose.ledger_rows"] = c["buchstab.buchstab_decompose.ledger_rows"]
    metrics["buchstab.buchstab_decompose.candidate_scans"] = scans
    metrics["buchstab.buchstab_decompose.removed_per_scan"] = per(
        c["buchstab.buchstab_decompose.removed"], scans)
    square_moduli = c["buchstab.count_square_multiples.moduli"]
    metrics["buchstab.count_square_multiples.moduli"] = square_moduli
    metrics["buchstab.count_square_multiples.ns_per_modulus"] = per(
        metrics["buchstab.count_square_multiples.busy_s"], square_moduli, 1e9)
    metrics["cli.render.bytes"] = c["cli.render.bytes"]
    metrics["trace.overhead_frac"] = trace_wall / sum(plain) - 1.0
    metrics["trace.wall_s"] = trace_wall / n
    metrics["trace.self_frac"] = self_sum / trace_wall

    report["count_congruent_small_modulus_share"] = per(
        small, metrics["sieve.count_congruent.calls"])
    report.update(traced_passes=len(traced), untraced_pass_walls_s=plain,
                  traced_pass_walls_s=traced, spans=len(spans))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    return metrics


def stamp(args, workload, passes) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "sqfree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = done.stdout.strip() if done.returncode == 0 else None
    flat = [job for jobs in passes for job in jobs]
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_per_pass": len(passes[0]),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_rev": rev, "src_sha256": digest.hexdigest(),
        "r1_h_gt_sqrt_x_share": workloads.r1_wide_share(flat),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        passes = workloads.job_passes(workload, reference, args.seed)
        if args.setup_probe:
            seconds = set_up(workloads.table_bounds([j for jobs in passes for j in jobs]))
            print(json.dumps({"setup_s": seconds}))
            return 0
        checker = Checker()
        report = {}
        if args.trace:
            metrics = traced_run(args, passes, checker, report)
            wanted = spec["per_layer"]
        else:
            metrics = timed_run(args, workload, passes, checker, report)
            wanted = spec["end_to_end"]
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report = {**stamp(args, workload, passes), **report}
    report.update(attempted=checker.attempted, failed=checker.failed,
                  failed_frac=checker.failed / checker.attempted,
                  exit_codes=checker.exit_codes, failures=checker.reasons)
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        print(f"bench: metrics do not match BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 2
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    print(json.dumps({"report": {k: v for k, v in report.items() if k != "job_latencies_s"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
