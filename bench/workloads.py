"""Workload definitions: job templates, the recorded job pool and seeded job lists.

A workload is a fixed list of templates.  Each template owns a small pool of
concrete `sqfree` argv lists (made once by ``record.py`` from a fixed pool
seed and stored, with the output each produced, in ``reference.json``).  A
run's seed picks one pool entry per template for every pass and shuffles the
pass, so the program receives only generated argv while every job keeps a
recorded reference output.

Each pass holds one job per template, so every pass has the same mix of
window lengths, tuple sizes and levels; only the window positions (or, for
``density``, the offset pattern) change with the seed.  That keeps the work
per pass, and hence the timings, close across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

# Offsets and sizes used below are chosen so that no job fails at the commit
# that defined the benchmark: every pattern is admissible (no prime square is
# fully covered) and every window stays below the ~1.8e16 prime-table cap.


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


@dataclass(frozen=True)
class Template:
    """One stratum of a workload: a rule that draws a concrete argv."""

    name: str
    draw: Callable[[random.Random], list]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    templates: tuple
    oracle: bool = False  # check r = 1 counts against Q(x+h) - Q(x)


def _count(x_lo: float, x_hi: float, h: int, offsets: str) -> Callable:
    def draw(rng):
        x = _log_uniform(rng, x_lo, x_hi)
        return ["count", "--x", str(x), "--h", str(h), "--offsets", offsets, "--threads", "1"]
    return draw


def _wide_templates() -> tuple:
    # Four log-bands of x in [1e10, 1e12]; band (i + j) % 4 spreads every
    # band over every window length and pattern, so each pass needs prime
    # tables of every size the range touches.
    edges = [10 ** (10 + k / 2) for k in range(5)]
    out = []
    for i, h in enumerate((64_000_000, 100_000_000, 150_000_000)):
        for j, offsets in enumerate(("0", "0,1", "0,1,2", "0,2,6,8")):
            band = (i + j) % 4
            name = f"h{h // 1_000_000}M_r{offsets.count(',') + 1}"
            out.append(Template(name, _count(edges[band], edges[band + 1], h, offsets)))
    return tuple(out)


def _deep_templates() -> tuple:
    # Bands split where sqrt(x + h) crosses 2^25 and 2^26: the prime table
    # is sized to a power of two, so every pass touches all three table sizes
    # and set-up builds the same tables for every seed.
    # Narrow bands also keep the large-prime count, and so the job time,
    # close across the seeds that draw from one band.
    bands = ((1.0e15, 1.12e15), (1.14e15, 2.2e15), (2.2e15, 4.5e15), (4.52e15, 9.0e15),
             (9.0e15, 1.6e16))
    out = []
    for k, (lo, hi) in enumerate(bands):
        for offsets in ("0", "0,1", "0,2"):
            name = f"band{k}_o{offsets.replace(',', '-')}"
            out.append(Template(name, _count(lo, hi, 1_000_000, offsets)))
    return tuple(out)


def _selberg(level: int, h: int, offsets: str) -> Template:
    def draw(rng):
        x = _log_uniform(rng, 1e6, 1e9)
        return ["selberg", "--x", str(x), "--h", str(h), "--offsets", offsets, "--z", str(level)]
    return Template(f"selberg_z{level}_r{offsets.count(',') + 1}", draw)


def _density(patterns: tuple) -> Template:
    def draw(rng):
        return ["density", "--offsets", rng.choice(patterns), "--prime-cutoff", "10000000"]
    return Template(f"density_r{patterns[0].count(',') + 1}", draw)


def _buchstab(lambda0: int, offsets: str, x_lo: float, x_hi: float) -> Template:
    def draw(rng):
        x = _log_uniform(rng, x_lo, x_hi)
        return ["buchstab", "--x", str(x), "--h", "100000", "--offsets", offsets,
                "--lambda0", str(lambda0)]
    return Template(f"buchstab_l{lambda0}", draw)


def _squaremul(x_lo: float, x_hi: float) -> Template:
    def draw(rng):
        x = _log_uniform(rng, x_lo, x_hi)
        return ["squaremul", "--x", str(x), "--h", "1000000", "--d-lo", "1",
                "--d-hi", "20000000"]
    return Template(f"squaremul_x{x_lo:.0e}", draw)


def _certify_templates() -> tuple:
    return (
        _selberg(60, 10_000, "0,2"),          # exact rational weights
        _selberg(100, 30_000, "0,2,6"),       # exact rational weights
        _selberg(150, 30_000, "0,4,6"),
        _selberg(200, 100_000, "0,1,2"),
        _selberg(200, 100_000, "0,2,6,8"),
        _selberg(300, 10_000, "0,6"),
        _density(("0", "1", "2", "3")),
        _density(("0,1", "0,2", "0,6", "0,12")),
        _density(("0,2,6", "0,4,6", "0,1,2", "0,6,12")),
        _density(("0,2,6,8", "0,4,6,10", "0,2,8,12", "0,6,12,18")),
        # ledger and square-multiple work grow with x: narrow bands keep
        # each template's cost close across seeds
        _buchstab(3, "0,1", 1e6, 1e7),
        _buchstab(5, "0,2", 1e7, 1e8),
        _buchstab(10, "0,6", 1e8, 1e9),
        _squaremul(1e12, 2e12),
        _squaremul(5e13, 1e14),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide_window",
            "count over windows of 6.4e7-1.5e8 at x in [1e10, 1e12]: the segment "
            "kernel is nearly all the time; a quarter of jobs are r = 1 with h >> sqrt(x)",
            _wide_templates(), oracle=True,
        ),
        Workload(
            "deep_window",
            "count over one 1e6 window at x in [1e15, 1.6e16], below the ~1.8e16 table cap: "
            "large-prime scatter dominates jobs, the prime table to 1.26e8 set-up and memory",
            _deep_templates(),
        ),
        Workload(
            "certify",
            "selberg, density, buchstab and squaremul certificates: congruent counts, "
            "density products, ledger and square-multiple scans; the sieve idles",
            _certify_templates(),
        ),
    )
}

# Number of concrete argv lists recorded per template.
POOL_SIZE = 6
# Passes generated per run; a run stops earlier, once its time is up.
MAX_PASSES = 100


def make_pool(workload: Workload) -> dict:
    """The fixed job pool of a workload: template name -> list of argv."""
    rng = random.Random(f"sqfree-bench-pool/{workload.name}")
    pool = {}
    for template in workload.templates:
        entries = []
        for _ in range(20 * POOL_SIZE):  # templates with few distinct argv stop short
            argv = template.draw(rng)
            if argv not in entries:
                entries.append(argv)
            if len(entries) == POOL_SIZE:
                break
        pool[template.name] = entries
    return pool


@dataclass(frozen=True)
class Job:
    template: str
    argv: tuple
    expected: str


def job_passes(workload: Workload, reference: dict, seed: int,
               passes: int = MAX_PASSES) -> list:
    """Seeded job list: ``passes`` lists of one job per template, shuffled."""
    rng = random.Random(seed)
    recorded = reference[workload.name]
    out = []
    for _ in range(passes):
        jobs = []
        for template in workload.templates:
            entries = recorded[template.name]
            entry = entries[rng.randrange(len(entries))]
            jobs.append(Job(template.name, tuple(entry["argv"]), entry["stdout"]))
        rng.shuffle(jobs)
        out.append(jobs)
    return out


def flag(argv, name: str):
    """Value of ``--name`` in an argv list, or None."""
    argv = list(argv)
    key = f"--{name}"
    return argv[argv.index(key) + 1] if key in argv else None


def window_of(argv):
    """(x, h, offsets) of a job that counts a window, else None."""
    if argv[0] not in ("count", "selberg", "buchstab"):
        return None
    return int(flag(argv, "x")), int(flag(argv, "h")), flag(argv, "offsets")


def table_bounds(jobs) -> list:
    """Prime-table bounds the jobs ask for, ascending.

    A window job tests squarefreeness with the primes up to
    sqrt(x + h + largest offset); a density bracket (also built by selberg)
    uses the primes up to its cutoff, and a weight system the primes up to
    its level.
    """
    bounds = set()
    for job in jobs:
        argv = job.argv
        window = window_of(argv)
        if window is not None:
            x, h, offsets = window
            bounds.add(math.isqrt(x + h + int(offsets.split(",")[-1])))
        if argv[0] in ("selberg", "density"):
            bounds.add(int(flag(argv, "prime-cutoff") or 10_000_000))
        if argv[0] == "selberg":
            bounds.add(int(float(flag(argv, "z"))))
    return sorted(bounds)


def r1_wide_share(jobs) -> float:
    """Share of jobs that are r = 1 counts with h > sqrt(x): the input property
    a Q(x+h) - Q(x) dispatch keys on."""
    hits = 0
    for job in jobs:
        if job.argv[0] == "count":
            x, h, offsets = window_of(job.argv)
            if "," not in offsets and h * h > x:
                hits += 1
    return hits / len(jobs)
