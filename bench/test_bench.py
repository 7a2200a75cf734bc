"""Tests of the benchmark's own machinery: span arithmetic, the tail rule,
output matching, the recorded pool and tracer restoration.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_program()


def _span(name, start, end, parent):
    return [name, start, end, parent, "job", False]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("a", 0.0, 10.0, None),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("d", 5.0, 9.0, 0),
        _span("e", 8.0, 12.0, 0),  # overlaps d and runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0])


def test_layer_totals_count_reentrant_busy_time_once():
    name = "sieve.count_tuples"
    spans = [
        _span("cli.run_command", 0.0, 10.0, None),
        _span(name, 1.0, 7.0, 0),
        _span("arith.primes_up_to", 2.0, 3.0, 1),
        _span(name, 4.0, 6.0, 1),
    ]
    spans[3][tracing.ERROR] = True
    totals = tracing.layer_totals(spans)
    assert totals[name]["calls"] == 2
    assert totals[name]["busy_s"] == pytest.approx(6.0)
    assert totals[name]["self_s"] == pytest.approx(3.0 + 2.0)
    assert totals[name]["errors"] == 1
    assert totals["cli.run_command"]["self_s"] == pytest.approx(4.0)
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile = run.tail(list(range(20, 0, -1)))
    assert value == 10 and percentile == 50.0
    assert sum(1 for s in range(1, 21) if s > value) == 10
    value, percentile = run.tail([5.0] * 3 + [1.0] * 8)
    assert value == 1.0 and percentile == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_matches_compares_every_reference_column_byte_for_byte():
    ref = "x,h,q\n1,2,3\n"
    assert run.matches(ref, ref)
    assert run.matches(ref, "x,extra,h,q\n1,9,2,3\n")
    assert not run.matches(ref, "x,h,q\n1,2,4\n")
    assert not run.matches(ref, "x,h\n1,2\n")
    assert not run.matches(ref, "x,h,q\n1,2,3\n1,2,3\n")
    assert not run.matches(ref, "x,h,q\n1,2,3")


def test_reference_holds_the_pool_of_every_template():
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    assert set(reference) == set(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS.values():
        pool = workloads.make_pool(workload)
        recorded = reference[workload.name]
        assert list(recorded) == list(pool)
        for name, argvs in pool.items():
            assert [entry["argv"] for entry in recorded[name]] == argvs
        first = workloads.job_passes(workload, reference, 7, 2)
        assert first == workloads.job_passes(workload, reference, 7, 2)
        assert all(len(jobs) == len(workload.templates) for jobs in first)


SMALL_JOBS = (
    ["count", "--x", "1000", "--h", "100", "--offsets", "0,1"],
    ["selberg", "--x", "10000", "--h", "500", "--offsets", "0", "--z", "30",
     "--prime-cutoff", "1000"],
    ["density", "--offsets", "0,2", "--prime-cutoff", "1000"],
    ["buchstab", "--x", "10000", "--h", "1000", "--offsets", "0,2", "--lambda0", "5"],
    ["squaremul", "--x", "100", "--h", "20", "--d-lo", "5", "--d-hi", "10"],
    ["count", "--x", "1000", "--h", "0", "--offsets", "0"],  # exits 2
)


def test_traced_run_records_spans_and_restores_every_binding():
    import sqfree
    import sqfree.selberg
    import sqfree.sieve

    tracer = tracing.Tracer()
    bindings = tracer.bindings()
    bound = {(mod.__name__, attr) for mod, attr, _ in bindings}
    assert {("sqfree.selberg", "count_congruent"), ("sqfree.selberg", "count_tuples"),
            ("sqfree.selberg", "density_constant"), ("sqfree.buchstab", "count_tuples"),
            ("sqfree.buchstab", "primes_up_to"), ("sqfree.cli", "count_tuples"),
            ("sqfree.cli", "render"), ("sqfree.sieve", "primes_up_to")} <= bound
    codes = []
    with tracer:
        assert sqfree.selberg.count_congruent is sqfree.sieve.count_congruent
        assert sqfree.sieve.count_congruent is not tracer.originals["sieve.count_congruent"]
        for job, argv in enumerate(SMALL_JOBS):
            tracer.job = job
            codes.append(run.run_job(CLI, argv)[0])
    assert codes == [0, 0, 0, 0, 0, 2]
    for mod, attr, name in bindings:
        assert getattr(mod, attr) is tracer.originals[name]
    assert sqfree.selberg.count_congruent is sqfree.sieve.count_congruent
    assert sqfree.count_tuples is sqfree.sieve.count_tuples

    spans = tracer.spans
    names = {span[tracing.NAME] for span in spans}
    assert {"cli.run_command", "cli.render", "sieve.count_tuples", "sieve.count_congruent",
            "selberg.optimal_weights", "selberg.quadratic_form_bound",
            "density.density_constant", "buchstab.buchstab_decompose",
            "buchstab.count_square_multiples", "arith.primes_up_to"} <= names
    totals = tracing.layer_totals(spans)
    assert totals["cli.run_command"]["calls"] == 6
    assert totals["cli.run_command"]["errors"] == 1  # the empty window
    assert totals["cli.render"]["calls"] == 5
    assert tracer.counters["cli.render.bytes"] > 0
    # count 100 x 2, selberg's exact count 500 x 1, buchstab's two counts 1000 x 2
    assert tracer.counters["sieve.count_tuples.elems"] == 200 + 500 + 2 * 2000
    assert tracer.counters["buchstab.count_square_multiples.moduli"] == 6  # d = 5..10
    moduli = tracing.child_calls(spans, "selberg.quadratic_form_bound", "sieve.count_congruent")
    assert moduli == totals["sieve.count_congruent"]["calls"] > 0
    wall = max(s[tracing.END] for s in spans) - min(s[tracing.START] for s in spans)
    assert sum(tracing.self_times(spans)) <= wall


def test_table_bounds_cover_window_ends_cutoffs_and_levels():
    jobs = [workloads.Job("t", ("count", "--x", "100", "--h", "50", "--offsets", "0,2"), ""),
            workloads.Job("t", ("selberg", "--x", "100", "--h", "50", "--offsets", "0", "--z",
                                "30"), ""),
            workloads.Job("t", ("density", "--offsets", "0", "--prime-cutoff", "1000"), ""),
            workloads.Job("t", ("squaremul", "--x", "100", "--h", "20", "--d-lo", "5",
                                "--d-hi", "10"), "")]
    assert workloads.table_bounds(jobs) == [12, 30, 1000, 10_000_000]
