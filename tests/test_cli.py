import ast
import hashlib
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sqfree.cli import build_parser, main, run_command
from sqfree.sieve import SEGMENT_SIZE, count_tuples
from sqfree import buchstab, sieve
from sqfree.buchstab import SquareMultipleQuery, base_main_term, count_square_multiples


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ------------------------------------------------------------ commands

def test_count_command(capsys):
    code, out, _ = run_cli(capsys, "count", "--x", "0", "--h", "10", "--offsets", "0")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["q"] == "7"


def test_count_accepts_underscores(capsys):
    code, out, _ = run_cli(capsys, "count", "--x", "1_000", "--h", "1_00", "--offsets", "0,1")
    assert code == 0
    assert parse_csv(out)[0]["x"] == "1000"


def test_count_z_auto_is_a_usage_error(capsys):
    # "auto" is a selberg level; count --z takes a number only
    code, out, err = run_cli(capsys, "count", "--x", "0", "--h", "10", "--offsets", "0",
                             "--z", "auto")
    assert code == 2
    assert out == ""
    assert "argument --z: invalid float value: 'auto'" in err


def test_density_command(capsys):
    code, out, _ = run_cli(capsys, "density", "--offsets", "0", "--prime-cutoff", "1000000")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["lower"]) <= 0.6079271 <= float(row["upper"])
    assert row["inverse_holds"] == "true"


def test_density_degenerate_row(capsys):
    code, out, _ = run_cli(capsys, "density", "--offsets", "0,1,2,3", "--prime-cutoff", "10000")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["degenerate_zero"] == "true"
    assert row["lower"] == "0" and row["upper"] == "0"
    assert row["inverse_upper"] == ""


def test_selberg_command_auto_level(capsys):
    code, out, _ = run_cli(
        capsys, "selberg", "--x", "10000", "--h", "500", "--offsets", "0", "--z", "auto"
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["form_value"]) >= int(row["exact_count"])
    assert row["certified"] == "true"


def test_selberg_auto_level_not_above_2_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "selberg", "--x", "100", "--h", "10", "--offsets", "0", "--z", "auto"
    )
    assert code == 2
    assert out == ""
    assert err == "error: automatic sieve level 1.63153 is not above 2; pass --z explicitly\n"


def test_selberg_json_writes_a_non_finite_reference_as_null(capsys):
    # h < 16 has no excess exponent, so reference_rhs is nan
    code, out, _ = run_cli(
        capsys, "selberg", "--x", "100", "--h", "10", "--offsets", "0", "--z", "3",
        "--format", "json",
    )
    assert code == 0
    assert '"reference_rhs": null' in out
    assert json.loads(out)[0]["reference_rhs"] is None


def test_selberg_explicit_level(capsys):
    code, out, _ = run_cli(
        capsys, "selberg", "--x", "1000", "--h", "200", "--offsets", "0,1", "--z", "12.5"
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["z"]) == 12.5
    assert row["certified"] == "true"


def test_buchstab_command(capsys):
    code, out, _ = run_cli(
        capsys, "buchstab", "--x", "10_000", "--h", "1000", "--offsets", "0,2",
        "--lambda0", "5",
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert row["reconciliation"] == "0"
    assert int(row["base_count"]) - int(row["removed_total"]) == int(row["exact_count"])


# Outputs recorded before the ledger was rebuilt as one marking pass per
# segment: the CSV data row and the first 16 hex digits of the JSON's sha256.
# r = 1..4, cutoffs 2, 3, 5, 5.5 and 10, x = 0, a degenerate pattern, and a
# window of 300000, longer than one 2^18 ledger segment.
BUCHSTAB_RECORDED = [
    ("--x 10000 --h 1000 --offsets 0 --lambda0 2",
     "10000,1000,0,2,1000,1000,0,1,396,454,604,0,27",
     "904c939b2ad1284a"),
    ("--x 10000 --h 1000 --offsets 0,2 --lambda0 5",
     "10000,1000,0;2,5,390,388.888888888889,1.11111111111109,9,70,186,320,0,50",
     "0b057fc31a9b55d6"),
    ("--x 1000000 --h 300000 --offsets 0,2 --lambda0 10",
     "1000000,300000,0;2,10,102954,102952.380952381,1.61904761903861,81,6173,18374,96781,0,370",
     "6b8cc9e1ca84df15"),
    ("--x 123456 --h 5000 --offsets 0,2,6 --lambda0 5.5",
     "123456,5000,0;2;6,5.5,1467,1466.66666666667,0.33333333333303,48,202,756,1265,0,204",
     "5a309347920eb002"),
    ("--x 5000000 --h 20000 --offsets 0,2,6,8 --lambda0 10",
     "5000000,20000,0;2;6;8,10,4286,4285.71428571429,0.285714285713766,375,509,2436,3777,0,1316",
     "ab69a27bad81ecfb"),
    ("--x 0 --h 300 --offsets 0,1 --lambda0 3",
     "0,300,0;1,3,150,150,0,3,52,110,98,0,12",
     "016412f2cd448a51"),
    ("--x 98091474 --h 100000 --offsets 0,2 --lambda0 5",
     "98091474,100000,0;2,5,38888,38888.8888888889,0.888888888890506,9,6610,18220,32278,0,2440",
     "f7540ad0753d19af"),
    ("--x 1000000000000 --h 1000 --offsets 0 --lambda0 2",
     "1000000000000,1000,0,2,1000,1000,0,1,395,454,605,0,78498",
     "12dd2a3b711f928f"),
    ("--x 3000 --h 500 --offsets 0,1,2,3 --lambda0 2",
     "3000,500,0;1;2;3,2,500,500,0,1,500,900,0,0,68",
     "db50ec2779f6e82b"),
    ("--x 1708114 --h 100000 --offsets 0,1 --lambda0 3",
     "1708114,100000,0;1,3,50000,50000,0,3,17726,40430,32274,0,432",
     "d8d64e01a93e2a8c"),
]


@pytest.mark.parametrize("argv, csv_row, json_digest", BUCHSTAB_RECORDED)
def test_buchstab_output_is_byte_identical_to_the_record(capsys, argv, csv_row, json_digest):
    code, out, _ = run_cli(capsys, "buchstab", *argv.split())
    assert code == 0
    header = ("x,h,offsets,lambda0,base_count,base_main,base_error,divisor_cap,"
              "removed_total,removed_cap,exact_count,reconciliation,ledger_rows")
    assert out == header + "\n" + csv_row + "\n"
    code, out, _ = run_cli(capsys, "buchstab", *argv.split(), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == json_digest


def test_buchstab_past_the_supported_range_exits_2_with_the_range_message(capsys):
    # x + h is inside 2^62, the largest offset takes it past
    code, out, err = run_cli(capsys, "buchstab", "--x", "4611686018427387800", "--h", "100",
                             "--offsets", "0,100", "--lambda0", "5")
    assert code == 2
    assert out == ""
    assert err == "error: window end plus largest offset exceeds the supported range 2^62\n"


RANGE_MESSAGE = "error: window end plus largest offset exceeds the supported range 2^62\n"
REGIME_NOTE = ("note: largest offset or window length exceeds the window start; "
               "results are exact but outside the certified asymptotic regime\n")


@pytest.mark.parametrize("argv, err", [
    (["selberg", "--x", "4611686018427387800", "--h", "100", "--offsets", "0,100", "--z", "30"],
     RANGE_MESSAGE),
    (["sweep", "--x", "4611686018427387800", "--h", "100", "--offsets", "0,100"],
     RANGE_MESSAGE),
    (["selberg", "--x", "1000", "--h", "100", "--offsets", "0,4611686018427387000", "--z", "30"],
     REGIME_NOTE + RANGE_MESSAGE),
    # the last window of the grid is the one out of range
    (["sweep", "--x", "1000,4611686018427387800", "--h", "100", "--offsets", "0",
      "--offsets", "0,100"], RANGE_MESSAGE),
])
def test_selberg_and_sweep_refuse_past_the_range_before_any_table(capsys, monkeypatch, argv, err):
    import sqfree.cli as cli_module
    from sqfree import density, selberg

    def reached(*args, **kwargs):
        raise AssertionError("a table was built before the window was checked")

    for module in (sieve, selberg, density, buchstab):
        monkeypatch.setattr(module, "primes_up_to", reached)
    for module in (cli_module, selberg):
        monkeypatch.setattr(module, "density_constant", reached)
    monkeypatch.setattr(cli_module, "optimal_weights", reached)
    monkeypatch.setattr(cli_module, "count_tuples", reached)
    code, out, captured_err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert captured_err == err


def test_buchstab_contract_failure_exits_3(capsys, monkeypatch):
    import sqfree.cli as cli_module

    class Unreconciled:
        reconciliation = 1

    monkeypatch.setattr(cli_module, "buchstab_decompose", lambda *a, **k: Unreconciled())
    code, out, err = run_cli(capsys, "buchstab", "--x", "1000", "--h", "100", "--offsets", "0",
                             "--lambda0", "3")
    assert code == 3
    assert out == ""
    assert err == "contract failure: decomposition does not reconcile: residue 1\n"


def test_buchstab_work_cap_reject_is_unchanged(capsys, monkeypatch):
    # 2,126,148 rows: primes from 5 to sqrt(1.2e15 + 10), refused before
    # either count or the main term runs.
    calls = []
    monkeypatch.setattr(buchstab, "count_tuples", lambda *a, **k: calls.append("count"))
    monkeypatch.setattr(buchstab, "base_main_term", lambda *a, **k: calls.append("main"))
    code, out, err = run_cli(capsys, "buchstab", "--x", "1200000000000000", "--h", "10",
                             "--offsets", "0", "--lambda0", "5")
    assert code == 2
    assert out == ""
    assert err == "error: window too large for an exact ledger (2126148 rows > cap 2000000)\n"
    assert calls == []


def test_buchstab_renders_a_divisor_cap_past_the_int_digit_limit(capsys):
    # 2^pi(190000) has more than 4300 digits, the interpreter's default limit
    # for int-to-str conversion; the limit is lifted while rendering only.
    argv = ["buchstab", "--x", "10000000000", "--h", "1000", "--offsets", "0",
            "--lambda0", "190000"]
    cap = base_main_term([0], 190000.0).divisor_cap
    limit = sys.get_int_max_str_digits()
    code, csv_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(cap)) > 4300
        assert int(parse_csv(csv_out)[0]["divisor_cap"]) == cap
        assert json.loads(json_out)[0]["divisor_cap"] == cap
    finally:
        sys.set_int_max_str_digits(limit)


def test_selberg_output_is_byte_identical_to_the_benchmark_record(capsys):
    # Every selberg entry of the benchmark's recorded pool, read only: argv
    # and the stdout recorded for it.
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
    with open(path) as fh:
        certify = json.load(fh)["certify"]
    entries = [entry for name, pool in certify.items() if name.startswith("selberg")
               for entry in pool]
    assert len(entries) == 36
    for entry in entries:
        code, out, _ = run_cli(capsys, *entry["argv"])
        assert code == 0, entry["argv"]
        assert out == entry["stdout"], entry["argv"]


def test_squaremul_command(capsys):
    code, out, _ = run_cli(
        capsys, "squaremul", "--x", "100", "--h", "20", "--d-lo", "5", "--d-hi", "10"
    )
    assert code == 0
    assert parse_csv(out)[0]["count"] == "1"
    assert parse_csv(out)[0]["count"] == str(
        count_square_multiples(SquareMultipleQuery(100, 20, 5, 10))
    )


def test_squaremul_with_d_lo_past_int64_counts_zero(capsys):
    code, out, _ = run_cli(
        capsys, "squaremul", "--x", "100", "--h", "20", "--d-lo", "9.3e18", "--d-hi", "1e19"
    )
    assert code == 0
    assert parse_csv(out)[0]["count"] == "0"


def test_sweep_grid_cardinality(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--x", "1000,2000,3000", "--h", "50", "--offsets", "0"
    )
    assert code == 0
    assert len(parse_csv(out)) == 3


def test_sweep_degenerate_pattern_has_empty_ratio(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--x", "1000", "--h", "50", "--offsets", "0,1,2,3",
        "--prime-cutoff", "10000",
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert row["q"] == "0"
    assert row["density_mid"] == "0"
    assert row["ratio"] == "" and row["excess_stat"] == ""


def test_sweep_short_window_has_empty_excess_columns(capsys):
    # the excess exponent is defined from h = 16 on
    code, out, _ = run_cli(capsys, "sweep", "--x", "1000", "--h", "15,16", "--offsets", "0",
                           "--prime-cutoff", "1000")
    assert code == 0
    short, first = parse_csv(out)
    assert short["ratio"] != ""
    assert short["excess_exponent"] == "" and short["excess_stat"] == ""
    assert first["excess_exponent"] != "" and first["excess_stat"] != ""


def test_excess_columns_at_h_15_and_16_are_unchanged(capsys):
    # Recorded before the h >= 16 rule was read from selberg.EXCESS_MIN_LENGTH.
    header = ("x,h,offsets,z,form_minimum,normalizer,weight_mass,tail_defect,"
              "inv_density_upper,form_value,exact_count,reference_rhs,certified\n")
    selberg_rows = {
        "15": "1000,15,0,5,0.666666666666667,1.5,3.33333333333333,0.148021231603327,"
              "1.64802123160333,12.4328703703704,11,nan,true\n",
        "16": "1000,16,0,5,0.666666666666667,1.5,3.33333333333333,0.148021231603327,"
              "1.64802123160333,12.4452160493827,11,14.008536941776,true\n",
    }
    for h, row in selberg_rows.items():
        code, out, _ = run_cli(capsys, "selberg", "--x", "1000", "--h", h, "--offsets", "0",
                               "--z", "5", "--prime-cutoff", "1000")
        assert code == 0
        assert out == header + row
    code, out, _ = run_cli(capsys, "sweep", "--x", "1000", "--h", "15,16", "--offsets", "0",
                           "--prime-cutoff", "1000")
    assert code == 0
    assert out == (
        "x,h,r,offsets,q,density_lower,density_upper,density_mid,ratio,excess_exponent,"
        "excess_stat\n"
        "1000,15,1,0,11,0.606788299096802,0.608004307306352,0.607396303201577,"
        "1.20733914491732,,\n"
        "1000,16,1,0,11,0.606788299096802,0.608004307306352,0.607396303201577,"
        "1.13188044835999,0.0384167225945208,0.298741391237952\n"
    )


def test_sweep_multiple_patterns(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--x", "1000", "--h", "50,60", "--offsets", "0",
        "--offsets", "0,1",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4
    assert {row["r"] for row in rows} == {"1", "2"}


# ------------------------------------------------------- flag surface

# The options each command reads; --format and --out are read by the emit step.
READ_FLAGS = {
    "count": {"--x", "--h", "--offsets", "--z", "--threads"},
    "density": {"--offsets", "--prime-cutoff"},
    "selberg": {"--x", "--h", "--offsets", "--z", "--threads", "--prime-cutoff"},
    "buchstab": {"--x", "--h", "--offsets", "--lambda0"},
    "squaremul": {"--x", "--h", "--d-lo", "--d-hi"},
    "sweep": {"--x", "--h", "--offsets", "--threads", "--prime-cutoff"},
}

SMALL_RUNS = {
    "count": ["count", "--x", "0", "--h", "10", "--offsets", "0"],
    "density": ["density", "--offsets", "0", "--prime-cutoff", "1000"],
    "selberg": ["selberg", "--x", "1000", "--h", "200", "--offsets", "0", "--z", "5",
                "--prime-cutoff", "1000"],
    "buchstab": ["buchstab", "--x", "1000", "--h", "100", "--offsets", "0", "--lambda0", "3"],
    "squaremul": ["squaremul", "--x", "100", "--h", "20", "--d-lo", "5", "--d-hi", "10"],
    "sweep": ["sweep", "--x", "1000", "--h", "50", "--offsets", "0", "--prime-cutoff", "1000"],
}

REMOVED_FLAGS = [
    *[(command, ["--seed", "1"]) for command in READ_FLAGS],
    ("buchstab", ["--psi", "loglog"]),
    ("density", ["--threads", "1"]),
    ("buchstab", ["--threads", "1"]),
    ("squaremul", ["--threads", "2"]),
    ("count", ["--prime-cutoff", "1000"]),
    ("buchstab", ["--prime-cutoff", "1000"]),
    ("squaremul", ["--prime-cutoff", "1000"]),
]


class RecordingArgs:
    """Wraps parsed arguments and records which of them are read."""

    def __init__(self, namespace):
        self._values = vars(namespace)
        self.reads = set()

    def __getattr__(self, name):
        if name not in self._values:
            raise AttributeError(name)
        self.reads.add(name)
        return self._values[name]


def test_every_flag_is_read_and_removed_flags_exit_2(capsys):
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(commands) == set(READ_FLAGS)
    total = 0
    for name, sub in commands.items():
        options = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        assert options == READ_FLAGS[name] | {"--format", "--out"}, name
        total += len(options)
        args = RecordingArgs(parser.parse_args(SMALL_RUNS[name]))
        run_command(args)
        dests = {a.dest for a in sub._actions} - {"help", "format", "out"}
        assert dests <= args.reads, (name, dests - args.reads)
    assert total == 38
    capsys.readouterr()
    for command, extra in REMOVED_FLAGS:
        assert main(SMALL_RUNS[command]) == 0
        assert main(SMALL_RUNS[command] + extra) == 2, (command, extra)
        assert "unrecognized arguments" in capsys.readouterr().err


# ----------------------------------------------------------- formats

def test_json_mirrors_csv_columns(capsys):
    code, csv_out, _ = run_cli(capsys, "count", "--x", "5", "--h", "30", "--offsets", "0,4")
    code2, json_out, _ = run_cli(
        capsys, "count", "--x", "5", "--h", "30", "--offsets", "0,4", "--format", "json"
    )
    assert code == code2 == 0
    csv_rows = parse_csv(csv_out)
    json_rows = json.loads(json_out)
    assert list(json_rows[0].keys()) == list(csv_rows[0].keys())
    assert str(json_rows[0]["q"]) == csv_rows[0]["q"]


def test_csv_uses_lf_and_fifteen_digits(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["density", "--offsets", "0", "--prime-cutoff", "100000",
                 "--out", str(out)])
    assert code == 0
    data = out.read_bytes()
    assert b"\r" not in data
    text = data.decode()
    lower = text.strip().split("\n")[1].split(",")[3]
    assert len(lower.replace(".", "").replace("-", "").lstrip("0")) <= 15


def test_reruns_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(["sweep", "--x", "1000,5000", "--h", "100", "--offsets", "0,1",
                     "--prime-cutoff", "100000", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_thread_count_does_not_change_output(tmp_path):
    # Three full segments and a short fourth, so --threads 2 and 4 run that
    # many workers, each on the wheel; at x = 1e15 each segment also places
    # the primes from 4096 to 4e5 and strikes the larger squares through
    # their cofactors.
    h = 3 * SEGMENT_SIZE + 1000
    assert sieve._wheel(h) == sieve.WHEEL
    for x, fmt in (("1_000_000", "csv"), ("1_000_000_000_000_000", "json")):
        outputs = []
        for threads in ("1", "2", "4"):
            path = tmp_path / f"{x}-t{threads}.{fmt}"
            assert main(["count", "--x", x, "--h", str(h), "--offsets", "0,2",
                         "--threads", threads, "--format", fmt, "--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


def test_thread_count_does_not_change_the_mobius_sum_output(tmp_path, monkeypatch):
    # r = 1 windows of 2 to 400 times sqrt(x + h): the first goes to the
    # kernel, the others to the Mobius sum, which runs on one thread
    between = sieve._squarefree_between
    sums = []
    monkeypatch.setattr(sieve, "_squarefree_between", lambda *a: sums.append(a) or between(*a))
    for x, h in (("10_000_000_000", "200_000"), ("10_000_000_000", "40_000_000"),
                 ("99_000_000", "1_000_000")):
        outputs = []
        for threads in ("1", "2"):
            path = tmp_path / f"{x}-{h}-t{threads}.csv"
            assert main(["count", "--x", x, "--h", h, "--offsets", "0",
                         "--threads", threads, "--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
    assert len(sums) == 4


def test_script_out_matches_stdout(tmp_path):
    script = str(Path(__file__).resolve().parent.parent / "scripts" / "square_multiple_table.py")
    argv = [sys.executable, script, "--x", "10000000", "--scales", "1,2"]
    printed = subprocess.run(argv, capture_output=True, check=True).stdout
    out = tmp_path / "table.csv"
    proc = subprocess.run(argv + ["--out", str(out)], capture_output=True, check=True)
    assert proc.stdout == b""
    assert out.read_bytes() == printed
    assert printed.startswith(b"scale,x,h,d_lo,d_hi,count,ratio\n")


# --------------------------------------------------------- exit codes

def test_usage_error_exit_code(capsys):
    assert main(["count", "--x", "0", "--offsets", "0"]) == 2  # missing --h
    capsys.readouterr()


def test_invalid_offsets_exit_code(capsys):
    code, _, err = run_cli(capsys, "count", "--x", "0", "--h", "10", "--offsets", "3,1")
    assert code == 2
    assert "offsets" in err


def test_invalid_window_exit_code(capsys):
    code, _, _ = run_cli(capsys, "count", "--x", "0", "--h", "0", "--offsets", "0")
    assert code == 2


@pytest.mark.parametrize("command", [
    ["count", "--x", "1000", "--h", "40000000", "--offsets", "0"],
    ["selberg", "--x", "1000", "--h", "40000000", "--offsets", "0", "--z", "5"],
    ["sweep", "--x", "1000", "--h", "40000000", "--offsets", "0"],
])
@pytest.mark.parametrize("threads", ["0", "-3", "65", str(10**9)])
def test_thread_count_out_of_range_exits_2_before_any_pool(capsys, monkeypatch, command, threads):
    import sqfree.cli as cli_module
    import sqfree.sieve as sieve_module

    def reached(what):
        def fail(*args, **kwargs):
            raise AssertionError(f"{what} ran before --threads was checked")
        return fail

    monkeypatch.setattr(sieve_module, "ThreadPoolExecutor", reached("a thread pool"))
    monkeypatch.setattr(cli_module, "optimal_weights", reached("optimal_weights"))
    monkeypatch.setattr(cli_module, "density_constant", reached("density_constant"))
    code, out, err = run_cli(capsys, *command, "--threads", threads)
    assert code == 2
    assert out == ""
    assert "threads must lie in [1, 64]" in err


@pytest.mark.parametrize("argv, message", [
    (["count", "--x", "100", "--h", "10", "--offsets", "0", "--z", "nan"],
     "sieve level z must be finite, not nan"),
    (["count", "--x", "100", "--h", "10", "--offsets", "0", "--z", "inf"],
     "sieve level z must be finite, not inf"),
    (["squaremul", "--x", "100", "--h", "20", "--d-lo", "nan", "--d-hi", "10"],
     "d_lo must be finite, not nan"),
    (["squaremul", "--x", "100", "--h", "20", "--d-lo", "inf", "--d-hi", "10"],
     "d_lo must be finite, not inf"),
    (["squaremul", "--x", "100", "--h", "20", "--d-lo", "5", "--d-hi", "nan"],
     "d_hi must be finite, not nan"),
    (["squaremul", "--x", "100", "--h", "20", "--d-lo", "5", "--d-hi", "inf"],
     "d_hi must be finite, not inf"),
    (["selberg", "--x", "100", "--h", "10", "--offsets", "0", "--z", "nan"],
     "sieve level must exceed 2"),
    (["selberg", "--x", "100", "--h", "10", "--offsets", "0", "--z", "inf"],
     "sieve level above the weight-table cap 10000"),
    (["buchstab", "--x", "100", "--h", "10", "--offsets", "0", "--lambda0", "nan"],
     "cutoff must lie in [2, 2*sqrt(window end + largest offset)]"),
    (["buchstab", "--x", "100", "--h", "10", "--offsets", "0", "--lambda0", "inf"],
     "cutoff must lie in [2, 2*sqrt(window end + largest offset)]"),
    # argparse takes a separate "-inf" for an option; joined with "=" it is a value
    (["count", "--x", "100", "--h", "10", "--offsets", "0", "--z=-inf"],
     "sieve levels must be at least 2"),
    (["squaremul", "--x", "100", "--h", "20", "--d-lo=-inf", "--d-hi", "10"],
     "d_lo must be at least 1"),
    (["selberg", "--x", "100", "--h", "1", "--offsets", "0", "--z", "auto"],
     "h must exceed 1 for the canonical sieve level, not 1"),
])
def test_non_finite_levels_and_bounds_exit_2_naming_the_argument(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_every_command_keeps_the_exit_contract_on_edge_windows(capsys):
    # Edge windows (x at 0 and near 2^62, h from 1 to 16) and prime cutoffs
    # below the tuple size: every run exits 0 or 2, and no exception escapes.
    runs = []
    for offsets in ["0", "0,2", "0,1,2,3"]:
        for x in ["0", "1", "4611686018427387000"]:
            for h in ["1", "2", "15", "16"]:
                window = ["--x", x, "--h", h]
                runs += [["count", *window, "--offsets", offsets],
                         ["count", *window, "--offsets", offsets, "--z", "2"],
                         ["selberg", *window, "--offsets", offsets, "--z", "auto"],
                         ["selberg", *window, "--offsets", offsets, "--z", "3"],
                         ["buchstab", *window, "--offsets", offsets, "--lambda0", "2"],
                         ["squaremul", *window, "--d-lo", "1", "--d-hi", "1e19"],
                         ["sweep", *window, "--offsets", offsets, "--prime-cutoff", "1000"]]
        for cutoff in ["1", "2", "8", "1000"]:
            runs.append(["density", "--offsets", offsets, "--prime-cutoff", cutoff])
    assert len(runs) == 264
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2), (argv, code, err)
        assert (out == "") == (code == 2), (argv, out, err)


@pytest.mark.parametrize("target", ["missing directory", "directory"])
@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_unwritable_out_exits_2_with_the_os_message(capsys, tmp_path, command, target):
    path = tmp_path / "missing" / "rows.csv" if target == "missing directory" else tmp_path
    with pytest.raises(OSError) as expected:
        open(path, "w")
    code, out, err = run_cli(capsys, *SMALL_RUNS[command], "--out", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {expected.value}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["--out", "{missing}"], "{missing_error}"),
    (["--out", "{directory}"], "{directory_error}"),
    (["--scales", "1,two"], "invalid literal for int() with base 10: 'two'"),
    (["--x", "0"], "math domain error"),
], ids=["missing directory", "directory", "bad scales", "x = 0"])
def test_square_multiple_table_keeps_the_exit_contract(tmp_path, argv, message):
    # The script maps its failures through cli.exit_code, as cli.main does.
    places = {"missing": tmp_path / "missing" / "rows.csv", "directory": tmp_path}
    for name, path in list(places.items()):
        with pytest.raises(OSError) as expected:
            open(path, "w")
        places[name + "_error"] = expected.value
    script = str(Path(__file__).resolve().parent.parent / "scripts" / "square_multiple_table.py")
    proc = subprocess.run([sys.executable, script, "--x", "1000",
                           *(a.format(**places) for a in argv)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message.format(**places)}\n"
    assert list(tmp_path.iterdir()) == []


def test_degenerate_selberg_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "selberg", "--x", "100", "--h", "50", "--offsets", "0,1,2,3", "--z", "10"
    )
    assert code == 2
    assert "residues" in err


def test_contract_violation_exit_code(capsys, monkeypatch):
    import sqfree.cli as cli_module

    class DoctoredCert:
        certified = False
        exact_count = 99
        form_value = 1.0

    monkeypatch.setattr(cli_module, "quadratic_form_bound", lambda *a, **k: DoctoredCert())
    code, _, err = run_cli(
        capsys, "selberg", "--x", "100", "--h", "50", "--offsets", "0", "--z", "5"
    )
    assert code == 3
    assert "contract failure" in err


def test_regime_note_goes_to_stderr_not_rows(capsys):
    code, out, err = run_cli(
        capsys, "selberg", "--x", "100", "--h", "500", "--offsets", "0", "--z", "5"
    )
    assert code == 0
    assert "note:" in err
    assert "note:" not in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sqfree", "count", "--x", "0", "--h", "10", "--offsets", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n")[1].endswith(",7")


# ------------------------------------------------------------- README

def _readme_section(heading):
    # From the heading to the next heading of any level
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return text.split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]


def _readme_block(heading, language):
    return _readme_section(heading).split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _readme_examples():
    block = _readme_block("## Command line", "sh")
    return [line for line in block.splitlines() if line.startswith("sqfree ")]


def test_readme_has_command_line_examples():
    block = _readme_block("## Command line", "sh")
    assert len(_readme_examples()) >= 6
    # the rest profile the CLI (test_the_cli_runs_under_cprofile)
    assert all(line.startswith(("sqfree ", "python -m cProfile "))
               for line in block.splitlines() if line.strip())


@pytest.mark.parametrize("line", _readme_examples())
def test_readme_example_runs(capsys, line):
    # A `# column = value` comment is checked against the CSV row.
    command, _, comment = line.partition("#")
    code, out, err = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0, err
    if comment.strip():
        column, value = (part.strip() for part in comment.split("="))
        assert parse_csv(out)[0][column] == value


def test_readme_library_tour_runs():
    # Each expression whose comment ends in a literal must give that value.
    block = _readme_block("## Library quick tour", "python")
    lines = block.splitlines()
    namespace = {}
    checked = []
    for statement in ast.parse(block).body:
        code = compile(ast.Module([statement], type_ignores=[]), "README.md", "exec")
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        comment = lines[statement.lineno - 1].partition("#")[2].split() or [""]
        try:
            expected = ast.literal_eval(comment[-1])
        except (ValueError, SyntaxError):
            continue
        assert value == expected and type(value) is type(expected), comment
        checked.append(expected)
    assert checked == [61, True, 0]


def test_readme_csv_schemas_match_each_command(capsys):
    bullets = re.findall(r"^\* `(\w+)`: `([\w,]+)`$", _readme_section("### CSV schemas"),
                         flags=re.MULTILINE)
    assert {command for command, _ in bullets} == set(SMALL_RUNS)
    for command, schema in bullets:
        code, out, _ = run_cli(capsys, *SMALL_RUNS[command])
        assert code == 0
        assert out.split("\n", 1)[0] == schema, command
        code, out, _ = run_cli(capsys, *SMALL_RUNS[command], "--format", "json")
        assert code == 0
        assert ",".join(json.loads(out)[0]) == schema, command
