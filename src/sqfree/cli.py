"""Command-line surface: exact counts, density brackets, certificates,
decomposition ledgers, square-multiple scans and grid sweeps.

Every command emits one table (CSV by default, JSON mirroring the same
columns) with locale-free formatting: reals carry 15 significant digits,
line endings are LF, reruns of an identical configuration are byte-identical
and independent of the thread count.

Exit codes: 0 success, 2 usage or precondition error, 3 violated internal
contract.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .arith import OffsetTuple, as_offsets
from .buchstab import SquareMultipleQuery, buchstab_decompose, count_square_multiples
from .density import DEFAULT_PRIME_CUTOFF, density_constant, inverse_density_cap
from .errors import ContractViolation, MemoryBudgetError
from .selberg import (EXCESS_MIN_LENGTH, excess_exponent, optimal_weights, quadratic_form_bound,
                      sieve_level)
from .sieve import MAX_THREADS, Window, _window_args, count_tuples, full_level


def _threads_arg(text: str) -> int:
    # Checked at parse time, so a bad value exits 2 before any work runs.
    threads = int(text)
    if not 1 <= threads <= MAX_THREADS:
        raise argparse.ArgumentTypeError(f"threads must lie in [1, {MAX_THREADS}]")
    return threads


def _offsets_arg(text: str) -> OffsetTuple:
    return as_offsets(int(part) for part in text.split(","))


def _int_list_arg(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def add_output_flags(p) -> None:
    """``--format`` and ``--out``, shared by every command and the scripts."""
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqfree",
        description="Exact squarefree-tuple counts in short windows with certified sieve bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def window(p):
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--h", type=int, required=True)

    def threads(p):
        p.add_argument("--threads", type=_threads_arg, default=1)

    def prime_cutoff(p):
        p.add_argument("--prime-cutoff", type=int, default=DEFAULT_PRIME_CUTOFF)

    p = sub.add_parser("count", help="exact tuple count over one window")
    window(p)
    p.add_argument("--offsets", type=_offsets_arg, required=True)
    p.add_argument("--z", type=float, default=None,
                   help="sieve level (default: full squarefree test)")
    threads(p)
    add_output_flags(p)

    p = sub.add_parser("density", help="certified bracket for the tuple density")
    p.add_argument("--offsets", type=_offsets_arg, required=True)
    prime_cutoff(p)
    add_output_flags(p)

    p = sub.add_parser("selberg", help="weight-system upper-bound certificate")
    window(p)
    p.add_argument("--offsets", type=_offsets_arg, required=True)
    p.add_argument("--z", required=True, help="sieve level, or 'auto' for the canonical choice")
    threads(p)
    prime_cutoff(p)
    add_output_flags(p)

    p = sub.add_parser("buchstab", help="exact removal-ledger decomposition")
    window(p)
    p.add_argument("--offsets", type=_offsets_arg, required=True)
    p.add_argument("--lambda0", type=float, required=True)
    add_output_flags(p)

    p = sub.add_parser("squaremul", help="square-multiple obstruction count")
    window(p)
    p.add_argument("--d-lo", type=float, required=True)
    p.add_argument("--d-hi", type=float, required=True)
    add_output_flags(p)

    p = sub.add_parser("sweep", help="exact counts and density ratios over a grid")
    p.add_argument("--x", type=_int_list_arg, required=True, help="comma-separated x values")
    p.add_argument("--h", type=_int_list_arg, required=True, help="comma-separated h values")
    p.add_argument("--offsets", type=_offsets_arg, action="append", required=True,
                   help="repeatable; one offset pattern per use")
    threads(p)
    prime_cutoff(p)
    add_output_flags(p)
    return parser


def _warn_regime(args: argparse.Namespace) -> None:
    if args.offsets.offsets[-1] > args.x or args.h > args.x:
        print(
            "note: largest offset or window length exceeds the window start; "
            "results are exact but outside the certified asymptotic regime",
            file=sys.stderr,
        )


def _resolve_level(args: argparse.Namespace) -> float:
    if args.z == "auto":
        level = sieve_level(args.h, args.offsets.r)
        if not level > 2.0:
            raise ValueError(
                f"automatic sieve level {level:.6g} is not above 2; pass --z explicitly"
            )
        return level
    return float(args.z)


def _excess_stat(q: int, mid: float, h: int):
    if mid <= 0:
        return None, None, None
    ratio = q / (mid * h)
    if h >= EXCESS_MIN_LENGTH:
        rho = excess_exponent(h)
        stat = max(0.0, ratio - 1.0) * h ** (1.0 / 3.0 - rho)
    else:
        rho, stat = None, None
    return ratio, rho, stat


def run_command(args: argparse.Namespace) -> list[dict]:
    if args.command == "count":
        w = Window(args.x, args.h)
        q = count_tuples(w, args.offsets, z=args.z, threads=args.threads)
        z = args.z if args.z is not None else full_level(w, args.offsets)
        return [{"x": w.x, "h": w.h, "offsets": str(args.offsets), "z": z, "q": q}]

    if args.command == "density":
        est = density_constant(args.offsets, args.prime_cutoff)
        row = {
            "offsets": str(args.offsets),
            "r": args.offsets.r,
            "prime_cutoff": est.prime_cutoff,
            "lower": est.lower,
            "upper": est.upper,
            "tail_log_bound": est.tail_log_bound,
            "degenerate_zero": est.degenerate_zero,
            "inverse_upper": None,
            "inverse_cap": inverse_density_cap(args.offsets.r),
            "inverse_holds": None,
        }
        if not est.degenerate_zero:
            row["inverse_upper"] = 1.0 / est.lower
            row["inverse_holds"] = row["inverse_upper"] <= row["inverse_cap"]
        return [row]

    if args.command == "selberg":
        _warn_regime(args)
        w, _ = _window_args((args.x, args.h), args.offsets)
        level = _resolve_level(args)
        system = optimal_weights(level, args.offsets, prime_cutoff=args.prime_cutoff)
        cert = quadratic_form_bound(w, args.offsets, system, threads=args.threads)
        if not cert.certified:
            raise ContractViolation(
                f"upper-bound certificate breached: exact {cert.exact_count} "
                f"> form value {float(cert.form_value):.6f}"
            )
        return [{
            "x": w.x, "h": w.h, "offsets": str(args.offsets), "z": level,
            "form_minimum": float(system.form_minimum),
            "normalizer": float(system.normalizer),
            "weight_mass": system.weight_mass,
            "tail_defect": system.tail_defect,
            "inv_density_upper": system.inv_density_upper,
            "form_value": float(cert.form_value),
            "exact_count": cert.exact_count,
            "reference_rhs": cert.reference_rhs,
            "certified": cert.certified,
        }]

    if args.command == "buchstab":
        _warn_regime(args)
        w = Window(args.x, args.h)
        report = buchstab_decompose(w, args.offsets, args.lambda0)
        if report.reconciliation != 0:
            raise ContractViolation(
                f"decomposition does not reconcile: residue {report.reconciliation}"
            )
        return [{
            "x": w.x, "h": w.h, "offsets": str(args.offsets), "lambda0": report.cutoff,
            "base_count": report.base_count,
            "base_main": report.base_main,
            "base_error": report.base_error,
            "divisor_cap": report.divisor_cap,
            "removed_total": report.removed_total,
            "removed_cap": report.removed_cap,
            "exact_count": report.exact_count,
            "reconciliation": report.reconciliation,
            "ledger_rows": report.ledger_rows,
        }]

    if args.command == "squaremul":
        query = SquareMultipleQuery(args.x, args.h, args.d_lo, args.d_hi)
        count = count_square_multiples(query)
        return [{"x": args.x, "h": args.h, "d_lo": args.d_lo, "d_hi": args.d_hi, "count": count}]

    if args.command == "sweep":
        # Every window is checked before the first density product is built.
        grid = [[_window_args((x, h), offs)[0] for x in args.x for h in args.h]
                for offs in args.offsets]
        rows = []
        for offs, windows in zip(args.offsets, grid):
            est = density_constant(offs, args.prime_cutoff)
            for w in windows:
                q = count_tuples(w, offs, threads=args.threads)
                ratio, rho, stat = _excess_stat(q, est.midpoint, w.h)
                rows.append({
                    "x": w.x, "h": w.h, "r": offs.r, "offsets": str(offs), "q": q,
                    "density_lower": est.lower, "density_upper": est.upper,
                    "density_mid": est.midpoint, "ratio": ratio,
                    "excess_exponent": rho, "excess_stat": stat,
                })
        return rows

    raise ValueError(f"unknown command {args.command!r}")


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return float(f"{value:.15g}")
    return value


def render(rows: list[dict], fmt: str) -> str:
    """The rows as CSV or JSON; every row has the first row's keys, in column
    order."""
    columns = list(rows[0])
    # Int cells render exactly, past the interpreter's 4300-digit default too.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            payload = [{c: _json_value(row[c]) for c in columns} for row in rows]
            return json.dumps(payload, indent=2) + "\n"
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(format_cell(row[c]) for c in columns))
        return "\n".join(lines) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def emit(rows: list[dict], fmt: str, out=None) -> None:
    """Render the rows and write them to ``out``, or to stdout when it is None."""
    text = render(rows, fmt)
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def exit_code(work) -> int:
    """Run ``work()`` under the exit contract shared by the CLI and the
    scripts: 0 when it returns, 3 on a violated internal contract, 2 on a
    usage or precondition error, each failure with one line on stderr."""
    try:
        work()
        return 0
    except ContractViolation as exc:
        print(f"contract failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryBudgetError, OverflowError, OSError) as exc:
        # OSError: an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return exit_code(lambda: emit(run_command(args), args.format, args.out))
