#!/usr/bin/env python3
"""Square-multiple obstruction table across window scalings.

For each scale R the window length is h = floor(R * x^(1/5) * log x) and the
scanned moduli are the integers d in [h log(x) / R, 2 sqrt(x)]; a modulus
counts when some multiple of d^2 lands inside (x, x+h].  The count relative
to h/R is the quantity whose boundedness controls short-window squarefree
existence, reported here and never asserted.
"""

import argparse
import math

from sqfree.buchstab import SquareMultipleQuery, count_square_multiples
from sqfree.cli import add_output_flags, emit, exit_code


def build_rows(x: int, scales) -> list[dict]:
    rows = []
    lx = math.log(x)
    top = 2.0 * math.sqrt(x)
    for scale in scales:
        h = math.floor(scale * x ** 0.2 * lx)
        d_lo = min(h * lx / scale, top)
        count = count_square_multiples(SquareMultipleQuery(x, h, d_lo, top))
        rows.append({
            "scale": scale, "x": x, "h": h, "d_lo": d_lo, "d_hi": top,
            "count": count, "ratio": count / (h / scale),
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--x", type=int, default=10**8)
    parser.add_argument("--scales", default="1,2,4,8",
                        help="comma-separated window scales R")
    add_output_flags(parser)
    args = parser.parse_args(argv)

    def work():
        scales = [int(s) for s in args.scales.split(",")]
        emit(build_rows(args.x, scales), args.format, args.out)

    return exit_code(work)


if __name__ == "__main__":
    raise SystemExit(main())
