#!/usr/bin/env python3
"""Print the three-way correspondence table for one sequence family.

Each row walks a single index through all three representations: the
sequence term, the Pell (x, y) solution it induces, and the trace of the
lattice automorphism action built from it.

    python3 scripts/correspondence_table.py --flavor a --param 1 --rows 12
    python3 scripts/correspondence_table.py --flavor b --param 5
"""

import argparse

from pellucas.k3 import correspondence_from_term


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--flavor", choices=("a", "b"), default="a")
    ap.add_argument("--param", type=int, default=1,
                    help="recurrence coefficient (a >= 1 or b >= 4)")
    ap.add_argument("--rows", type=int, default=10)
    args = ap.parse_args()

    print(f"flavor={args.flavor} param={args.param}  "
          f"(d = param^2 {'+' if args.flavor == 'a' else '-'} 4)")
    header = f"{'n':>3} {'term':>14} {'x':>14} {'sign':>5} {'omega':>5} " \
             f"{'trace':>20} {'m':>8}"
    print(header)
    print("-" * len(header))
    start = 2 if (args.flavor == "a" and args.param == 1) else 1
    for n in range(start, start + args.rows):
        rec = correspondence_from_term(args.flavor, args.param, n)
        omega = "+1" if rec.omega_sign == 1 else "-1"
        if args.flavor == "b":
            m = "-"  # the divisor-m pair data only exists for the a-family
        elif rec.term == 1:
            m = "-"  # no m >= 2 divides 1, so there is no pair data
        else:
            m = rec.m if rec.m is not None else "?"
        print(f"{n:>3} {rec.term:>14} {rec.x:>14} {rec.pell_sign:>+5} "
              f"{omega:>5} {rec.trace:>20} {m:>8}")
        assert rec.x ** 2 - rec.pell_d * rec.term ** 2 == rec.pell_sign


if __name__ == "__main__":
    main()
