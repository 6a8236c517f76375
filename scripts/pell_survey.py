#!/usr/bin/env python3
"""Survey x^2 - d y^2 = +-4 fundamental solutions over a range of d.

Lists, for each non-square d, the fundamental +4 solution, whether -4 is
solvable, and (when it is) the half-integer square law beta^2 = alpha.

    python3 scripts/pell_survey.py --max-d 100
    python3 scripts/pell_survey.py --max-d 500 --only-negative
"""

import argparse

from pellucas.lucas import is_square
from pellucas.pell import PellProblem, fundamental_solution


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-d", type=int, default=60)
    ap.add_argument("--only-negative", action="store_true",
                    help="show only d where x^2 - d y^2 = -4 is solvable")
    args = ap.parse_args()

    negative = 0
    total = 0
    for d in range(2, args.max_d + 1):
        if is_square(d):
            continue
        total += 1
        alpha = fundamental_solution(PellProblem(d, 4))
        beta = fundamental_solution(PellProblem(d, -4))
        if beta is not None:
            negative += 1
            # ((u + v sqrt(d))/2)^2 = ((u^2 + d v^2)/2 + u v sqrt(d))/2.
            square = ((beta.u ** 2 + d * beta.v ** 2) // 2, beta.u * beta.v)
            assert square == (alpha.u, alpha.v)
            print(f"d={d:<4} +4: ({alpha.u}, {alpha.v})   "
                  f"-4: ({beta.u}, {beta.v})   beta^2 = alpha ok")
        elif not args.only_negative:
            print(f"d={d:<4} +4: ({alpha.u}, {alpha.v})   -4: unsolvable")
    print(f"\n-4 solvable for {negative} of {total} non-square d "
          f"<= {args.max_d}")


if __name__ == "__main__":
    main()
