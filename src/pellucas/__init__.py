"""Exact arithmetic for Lucas sequences, the +-4 Pell equations, rank-2
even-lattice isometries, and intersections of Lucas V-sequences."""

__version__ = "0.1.0"

from .errors import InvariantError, SearchCapExceeded
from .lucas import (LucasParams, Mat2, SeqTerm, companion_power, gen_fib_a,
                    gen_fib_b, lucas_uv)
from .pell import (MembershipVerdict, PellProblem, PellSolution,
                   fundamental_solution, is_gen_fib_a, is_gen_fib_b,
                   isqrt_exact, solutions_iter)
from .lattice import (IsometryAction, Lattice2, disc_group_action, find_roots,
                      isometry_from_pell, make_lattice, so_plus_generator)
from .k3 import (CorrespondenceRecord, K3CaseA, K3CaseB,
                 NotInCorrespondenceError, classify_case_a, classify_case_b,
                 correspondence_from_pair, correspondence_from_pell_y,
                 correspondence_from_term, correspondence_roundtrip,
                 rank_of_apparition)
from .intersection import (IntersectionResult, PellSystem, brute_force_common,
                           intersect, minimal_trace_match,
                           square_product_test)

__all__ = [name for name in dir() if not name.startswith("_")]
