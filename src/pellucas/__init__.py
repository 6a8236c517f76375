"""Exact arithmetic for Lucas sequences, the +-4 Pell equations, rank-2
even-lattice isometries, and intersections of Lucas V-sequences.

``import pellucas`` loads none of the submodules: each public name is
resolved on first use (PEP 562) and then kept as a module attribute.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it defines.  The submodules are public too.
_EXPORTS = {
    "errors": ("InvariantError", "SearchCapExceeded"),
    "lucas": ("LucasParams", "Mat2", "SeqTerm", "companion_power", "gen_fib_a",
              "gen_fib_b", "lucas_uv"),
    "pell": ("MembershipVerdict", "PellProblem", "PellSolution",
             "fundamental_solution", "is_gen_fib_a", "is_gen_fib_b",
             "isqrt_exact", "solutions_iter"),
    "lattice": ("IsometryAction", "Lattice2", "disc_group_action", "find_roots",
                "isometry_from_pell", "make_lattice", "so_plus_generator"),
    "k3": ("CorrespondenceRecord", "K3CaseA", "K3CaseB",
           "NotInCorrespondenceError", "classify_case_a", "classify_case_b",
           "correspondence_from_pair", "correspondence_from_pell_y",
           "correspondence_from_term", "correspondence_roundtrip",
           "rank_of_apparition"),
    "intersection": ("IntersectionResult", "PellSystem", "brute_force_common",
                     "intersect", "minimal_trace_match", "square_product_test"),
    "oracle": (),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
