"""Mat2 powers by binary square and multiply: a reference for the tests,
independent of the doubling scheme of pellucas.lucas."""

from pellucas.lucas import Mat2

IDENTITY = Mat2(1, 0, 0, 1)


def mat_pow(m: Mat2, n: int) -> Mat2:
    """m^n for n >= 0."""
    result = IDENTITY
    while n:
        if n & 1:
            result = result @ m
        m = m @ m
        n >>= 1
    return result
