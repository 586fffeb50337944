"""Truth-table SAT oracle, independent of the solvers under test.

An assignment to variables 1..n is an index whose bit ``n - v`` holds the
value of variable v, so variable 1 is the most significant bit and index
order is lexicographic order of the bit string x1 x2 ... xn. The oracle
keeps one 2^n-bit integer per variable (bit i set when v is 1 at index i)
and ORs together the subcube each clause falsifies.
"""

from __future__ import annotations

MAX_VARS = 16


def _var_masks(n: int) -> list[int]:
    """Entry v-1 has bit i set exactly when variable v is 1 at index i."""
    size = 1 << n
    masks = []
    for v in range(1, n + 1):
        period = 1 << (n - v)  # runs of equal values at this bit position
        run = (1 << period) - 1
        mask = run << period  # one period of zeros, then one of ones
        width = 2 * period
        while width < size:  # double the pattern until it spans 2^n bits
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return masks


def satisfying_mask(n: int, clauses: list[tuple[int, ...]]) -> int:
    """Bitset of the satisfying assignments of a CNF given as signed literals."""
    if not 0 <= n <= MAX_VARS:
        raise ValueError(f"oracle handles n <= {MAX_VARS}, got {n}")
    full = (1 << (1 << n)) - 1
    var = _var_masks(n)
    falsified = 0
    for clause in clauses:
        cube = full
        for lit in clause:
            ones = var[abs(lit) - 1]
            cube &= (full ^ ones) if lit > 0 else ones
        falsified |= cube
    return full & ~falsified


def least_witness(n: int, clauses: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Lexicographically least satisfying assignment as bits (x1, ..., xn),
    or None when the formula is unsatisfiable.
    """
    sat = satisfying_mask(n, clauses)
    if not sat:
        return None
    index = (sat & -sat).bit_length() - 1
    return tuple((index >> (n - v)) & 1 for v in range(1, n + 1))
