"""Boolean proof lines over a variable partition, stored as row classes.

At Alice input ``x_idx`` a line is a row: bit ``y_idx`` of a 2^n2-bit mask
holds its value at Bob input ``y_idx`` (indices as produced by
:meth:`proofbench.cnf.Assignment.to_index`). A line is stored as row classes
``(xmask, row)``: every Alice input in ``xmask`` sees ``row``, and the x
masks are disjoint and cover all 2^n1 inputs. A clause has at most two
classes, an inequality one per distinct Alice partial sum. In canonical form
there is one class per distinct row, no x mask is empty and the rows
increase, so two lines are equal exactly when their functions are. The
2^n-bit truth table, bit ``(x_idx << n2) | y_idx``, is built on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .bitops import full_mask, spread, value_masks
from .cnf import Assignment, Clause, Literal, VariablePartition
from .errors import CapExceededError, ScopeError
from .linear import LinearInequality

TABLE_CAP = 24


def check_scope(literals: Iterable[Literal], part: VariablePartition) -> None:
    """Raise ``ScopeError`` for the first literal whose variable the
    partition, which holds exactly 1..n, does not hold.
    """
    n = part.n
    for lit in literals:
        if lit.var > n:
            raise ScopeError(f"clause variable {lit.var} is outside the partition")


def falsifying_mask(
    literals: Iterable[Literal], part: VariablePartition
) -> tuple[int, int]:
    """Masks of the X-side and of the Y-side indices whose restriction
    falsifies every literal of that side.

    A side without literals is vacuously falsified everywhere, giving its
    full mask. Raises ``ScopeError`` for a variable the partition does not
    hold.
    """
    literals = tuple(literals)
    check_scope(literals, part)
    xfull = full_mask(1 << part.n1)
    yfull = full_mask(1 << part.n2)
    xf, yf = xfull, yfull
    var_masks = part.var_masks
    xset = part.xset
    for lit in literals:
        ones = var_masks[lit.var]
        if lit.var in xset:
            xf &= ones if lit.negated else xfull ^ ones
        else:
            yf &= ones if lit.negated else yfull ^ ones
    return xf, yf


def rectangle_bits(xmask: int, ymask: int, n2: int) -> int:
    """Table bits of the inputs with x in ``xmask`` and y in ``ymask``.

    Spreading puts bit x of ``xmask`` at bit ``x << n2``; the product then
    copies ``ymask`` there, without carries because ``ymask < 2^(2^n2)``.
    """
    return ymask * spread(xmask, 1 << n2)


def check_table_cap(part: VariablePartition) -> None:
    if part.n > TABLE_CAP:
        raise CapExceededError(
            f"truth table over {part.n} variables exceeds cap {TABLE_CAP}"
        )


@dataclass(frozen=True)
class SemanticLine:
    """A line as row classes, made canonical on construction."""

    n1: int
    n2: int
    rows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        """Merge equal rows, drop empty x masks, and order by row."""
        by_row: dict[int, int] = {}
        for xm, row in self.rows:
            if xm:
                by_row[row] = by_row.get(row, 0) | xm
        rows = tuple((by_row[row], row) for row in sorted(by_row))
        object.__setattr__(self, "rows", rows)

    @cached_property
    def bits(self) -> int:
        """The truth table; the classes' rectangles are disjoint."""
        return sum(rectangle_bits(xm, row, self.n2) for xm, row in self.rows)

    @property
    def size(self) -> int:
        return 1 << (self.n1 + self.n2)

    def value(self, x_idx: int, y_idx: int) -> int:
        return (self.row(x_idx) >> y_idx) & 1

    def row(self, x_idx: int) -> int:
        """Bob-indexed row at a fixed Alice input."""
        for xm, row in self.rows:
            if (xm >> x_idx) & 1:
                return row
        return 0

    def is_constant(self, bit: int) -> bool:
        target = full_mask(1 << self.n2) if bit else 0
        return all(row == target for _, row in self.rows)

    @classmethod
    def constant(cls, part: VariablePartition, bit: int) -> "SemanticLine":
        check_table_cap(part)
        row = full_mask(1 << part.n2) if bit else 0
        return cls(part.n1, part.n2, ((full_mask(1 << part.n1), row),))

    @classmethod
    def from_bits(cls, n1: int, n2: int, bits: int) -> "SemanticLine":
        """The classes of a truth table."""
        yfull = full_mask(1 << n2)
        return cls(
            n1, n2, ((1 << x, (bits >> (x << n2)) & yfull) for x in range(1 << n1))
        )

    @classmethod
    def from_falsifying(
        cls, part: VariablePartition, xf: int, yf: int
    ) -> "SemanticLine":
        """The line that is 0 exactly on the rectangle ``xf × yf``, as a
        clause is on its falsifying masks.
        """
        xfull, yfull = full_mask(1 << part.n1), full_mask(1 << part.n2)
        return cls(part.n1, part.n2, ((xf, yfull ^ yf), (xfull ^ xf, yfull)))

    @classmethod
    def from_literals(
        cls, literals: Iterable[Literal], part: VariablePartition
    ) -> "SemanticLine":
        """Line of the clause with the given literals; an empty collection
        yields the constant-0 line (the empty clause).
        """
        check_table_cap(part)
        return cls.from_falsifying(part, *falsifying_mask(literals, part))

    @classmethod
    def from_clause(cls, clause: Clause, part: VariablePartition) -> "SemanticLine":
        return cls.from_literals(clause.literals, part)

    @classmethod
    def from_inequality(
        cls, ineq: LinearInequality, part: VariablePartition
    ) -> "SemanticLine":
        check_table_cap(part)
        if ineq.n != part.n:
            raise ValueError("inequality arity does not match the partition")
        asums, bsums = part.partial_sums(ineq.coeffs)
        by_asum, by_bsum = value_masks(asums), value_masks(bsums)
        return cls.from_sums(part, by_asum, by_bsum, ineq.constant)

    @classmethod
    def from_sums(
        cls,
        part: VariablePartition,
        by_asum: dict[int, int],
        by_bsum: dict[int, int],
        constant: int,
    ) -> "SemanticLine":
        """The line ``a + b >= constant`` from each side's partial sums, as
        ``value_masks`` gives them: one class per distinct Alice sum a.
        """
        rows = (
            (xm, sum(ym for b, ym in by_bsum.items() if a + b >= constant))
            for a, xm in by_asum.items()
        )
        return cls(part.n1, part.n2, rows)

    @classmethod
    def from_function(
        cls, part: VariablePartition, fn: Callable[[Assignment], bool]
    ) -> "SemanticLine":
        """Tabulate an arbitrary predicate of the joint assignment."""
        check_table_cap(part)
        bits = 0
        n2 = part.n2
        for x_idx in range(1 << part.n1):
            x = part.x_assignment(x_idx)
            for y_idx in range(1 << n2):
                if fn(x.union(part.y_assignment(y_idx))):
                    bits |= 1 << ((x_idx << n2) | y_idx)
        return cls.from_bits(part.n1, n2, bits)


def check_semantic_step(f: SemanticLine, g: SemanticLine, h: SemanticLine) -> bool:
    """True iff ``f(z) and g(z)`` implies ``h(z)`` for every joint input:
    wherever a class of f meets a class of g, the AND of their rows lies
    inside the row of every class of h over those x.
    """
    if not (f.n1 == g.n1 == h.n1 and f.n2 == g.n2 == h.n2):
        raise ValueError("semantic step requires identical table dimensions")
    for xf, rf in f.rows:
        for xg, rg in g.rows:
            xm, both = xf & xg, rf & rg
            if xm and both and any(xh & xm and both & ~rh for xh, rh in h.rows):
                return False
    return True
