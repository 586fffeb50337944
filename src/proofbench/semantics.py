"""Boolean proof lines as explicit truth tables over a variable partition.

A table is one Python integer: bit ``(x_idx << n2) | y_idx`` holds the line's
value at Alice input ``x_idx`` and Bob input ``y_idx`` (indices as produced by
:meth:`proofbench.cnf.Assignment.to_index`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .bitops import full_mask, spread, value_masks
from .cnf import Assignment, Clause, Literal, VariablePartition
from .errors import CapExceededError
from .linear import LinearInequality

DEFAULT_TABLE_CAP = 24


def falsifying_mask(
    literals: Iterable[Literal], part: VariablePartition, side_vars: tuple[int, ...]
) -> int:
    """Mask of side-input indices whose restriction falsifies every literal.

    Only literals over ``side_vars`` (``part.xvars`` or ``part.yvars``) may be
    passed. An empty literal list is vacuously falsified everywhere, giving
    the full mask.
    """
    full = full_mask(1 << len(side_vars))
    var_masks = part.var_masks
    mask = full
    for lit in literals:
        mask &= var_masks[lit.var] if lit.negated else full ^ var_masks[lit.var]
    return mask


def rectangle_bits(xmask: int, ymask: int, n2: int) -> int:
    """Table bits of the inputs with x in ``xmask`` and y in ``ymask``.

    Spreading puts bit x of ``xmask`` at bit ``x << n2``; the product then
    copies ``ymask`` there, without carries because ``ymask < 2^(2^n2)``.
    """
    return ymask * spread(xmask, 1 << n2)


def _check_cap(part: VariablePartition, cap: int) -> None:
    if part.n > cap:
        raise CapExceededError(f"truth table over {part.n} variables exceeds cap {cap}")


@dataclass(frozen=True)
class SemanticLine:
    n1: int
    n2: int
    bits: int

    @property
    def size(self) -> int:
        return 1 << (self.n1 + self.n2)

    def value(self, x_idx: int, y_idx: int) -> int:
        return (self.bits >> ((x_idx << self.n2) | y_idx)) & 1

    def row(self, x_idx: int) -> int:
        """Bob-indexed slice of the table at a fixed Alice input."""
        return (self.bits >> (x_idx << self.n2)) & full_mask(1 << self.n2)

    def is_constant(self, bit: int) -> bool:
        return self.bits == (full_mask(self.size) if bit else 0)

    @classmethod
    def constant(
        cls, part: VariablePartition, bit: int, cap: int = DEFAULT_TABLE_CAP
    ) -> "SemanticLine":
        _check_cap(part, cap)
        bits = full_mask(1 << part.n) if bit else 0
        return cls(part.n1, part.n2, bits)

    @classmethod
    def from_literals(
        cls,
        literals: Iterable[Literal],
        part: VariablePartition,
        cap: int = DEFAULT_TABLE_CAP,
    ) -> "SemanticLine":
        """Table of the clause with the given literals; an empty collection
        yields the constant-0 table (the empty clause).
        """
        _check_cap(part, cap)
        lits = tuple(literals)
        xf = falsifying_mask(
            tuple(l for l in lits if l.var in part.xset), part, part.xvars
        )
        yf = falsifying_mask(
            tuple(l for l in lits if l.var in part.yset), part, part.yvars
        )
        bits = full_mask(1 << part.n) ^ rectangle_bits(xf, yf, part.n2)
        return cls(part.n1, part.n2, bits)

    @classmethod
    def from_clause(
        cls, clause: Clause, part: VariablePartition, cap: int = DEFAULT_TABLE_CAP
    ) -> "SemanticLine":
        return cls.from_literals(clause.literals, part, cap)

    @classmethod
    def from_inequality(
        cls,
        ineq: LinearInequality,
        part: VariablePartition,
        cap: int = DEFAULT_TABLE_CAP,
    ) -> "SemanticLine":
        _check_cap(part, cap)
        if ineq.n != part.n:
            raise ValueError("inequality arity does not match the partition")
        asums, bsums = part.partial_sums(ineq.coeffs)
        by_bsum = value_masks(bsums)
        bits = 0
        for a, xm in value_masks(asums).items():
            row = sum(ym for b, ym in by_bsum.items() if a + b >= ineq.constant)
            bits |= rectangle_bits(xm, row, part.n2)
        return cls(part.n1, part.n2, bits)

    @classmethod
    def from_function(
        cls,
        part: VariablePartition,
        fn: Callable[[Assignment], bool],
        cap: int = DEFAULT_TABLE_CAP,
    ) -> "SemanticLine":
        """Tabulate an arbitrary predicate of the joint assignment."""
        _check_cap(part, cap)
        bits = 0
        n2 = part.n2
        for x_idx in range(1 << part.n1):
            x = part.x_assignment(x_idx)
            for y_idx in range(1 << n2):
                if fn(x.union(part.y_assignment(y_idx))):
                    bits |= 1 << ((x_idx << n2) | y_idx)
        return cls(part.n1, part.n2, bits)


def check_semantic_step(f: SemanticLine, g: SemanticLine, h: SemanticLine) -> bool:
    """True iff ``f(z) and g(z)`` implies ``h(z)`` for every joint input."""
    if not (f.n1 == g.n1 == h.n1 and f.n2 == g.n2 == h.n2):
        raise ValueError("semantic step requires identical table dimensions")
    return (f.bits & g.bits & ~h.bits) & full_mask(f.size) == 0


def entailed_by_premise(premise: SemanticLine, line: SemanticLine) -> bool:
    """Single-premise entailment, the degenerate two-premise step."""
    return check_semantic_step(premise, premise, line)
