"""The monotone CSP satisfiability function and its canonical instances.

An instance is a bit vector listing one truth table per constraint: blocks in
constraint order and, inside a block, the 0/1 assignments of the constraint's
variables (ascending) in lexicographic order, read as binary numbers with the
first variable most significant. The whole vector is packed into one
integer, bit position = vector position.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .bitops import full_mask
from .cnf import Assignment, CnfFormula, VariablePartition, eval_clause
from .errors import CapExceededError, ScopeError

EVAL_CAP = 20
EXACT_R_CAP = 3


@dataclass(frozen=True)
class ConstraintGraph:
    """Bipartite topology: constraints on the left, CSP variables on the right."""

    xvars: tuple[int, ...]
    constraints: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.xvars)) != len(self.xvars):
            raise ValueError("CSP variables must be distinct")
        known = set(self.xvars)
        for i, vs in enumerate(self.constraints, start=1):
            if list(vs) != sorted(set(vs)):
                raise ValueError(f"constraint {i} variables must be ascending")
            if not set(vs) <= known:
                raise ValueError(f"constraint {i} mentions unknown variables")

    @property
    def m(self) -> int:
        return len(self.constraints)

    @cached_property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(1 << len(vs) for vs in self.constraints)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out = []
        total = 0
        for size in self.block_sizes:
            out.append(total)
            total += size
        return tuple(out)

    @property
    def size(self) -> int:
        """Total bit-vector length N."""
        return sum(self.block_sizes)

    def position(self, i: int, alpha: tuple[int, ...]) -> int:
        """Bit position of truth-table entry (constraint i, assignment alpha)."""
        if len(alpha) != len(self.constraints[i]):
            raise ValueError("assignment length does not match the constraint")
        rank = 0
        for bit in alpha:
            if bit not in (0, 1):
                raise ValueError(f"assignment bit {bit!r} is not 0 or 1")
            rank = rank << 1 | bit
        return self.offsets[i] + rank


@dataclass(frozen=True)
class CspSatInstance:
    graph: ConstraintGraph
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.graph.size):
            raise ValueError("bit vector out of range for this topology")

    def bit(self, pos: int) -> int:
        return (self.bits >> pos) & 1

    def entry(self, i: int, alpha: tuple[int, ...]) -> int:
        return self.bit(self.graph.position(i, alpha))

    def block_bits(self, i: int) -> tuple[int, ...]:
        off = self.graph.offsets[i]
        return tuple(
            self.bit(off + r) for r in range(self.graph.block_sizes[i])
        )

    def leq(self, other: "CspSatInstance") -> bool:
        return self.bits & ~other.bits == 0


def build_constraint_graph(
    formula: CnfFormula, part: VariablePartition
) -> ConstraintGraph:
    """Constraint i reads exactly the X-side variables of clause i."""
    constraints = tuple(
        tuple(sorted(c.vars & part.xset)) for c in formula.clauses
    )
    return ConstraintGraph(part.xvars, constraints)


def accepting_instance(graph: ConstraintGraph, x: Assignment) -> CspSatInstance:
    """One-hot blocks: constraint i is 1 exactly at x restricted to vars(i)."""
    if not set(graph.xvars) <= x.scope:
        raise ScopeError("x must assign every X-side variable")
    bits = 0
    for i, vs in enumerate(graph.constraints):
        alpha = tuple(x.bit(v) for v in vs)
        bits |= 1 << graph.position(i, alpha)
    return CspSatInstance(graph, bits)


def rejecting_instance(
    graph: ConstraintGraph,
    formula: CnfFormula,
    part: VariablePartition,
    y: Assignment,
) -> CspSatInstance:
    """Entry (i, alpha) is 0 iff clause i is falsified by alpha joined with y."""
    if not part.yset <= y.scope:
        raise ScopeError("y must assign every Y-side variable")
    if graph.m != formula.m:
        raise ValueError("graph and formula disagree on the constraint count")
    bits = full_mask(graph.size)
    for i, vs in enumerate(graph.constraints):
        clause = formula.clauses[i]
        for rank, alpha in enumerate(itertools.product((0, 1), repeat=len(vs))):
            joint = Assignment.from_map(
                {**{v: a for v, a in zip(vs, alpha)}, **{v: y.bit(v) for v in part.yvars}}
            )
            if not eval_clause(clause, joint):
                bits &= ~(1 << (graph.offsets[i] + rank))
    return CspSatInstance(graph, bits)


def csp_sat_eval(graph: ConstraintGraph, inst: CspSatInstance) -> bool:
    """Backtracking search for a 0/1 assignment whose restriction hits a
    1-entry in every block.
    """
    if inst.graph != graph:
        raise ValueError("instance was built for a different topology")
    k = len(graph.xvars)
    if k > EVAL_CAP:
        raise CapExceededError(f"{k} CSP variables exceed evaluation cap {EVAL_CAP}")
    var_pos = {v: p for p, v in enumerate(graph.xvars)}
    ready: list[list[int]] = [[] for _ in range(k + 1)]
    for ci, vs in enumerate(graph.constraints):
        step = max((var_pos[v] for v in vs), default=-1) + 1
        ready[step].append(ci)
    chosen = [0] * k

    def block_ok(ci: int) -> bool:
        rank = 0
        for v in graph.constraints[ci]:
            rank = rank << 1 | chosen[var_pos[v]]
        return inst.bit(graph.offsets[ci] + rank) == 1

    def descend(step: int) -> bool:
        for ci in ready[step]:
            if not block_ok(ci):
                return False
        if step == k:
            return True
        for bit in (0, 1):
            chosen[step] = bit
            if descend(step + 1):
                return True
        return False

    return descend(0)


def all_x_covered(graph: ConstraintGraph) -> bool:
    """Accepting instances are pairwise distinct iff this holds."""
    used = set()
    for vs in graph.constraints:
        used.update(vs)
    return used == set(graph.xvars)


def rejecting_images_distinct(
    graph: ConstraintGraph, formula: CnfFormula, part: VariablePartition
) -> bool:
    """Whether y -> rejecting instance is injective, by enumeration."""
    if part.n2 > EVAL_CAP:
        raise CapExceededError(f"2^{part.n2} rejecting instances exceed cap {EVAL_CAP}")
    seen = set()
    for y_idx in range(1 << part.n2):
        inst = rejecting_instance(graph, formula, part, part.y_assignment(y_idx))
        if inst.bits in seen:
            return False
        seen.add(inst.bits)
    return True


@dataclass(frozen=True)
class AgreementCount:
    """Max number of instances agreeing with bit b on some r positions."""

    r: int
    b: int
    value: int
    mode: str
    trials: int | None = None


def agreement_count(
    instances: Iterable[CspSatInstance],
    r: int,
    b: int,
    mode: str = "exact",
    trials: int | None = None,
    seed: int = 0,
) -> AgreementCount:
    """Exact mode scans every r-subset of positions; sampled mode reports a
    lower bound from random subsets and is labelled as such.
    """
    insts = list(instances)
    if not insts:
        raise ValueError("need at least one instance")
    if b not in (0, 1):
        raise ValueError("b must be 0 or 1")
    n = insts[0].graph.size
    if any(inst.graph.size != n for inst in insts):
        raise ValueError("instances must share a topology")
    if r < 0 or r > n:
        raise ValueError(f"r={r} out of range for N={n}")
    vectors = [inst.bits for inst in insts]
    if r == 0:
        return AgreementCount(r, b, len(vectors), mode)

    def count_for(mask: int) -> int:
        if b == 1:
            return sum(1 for v in vectors if v & mask == mask)
        return sum(1 for v in vectors if v & mask == 0)

    if mode == "exact":
        if r > EXACT_R_CAP:
            raise CapExceededError(
                f"exact agreement counting is capped at r <= {EXACT_R_CAP}"
            )
        best = 0
        for combo in itertools.combinations(range(n), r):
            mask = 0
            for p in combo:
                mask |= 1 << p
            c = count_for(mask)
            if c > best:
                best = c
        return AgreementCount(r, b, best, "exact")
    if mode == "sampled":
        if not trials or trials < 1:
            raise ValueError("sampled mode needs a positive trial count")
        rng = random.Random(seed)
        best = 0
        for _ in range(trials):
            combo = rng.sample(range(n), r)
            mask = 0
            for p in combo:
                mask |= 1 << p
            c = count_for(mask)
            if c > best:
                best = c
        return AgreementCount(r, b, best, "sampled", trials)
    raise ValueError(f"unknown mode {mode!r}")


def circuit_size_lower_bound(
    u_size: int,
    v_size: int,
    a1_1: int,
    a1_r: int,
    a0_s: int,
    r: int,
    s: int,
) -> Fraction:
    """Size bound for monotone separators from agreement counts:
    min{(|U| - 2s*A1(1)) / ((2s)^(r+1) A1(r)), |V| / ((2r)^(s+1) A0(s))},
    clamped below at zero. Exact rational arithmetic throughout.
    """
    if r < 1 or s < 1:
        raise ValueError("r and s must be at least 1")
    if min(u_size, v_size, a1_1, a1_r, a0_s) < 0:
        raise ValueError("sizes and counts must be nonnegative")
    if a1_r == 0 or a0_s == 0:
        raise ValueError("agreement counts in denominators must be nonzero")
    first = Fraction(u_size - 2 * s * a1_1, (2 * s) ** (r + 1) * a1_r)
    second = Fraction(v_size, (2 * r) ** (s + 1) * a0_s)
    return max(Fraction(0), min(first, second))
