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
from functools import cached_property, lru_cache
from typing import Iterable

from .bitops import full_mask
from .cnf import Assignment, Clause, CnfFormula, Literal, VariablePartition
from .errors import CapExceededError, ScopeError
from .randomcnf import _sample_indices, profile_distinctness
from .semantics import check_scope

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


def falsifying_entry(clause: Clause, part: VariablePartition) -> tuple[int, ...]:
    """Negation bits of the clause's X-literals in variable order: the one
    entry of its block that a rejecting instance can zero. Raises
    ``ScopeError`` for a variable the partition does not hold.
    """
    check_scope(clause.literals, part)
    xlits = sorted(clause.side_literals(part.xset), key=lambda lit: lit.var)
    return tuple(int(lit.negated) for lit in xlits)


@lru_cache(maxsize=1)  # rejecting_instance reads it once per y
def _zeroable_entries(
    graph: ConstraintGraph, formula: CnfFormula, part: VariablePartition
) -> tuple[tuple[int, tuple[Literal, ...]], ...]:
    """Per clause, the position of its falsifying entry and its Y-literals."""
    if graph.m != formula.m:
        raise ValueError("graph and formula disagree on the constraint count")
    reads = build_constraint_graph(formula, part).constraints
    out = []
    for i, clause in enumerate(formula.clauses):
        alpha = falsifying_entry(clause, part)
        if graph.constraints[i] != reads[i]:
            raise ValueError(f"constraint {i + 1} must read its clause's X-variables")
        out.append((graph.position(i, alpha), clause.side_literals(part.yset)))
    return tuple(out)


def rejecting_instance(
    graph: ConstraintGraph,
    formula: CnfFormula,
    part: VariablePartition,
    y: Assignment,
) -> CspSatInstance:
    """Entry (i, alpha) is 0 iff alpha is clause i's falsifying entry and y
    falsifies its Y-literals: y's bit of each equals the literal's negation.
    """
    if not part.yset <= y.scope:
        raise ScopeError("y must assign every Y-side variable")
    bits = full_mask(graph.size)
    ybits = y.as_map()
    for pos, ylits in _zeroable_entries(graph, formula, part):
        if all(ybits[lit.var] == lit.negated for lit in ylits):
            bits &= ~(1 << pos)
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


def rejecting_images_distinct(
    graph: ConstraintGraph, formula: CnfFormula, part: VariablePartition
) -> bool:
    """Whether y -> rejecting instance is injective. V(y) zeroes the entries
    of the clauses whose Y-literals y falsifies, so it is whether those
    Y-literals, on Y renumbered 1..n2, give distinct y distinct profiles.
    """
    if part.n2 > EVAL_CAP:
        raise CapExceededError(f"2^{part.n2} rejecting instances exceed cap {EVAL_CAP}")
    renumber = {v: p for p, v in enumerate(part.yvars, start=1)}
    halves = tuple(
        Clause(tuple(Literal(renumber[lit.var], lit.negated) for lit in ylits))
        for _, ylits in _zeroable_entries(graph, formula, part)
        if ylits
    )
    return profile_distinctness(CnfFormula(part.n2, halves)).distinct


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

    def best(combos: Iterable[Iterable[int]]) -> int:
        """The most instances agreeing with b on one combo's positions."""
        top = 0
        for combo in combos:
            mask = sum(1 << p for p in combo)
            top = max(top, sum(1 for v in vectors if v & mask == (mask if b else 0)))
        return top

    if mode == "exact":
        if r > EXACT_R_CAP:
            raise CapExceededError(
                f"exact agreement counting is capped at r <= {EXACT_R_CAP}"
            )
        return AgreementCount(r, b, best(itertools.combinations(range(n), r)), "exact")
    if mode == "sampled":
        if not trials or trials < 1:
            raise ValueError("sampled mode needs a positive trial count")
        getrandbits = random.Random(seed).getrandbits
        combos = (_sample_indices(getrandbits, n, r) for _ in range(trials))
        return AgreementCount(r, b, best(combos), "sampled", trials)
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
