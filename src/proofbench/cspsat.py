"""The monotone CSP satisfiability function and its canonical instances.

An instance is a bit vector listing one truth table per constraint: blocks in
constraint order and, inside a block, assignments in lexicographic order with
the constraint's variables ascending and the alphabet in its given order
(first variable most significant). The whole vector is packed into one
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
from .errors import CapExceededError, InstanceTextError, ScopeError

DEFAULT_EVAL_CAP = 20
DEFAULT_EXACT_R_CAP = 3


@dataclass(frozen=True)
class ConstraintGraph:
    """Bipartite topology: constraints on the left, CSP variables on the right."""

    xvars: tuple[int, ...]
    constraints: tuple[tuple[int, ...], ...]
    alphabet: tuple[int, ...] = (0, 1)

    def __post_init__(self):
        if len(set(self.xvars)) != len(self.xvars):
            raise ValueError("CSP variables must be distinct")
        if len(self.alphabet) < 2:
            raise ValueError("alphabet needs at least two symbols")
        known = set(self.xvars)
        for i, vs in enumerate(self.constraints, start=1):
            if list(vs) != sorted(set(vs)):
                raise ValueError(f"constraint {i} variables must be ascending")
            if not set(vs) <= known:
                raise ValueError(f"constraint {i} mentions unknown variables")

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def degree(self) -> int:
        return max((len(vs) for vs in self.constraints), default=0)

    @cached_property
    def block_sizes(self) -> tuple[int, ...]:
        a = len(self.alphabet)
        return tuple(a ** len(vs) for vs in self.constraints)

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

    def rank(self, i: int, alpha: tuple[int, ...]) -> int:
        symbols = {s: k for k, s in enumerate(self.alphabet)}
        vs = self.constraints[i]
        if len(alpha) != len(vs):
            raise ValueError("assignment length does not match the constraint")
        r = 0
        for s in alpha:
            r = r * len(self.alphabet) + symbols[s]
        return r

    def position(self, i: int, alpha: tuple[int, ...]) -> int:
        """Bit position of truth-table entry (constraint i, assignment alpha)."""
        return self.offsets[i] + self.rank(i, alpha)

    def alpha_of_rank(self, i: int, rank: int) -> tuple[int, ...]:
        width = len(self.constraints[i])
        a = len(self.alphabet)
        digits = []
        for _ in range(width):
            digits.append(self.alphabet[rank % a])
            rank //= a
        return tuple(reversed(digits))


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


def _binary_only(graph: ConstraintGraph) -> None:
    if graph.alphabet != (0, 1):
        raise ValueError("instance constructions are defined for the 0/1 alphabet")


def accepting_instance(graph: ConstraintGraph, x: Assignment) -> CspSatInstance:
    """One-hot blocks: constraint i is 1 exactly at x restricted to vars(i)."""
    _binary_only(graph)
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
    _binary_only(graph)
    if not part.yset <= y.scope:
        raise ScopeError("y must assign every Y-side variable")
    if graph.m != formula.m:
        raise ValueError("graph and formula disagree on the constraint count")
    bits = full_mask(graph.size)
    for i, vs in enumerate(graph.constraints):
        clause = formula.clauses[i]
        for rank in range(graph.block_sizes[i]):
            alpha = graph.alpha_of_rank(i, rank)
            joint = Assignment.from_map(
                {**{v: a for v, a in zip(vs, alpha)}, **{v: y.bit(v) for v in part.yvars}}
            )
            if not eval_clause(clause, joint):
                bits &= ~(1 << (graph.offsets[i] + rank))
    return CspSatInstance(graph, bits)


def csp_sat_eval(
    graph: ConstraintGraph, inst: CspSatInstance, cap: int = DEFAULT_EVAL_CAP
) -> bool:
    """Backtracking search for an alphabet assignment whose restriction hits a
    1-entry in every block.
    """
    if inst.graph != graph:
        raise ValueError("instance was built for a different topology")
    k = len(graph.xvars)
    if k > cap:
        raise CapExceededError(f"{k} CSP variables exceed evaluation cap {cap}")
    var_pos = {v: p for p, v in enumerate(graph.xvars)}
    ready: list[list[int]] = [[] for _ in range(k + 1)]
    for ci, vs in enumerate(graph.constraints):
        step = max((var_pos[v] for v in vs), default=-1) + 1
        ready[step].append(ci)
    a = len(graph.alphabet)
    chosen = [0] * k

    def block_ok(ci: int) -> bool:
        rank = 0
        for v in graph.constraints[ci]:
            rank = rank * a + chosen[var_pos[v]]
        return inst.bit(graph.offsets[ci] + rank) == 1

    def descend(step: int) -> bool:
        for ci in ready[step]:
            if not block_ok(ci):
                return False
        if step == k:
            return True
        for sym in range(a):
            chosen[step] = sym
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
    graph: ConstraintGraph,
    formula: CnfFormula,
    part: VariablePartition,
    cap: int = DEFAULT_EVAL_CAP,
) -> bool:
    """Whether y -> rejecting instance is injective, by enumeration."""
    if part.n2 > cap:
        raise CapExceededError(f"2^{part.n2} rejecting instances exceed cap {cap}")
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
    exact_r_cap: int = DEFAULT_EXACT_R_CAP,
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
        if r > exact_r_cap:
            raise CapExceededError(
                f"exact agreement counting is capped at r <= {exact_r_cap}"
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


# --- instance serialization --------------------------------------------------


def serialize_instance(inst: CspSatInstance) -> str:
    g = inst.graph
    lines = [
        f"csp-sat {g.m} {len(g.xvars)} {len(g.alphabet)}",
        "blocks " + " ".join(str(s) for s in g.block_sizes),
    ]
    for i in range(g.m):
        lines.append("".join(str(bit) for bit in inst.block_bits(i)))
    return "\n".join(lines) + "\n"


def parse_instance(text: str, graph: ConstraintGraph) -> CspSatInstance:
    rows = [r.strip() for r in text.splitlines() if r.strip()]
    if not rows or not rows[0].startswith("csp-sat"):
        raise InstanceTextError(1, "missing 'csp-sat' header")
    head = rows[0].split()
    if len(head) != 4:
        raise InstanceTextError(1, "header needs m, x-side size, alphabet size")
    try:
        m, nx, a = (int(t) for t in head[1:])
    except ValueError:
        raise InstanceTextError(1, "header counts must be integers")
    if (m, nx, a) != (graph.m, len(graph.xvars), len(graph.alphabet)):
        raise InstanceTextError(1, "header does not match the topology")
    if len(rows) < 2 or not rows[1].startswith("blocks"):
        raise InstanceTextError(2, "missing 'blocks' line")
    try:
        sizes = tuple(int(t) for t in rows[1].split()[1:])
    except ValueError:
        raise InstanceTextError(2, "block sizes must be integers")
    if sizes != graph.block_sizes:
        raise InstanceTextError(2, "block sizes do not match the topology")
    if len(rows) != 2 + m:
        raise InstanceTextError(len(rows), f"expected {m} block rows")
    bits = 0
    pos = 0
    for i, row in enumerate(rows[2:], start=3):
        if len(row) != graph.block_sizes[i - 3] or set(row) - {"0", "1"}:
            raise InstanceTextError(i, "block row must be 0/1 characters")
        for ch in row:
            if ch == "1":
                bits |= 1 << pos
            pos += 1
    return CspSatInstance(graph, bits)
