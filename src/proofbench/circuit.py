"""Monotone circuits, the refutation-to-circuit compiler, separation
checking, the converse extraction of a two-bit-protocol refutation, and the
roundtrip that chains them.

The compiler turns a semantic refutation whose lines carry protocol trees
into an AND/OR circuit over truth-table input variables. For every line and
every good (0-monochromatic, empty included) history it materializes a
subcircuit; derived lines get a stacked tree that plays both premise
protocols in sequence, Alice nodes becoming OR gates and Bob nodes AND gates.

Labelling invariant: the subcircuit stored for a good history h of line L
outputs 1 on every accepting instance whose x is consistent with h and 0 on
every rejecting instance whose y is consistent with h, each side separately,
with no joint-nonemptiness proviso. Axiom gates satisfy this exactly, and the
OR/AND recursion preserves it because an Alice node splits only the x side
and a Bob node only the y side. The invariant implies the per-rectangle
correctness of every stored subcircuit and, at the constant-0 final line
whose rectangle is the whole space, full separation. A stacked leaf whose
premise histories are both bad is unreachable inside the current rectangle,
so a constant gate keeps the invariant there: Const0 when no x reaches the
leaf, else Const1 when no y does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Sequence

from .bitops import full_mask
from .cnf import CnfFormula, Literal, VariablePartition, clause_to_inequality
from .circuit_text import parse_circuit, serialize_circuit
from .cpproof import (
    Addition,
    BooleanAxiom,
    CpProof,
    Division,
    Hypothesis,
    ProofLine,
    ResolutionRefutation,
    cp_proof_lines,
    is_refutation_terminal,
    resolution_refutation_from_dpll,
)
from .cspsat import CspSatInstance, falsifying_entry
from .errors import SoundnessError
from .gates import AndGate, ConstGate, Gate, InputGate, MonotoneCircuit, OrGate
from .linear import LinearInequality
from .protocol import (
    ALICE,
    ProtocolTree,
    check_side_cap,
    clause_line,
    constant_tree,
    good_leaves,
    history_masks,
    two_bit_protocol,
)
from .semantics import SemanticLine, check_semantic_step, falsifying_mask

__all__ = [
    "CcLine",
    "CompileReport",
    "CompileResult",
    "CompiledLineCircuit",
    "ExtractedRefutation",
    "ExtractionReport",
    "MonotoneCircuit",
    "RoundtripResult",
    "SeparationReport",
    "cc_lines_from_cp_proof",
    "cc_lines_from_resolution",
    "compile_cc_refutation",
    "eval_circuit",
    "eval_gates",
    "extract_cc2_refutation",
    "parse_circuit",
    "roundtrip",
    "serialize_circuit",
    "side_values",
    "verify_separation",
]


class CircuitBuilder:
    """Gate arena with hash-consing; structurally equal gates are shared."""

    def __init__(self):
        self.gates: list[Gate] = []
        self._table: dict[tuple, int] = {}

    def _intern(self, key: tuple, make: type, *args) -> int:
        """Index of the gate under ``key``; ``make(*args)`` only on a miss."""
        idx = self._table.get(key)
        if idx is None:
            idx = self._table[key] = len(self.gates)
            self.gates.append(make(*args))
        return idx

    def input_gate(self, constraint: int, alpha: tuple[int, ...]) -> int:
        return self._intern(("in", constraint, alpha), InputGate, constraint, alpha)

    def const(self, bit: int) -> int:
        return self._intern(("const", bit), ConstGate, bit)

    def gate_and(self, a: int, b: int) -> int:
        if b < a:
            a, b = b, a
        return self._intern(("and", a, b), AndGate, a, b)

    def gate_or(self, a: int, b: int) -> int:
        if b < a:
            a, b = b, a
        return self._intern(("or", a, b), OrGate, a, b)

    def build(self, output: int) -> MonotoneCircuit:
        return MonotoneCircuit(tuple(self.gates), output)


def eval_gates(circuit: MonotoneCircuit, inst: CspSatInstance) -> list[int]:
    """Bottom-up values of every gate on one instance."""
    graph = inst.graph
    vals: list[int] = []
    for gate in circuit.gates:
        if isinstance(gate, InputGate):
            if not 1 <= gate.constraint <= graph.m:
                raise ValueError(
                    f"input gate constraint {gate.constraint} outside the layout"
                )
            vals.append(inst.entry(gate.constraint - 1, gate.alpha))
        elif isinstance(gate, ConstGate):
            vals.append(gate.bit)
        elif isinstance(gate, AndGate):
            vals.append(vals[gate.left] & vals[gate.right])
        else:
            vals.append(vals[gate.left] | vals[gate.right])
    return vals


def eval_circuit(circuit: MonotoneCircuit, inst: CspSatInstance) -> int:
    return eval_gates(circuit, inst)[circuit.output]


# --- bit-parallel evaluation on every U(x) and V(y) ---------------------------


def _check_inputs(
    circuit: MonotoneCircuit, formula: CnfFormula, part: VariablePartition
) -> None:
    """Every input gate must name an entry of the truth-table layout."""
    m = formula.m
    for g, gate in enumerate(circuit.gates):
        if not isinstance(gate, InputGate):
            continue
        if not 1 <= gate.constraint <= m:
            raise ValueError(
                f"gate {g}: input gate constraint {gate.constraint} outside "
                f"the layout (1..{m})"
            )
        width = len(formula.clauses[gate.constraint - 1].vars & part.xset)
        if len(gate.alpha) != width:
            raise ValueError(
                f"gate {g}: alpha has {len(gate.alpha)} bits, constraint "
                f"{gate.constraint} reads {width} variables"
            )
        if any(b not in (0, 1) for b in gate.alpha):
            raise ValueError(f"gate {g}: alpha bits must be 0 or 1")


def side_values(
    circuit: MonotoneCircuit, formula: CnfFormula, part: VariablePartition
) -> tuple[list[int], list[int]]:
    """Per gate, the mask of x indices where it accepts U(x) and the mask of
    y indices where it accepts V(y).

    Bit x of ``val_u[g]`` is ``eval_gates(circuit, U(x))[g]`` and bit y of
    ``val_v[g]`` is ``eval_gates(circuit, V(y))[g]``, without building any
    instance. Input gate (i, alpha) accepts U(x) iff x agrees with alpha on
    clause i's X-variables in ascending order, a subcube of x, and accepts
    V(y) iff alpha satisfies one of clause i's X-literals or y one of its
    Y-literals. Raises ``ScopeError`` for a clause variable outside the
    partition and ``ValueError`` for an input gate outside the layout, both
    before evaluating anything.
    """
    check_side_cap(part)
    clause_masks = [falsifying_mask(c.literals, part) for c in formula.clauses]
    _check_inputs(circuit, formula, part)
    xfull = full_mask(1 << part.n1)
    yfull = full_mask(1 << part.n2)
    val_u: list[int] = []
    val_v: list[int] = []
    for gate in circuit.gates:
        if isinstance(gate, InputGate):
            xvars = sorted(formula.clauses[gate.constraint - 1].vars & part.xset)
            vu, _ = falsifying_mask(
                (Literal(v, bool(a)) for v, a in zip(xvars, gate.alpha)), part
            )
            # alpha falsifies every X-literal iff its subcube meets xf
            xf, yf = clause_masks[gate.constraint - 1]
            vv = yfull ^ yf if vu & xf else yfull
        elif isinstance(gate, ConstGate):
            vu = xfull if gate.bit else 0
            vv = yfull if gate.bit else 0
        elif isinstance(gate, AndGate):
            vu = val_u[gate.left] & val_u[gate.right]
            vv = val_v[gate.left] & val_v[gate.right]
        else:
            vu = val_u[gate.left] | val_u[gate.right]
            vv = val_v[gate.left] | val_v[gate.right]
        val_u.append(vu)
        val_v.append(vv)
    return val_u, val_v


# --- compiler inputs ---------------------------------------------------------


@dataclass(frozen=True)
class CcLine:
    """One refutation line: row classes, protocol tree, and its derivation."""

    table: SemanticLine
    tree: ProtocolTree
    axiom: int | None = None
    premises: tuple[int, int] | None = None

    def __post_init__(self):
        if (self.axiom is None) == (self.premises is None):
            raise ValueError("a line is either an axiom or derived, never both")


def cc_lines_from_resolution(
    refutation: ResolutionRefutation, part: VariablePartition
) -> tuple[CcLine, ...]:
    """Clause lines get the two-bit clause protocol; the empty clause gets the
    silent constant-0 protocol.
    """
    out = []
    for line in refutation.lines:
        if line.literals:
            table, tree = clause_line(line.literals, part)
        else:
            table, tree = SemanticLine.constant(part, 0), constant_tree(part, 0)
        out.append(CcLine(table, tree, axiom=line.axiom, premises=line.premises))
    return tuple(out)


def cc_lines_from_cp_proof(
    formula: CnfFormula, part: VariablePartition, proof: CpProof
) -> tuple[CcLine, ...]:
    """Clause axioms first, then one line per proof step, stopping at the
    first refutation terminal (later steps cannot contribute).

    Hypothesis steps point back at the matching clause axiom, division at its
    source twice, boolean axioms (constant-1 lines) at the first line twice;
    every mapping is a sound two-premise step. The lines and trees come from
    ``cp_proof_lines``, so a cap error names its proof line.
    """
    if len(proof.system) != formula.m:
        raise ValueError("system size differs from the clause count")
    for i, clause in enumerate(formula.clauses, start=1):
        if clause_to_inequality(clause, formula.n) != proof.system[i - 1]:
            raise ValueError(f"system row {i} is not the encoding of clause {i}")
    terminal = next(
        (i for i, ln in enumerate(proof.lines) if is_refutation_terminal(ln.ineq)),
        None,
    )
    if terminal is None:
        raise ValueError("the proof never reaches a refutation terminal")
    lines = [
        CcLine(*clause_line(clause.literals, part), axiom=i + 1)
        for i, clause in enumerate(formula.clauses)
    ]
    m = formula.m
    # The partition may name variables the formula never uses; their
    # coefficients are zero.
    steps = tuple(
        ProofLine(
            LinearInequality(
                ln.ineq.coeffs + (0,) * (part.n - ln.ineq.n), ln.ineq.constant
            ),
            ln.justification,
        )
        for ln in proof.lines[: terminal + 1]
    )
    built = cp_proof_lines(CpProof(proof.system, steps), part)
    for line, (table, tree) in zip(steps, built):
        just = line.justification
        if isinstance(just, Hypothesis):
            premises = (just.row - 1, just.row - 1)
        elif isinstance(just, BooleanAxiom):
            premises = (0, 0)
        elif isinstance(just, Addition):
            premises = (m + just.left - 1, m + just.right - 1)
        elif isinstance(just, Division):
            premises = (m + just.source - 1, m + just.source - 1)
        else:
            raise ValueError(f"unknown justification {just!r}")
        lines.append(CcLine(table, tree, premises=premises))
    return tuple(lines)


# --- compilation -------------------------------------------------------------


@dataclass(frozen=True)
class CompiledLineCircuit:
    line_index: int
    history: str
    gate: int


@dataclass(frozen=True)
class CompileReport:
    line_count: int
    gate_count: int
    max_protocol_depth: int
    size_estimate: int  # lines times 2^k, the construction's own accounting
    size_bound: int  # lines times 2^{3k}, the ceiling asserted by tests


@dataclass(frozen=True)
class CompileResult:
    circuit: MonotoneCircuit
    entries: tuple[CompiledLineCircuit, ...]
    report: CompileReport


def _validate_refutation(
    lines: Sequence[CcLine], formula: CnfFormula, part: VariablePartition
) -> None:
    m = formula.m
    if len(lines) < m + 1:
        raise SoundnessError("refutation must contain the clauses and a final line")
    clause_lines = [SemanticLine.from_clause(c, part) for c in formula.clauses]
    for i, ln in enumerate(lines):
        if i < m and ln.axiom != i + 1:
            raise SoundnessError(f"line {i} must be clause axiom {i + 1}")
        if ln.axiom is not None:
            if not 1 <= ln.axiom <= m:
                raise SoundnessError(f"line {i}: axiom index {ln.axiom} out of range")
            if ln.table != clause_lines[ln.axiom - 1]:
                raise SoundnessError(f"line {i}: table differs from clause {ln.axiom}")
        else:
            j, k = ln.premises
            if not (0 <= j < i and 0 <= k < i):
                raise SoundnessError(f"line {i}: premises must be earlier lines")
            if not check_semantic_step(lines[j].table, lines[k].table, ln.table):
                raise SoundnessError(f"line {i} is not entailed by its premises")
            # the step holds vacuously where no class covers x
            xs = [xm for xm, _ in ln.table.rows]
            if sum(xs) != full_mask(1 << ln.table.n1) or reduce(or_, xs, 0) != sum(xs):
                raise SoundnessError(f"line {i}: row classes do not partition x")
        if ln.tree.part != part:
            raise SoundnessError(f"line {i}: protocol tree uses another partition")
    if not lines[-1].table.is_constant(0):
        raise SoundnessError("final line must be the constant-0 table")
    if lines[-1].tree.depth != 0:
        raise SoundnessError("final line must carry a depth-0 protocol")


def compile_cc_refutation(
    lines: Sequence[CcLine], formula: CnfFormula, part: VariablePartition
) -> CompileResult:
    """Compile a protocol refutation into a monotone circuit separating the
    accepting instances U(x) from the rejecting instances V(y).

    Preconditions are enforced: the first m lines are the clauses, every
    derived line is entailed by its two premises, every tree computes its
    line, and the final line is constant 0 with a depth-0 protocol.
    """
    check_side_cap(part)
    _validate_refutation(lines, formula, part)

    good_per_line: list[list[tuple[int, str, int, int]]] = []
    for i, ln in enumerate(lines):
        good = good_leaves(ln.tree, ln.table)
        if good is None:
            raise SoundnessError(f"line {i}: protocol tree disagrees with the table")
        good_per_line.append(good)

    builder = CircuitBuilder()
    gate_or, gate_and = builder.gate_or, builder.gate_and
    built: list[dict[int, int]] = []  # per line, good leaf -> gate
    entries: list[CompiledLineCircuit] = []
    # (g, k) -> memo of line k's tree walked with every leaf g, whatever the
    # masks; shared by all lines
    filled: dict[tuple[int, int], dict[tuple[int, int, int], int]] = {}

    def walk(
        tree: ProtocolTree, memo: dict, at_leaf: Callable, v: int, xm: int, ym: int
    ) -> int:
        # One gate per node of the stacked tree: OR at Alice, AND at Bob;
        # ``at_leaf(leaf, xm, ym)`` gives the gate of each leaf. A node's
        # gate depends only on its node, its masks and the leaves' gates, so
        # a memo returns a gate the walk would intern again as a hash-cons
        # hit, and the gate order is that of the plain walk. With xm == 0
        # every leaf below is a premise gate or Const0, so ym does not
        # matter.
        leaf = 1 << tree.depth
        if v >= leaf:
            return at_leaf(v - leaf, xm, ym)
        key = (v, xm, ym if xm else 0)
        gate = memo.get(key)
        if gate is None:
            pred = tree.preds[v]
            if tree.owners[v] == ALICE:
                g0 = walk(tree, memo, at_leaf, 2 * v, xm & ~pred, ym)
                g1 = walk(tree, memo, at_leaf, 2 * v + 1, xm & pred, ym)
                gate = memo[key] = gate_or(g0, g1)
            else:
                g0 = walk(tree, memo, at_leaf, 2 * v, xm, ym & ~pred)
                g1 = walk(tree, memo, at_leaf, 2 * v + 1, xm, ym & pred)
                gate = memo[key] = gate_and(g0, g1)
        return gate

    def build_axiom(i: int, ln: CcLine) -> dict[int, int]:
        # The line's table is its clause's (checked above), so a nonempty good
        # rectangle holds only x falsifying the clause's X-literals: x read on
        # them is the clause's falsifying entry. Empty good histories are not
        # materialized (constants serve them later).
        alpha = falsifying_entry(formula.clauses[ln.axiom - 1], part)
        out = {}
        for leaf, h, xm, ym in good_per_line[i]:
            if xm and ym:
                out[leaf] = gate = builder.input_gate(ln.axiom, alpha)
                entries.append(CompiledLineCircuit(i, h, gate))
        return out

    def build_derived(i: int, ln: CcLine) -> dict[int, int]:
        # The stacked tree plays premise j's tree, then premise k's below
        # each of its leaves. Below a gate g of line j every stacked leaf
        # returns g, whatever the masks, so that walk has no masks and its
        # memo is filled[g, k]. Below any other leaf of j the stacked
        # leaves do not depend on that leaf, so those walks share memo_k.
        j, k = ln.premises
        tj, tk = lines[j].tree, lines[k].tree
        built_j, built_k = built[j], built[k]
        memo_j: dict[tuple[int, int, int], int] = {}
        memo_k: dict[tuple[int, int, int], int] = {}

        def at_j(leaf_j: int, xm: int, ym: int) -> int:
            g = built_j.get(leaf_j)
            if g is not None:
                memo = filled.get((g, k))
                if memo is None:
                    memo = filled[g, k] = {}
                return walk(tk, memo, lambda *_: g, 1, 0, 0)

            def at_k(leaf: int, xm: int, ym: int) -> int:
                gate = built_k.get(leaf)
                if gate is not None:
                    return gate
                if xm and ym:
                    # Unreachable after _validate_refutation: a history that
                    # no gate serves is 1 on its whole rectangle in both
                    # premises, so line i is 1 there too, yet the history h
                    # being built is good for it.
                    stacked = bin(1 << tj.depth | leaf_j)[3:]
                    stacked += bin(1 << tk.depth | leaf)[3:]
                    raise SoundnessError(
                        f"line {i}, history {h!r}: premises both reject "
                        f"stacked leaf {stacked!r} on a nonempty rectangle"
                    )
                return builder.const(0 if xm == 0 else 1)

            return walk(tk, memo_k, at_k, 1, xm, ym)

        out = {}
        for leaf, h, xm, ym in good_per_line[i]:
            out[leaf] = gate = walk(tj, memo_j, at_j, 1, xm, ym)
            entries.append(CompiledLineCircuit(i, h, gate))
        return out

    for i, ln in enumerate(lines):
        built.append(build_axiom(i, ln) if ln.axiom is not None else build_derived(i, ln))

    final = built[-1].get(0)
    if final is None:
        raise SoundnessError("final line produced no circuit for the empty history")
    circuit = builder.build(final)
    kmax = max(ln.tree.depth for ln in lines)
    report = CompileReport(
        line_count=len(lines),
        gate_count=circuit.gate_count,
        max_protocol_depth=kmax,
        size_estimate=len(lines) * (1 << kmax),
        size_bound=len(lines) * (1 << (3 * kmax)),
    )
    return CompileResult(circuit, tuple(entries), report)


# --- separation and extraction ----------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    passed: bool
    accepting_checked: int
    rejecting_checked: int
    failing_x: int | None = None
    failing_y: int | None = None


def verify_separation(
    circuit: MonotoneCircuit, formula: CnfFormula, part: VariablePartition
) -> SeparationReport:
    """Check output 1 on every U(x) and 0 on every V(y); report a witness
    index for the first failure of each kind.
    """
    val_u, val_v = side_values(circuit, formula, part)
    return _separation_report(val_u, val_v, circuit.output, part)


def _lowest_bit(mask: int) -> int | None:
    return (mask & -mask).bit_length() - 1 if mask else None


def _separation_report(
    val_u: list[int], val_v: list[int], output: int, part: VariablePartition
) -> SeparationReport:
    """The lowest x whose U(x) the output rejects and the lowest y whose V(y)
    it accepts, from the side masks.
    """
    failing_x = _lowest_bit(~val_u[output] & full_mask(1 << part.n1))
    failing_y = _lowest_bit(val_v[output])
    return SeparationReport(
        failing_x is None and failing_y is None,
        1 << part.n1,
        1 << part.n2,
        failing_x,
        failing_y,
    )


@dataclass(frozen=True)
class ExtractionReport:
    line_count: int
    leaf_entailments_ok: bool
    internal_entailments_ok: bool
    constant_lines_ok: bool
    root_constant_zero: bool
    all_ok: bool
    problems: tuple[str, ...]


@dataclass(frozen=True)
class ExtractedRefutation:
    """One line per gate: gate g's line is 0 exactly where g accepts U(x) and
    rejects V(y). Lines and two-bit trees are built on request.
    """

    part: VariablePartition
    val_u: tuple[int, ...]
    val_v: tuple[int, ...]
    report: ExtractionReport

    def line(self, g: int) -> SemanticLine:
        yfull = full_mask(1 << self.part.n2)
        return SemanticLine.from_falsifying(
            self.part, self.val_u[g], yfull ^ self.val_v[g]
        )

    def tree(self, g: int) -> ProtocolTree:
        """Alice sends 0 iff g accepts U(x), Bob 0 iff g rejects V(y)."""
        xfull = full_mask(1 << self.part.n1)
        return two_bit_protocol(self.part, xfull ^ self.val_u[g], self.val_v[g])


def extract_cc2_refutation(
    circuit: MonotoneCircuit, formula: CnfFormula, part: VariablePartition
) -> ExtractedRefutation:
    """Read a refutation back out of a separating circuit; a circuit that
    does not separate raises ``SoundnessError`` with its failing indices.

    Leaf lines are entailed by their clause axioms and internal lines by
    their children's lines; the output gate's line is constant 0 exactly
    when the circuit separates.
    """
    val_u, val_v = side_values(circuit, formula, part)
    sep = _separation_report(val_u, val_v, circuit.output, part)
    if not sep.passed:
        raise SoundnessError(
            f"circuit does not separate the instances "
            f"(failing x={sep.failing_x}, y={sep.failing_y})"
        )
    return _extract_from_masks(circuit, formula, part, val_u, val_v)


def _extract_from_masks(
    circuit: MonotoneCircuit,
    formula: CnfFormula,
    part: VariablePartition,
    val_u: Sequence[int],
    val_v: Sequence[int],
) -> ExtractedRefutation:
    """The extraction from ``side_values``' masks, separating or not; the
    report flags every line that the masks do not entail. Each check is a
    cover of a line's 0-set, the rectangle ``zero[g]``, with no table.
    """
    yfull = full_mask(1 << part.n2)
    zero = [(vu, yfull ^ vv) for vu, vv in zip(val_u, val_v)]
    problems: list[str] = []
    leaf_ok = internal_ok = const_ok = True
    for g, gate in enumerate(circuit.gates):
        xm, ym = zero[g]
        if isinstance(gate, InputGate):
            clause = formula.clauses[gate.constraint - 1]
            xf, yf = falsifying_mask(clause.literals, part)
            if xm and ym and (xm & ~xf or ym & ~yf):
                leaf_ok = False
                problems.append(f"gate {g}: line not entailed by clause axiom")
        elif isinstance(gate, ConstGate):
            if xm and ym:
                const_ok = False
                problems.append(f"gate {g}: constant gate line is not constant 1")
        else:
            # over each piece the children's x masks cut from xm, ym must be covered
            (ul, yl), (ur, yr) = zero[gate.left], zero[gate.right]
            pieces = (ul & ur, yl | yr), (ul & ~ur, yl), (~ul & ur, yr), (~ul & ~ur, 0)
            if any(xm & px and ym & ~cover for px, cover in pieces):
                internal_ok = False
                problems.append(f"gate {g}: line not entailed by its children")
    root_zero = zero[circuit.output] == (full_mask(1 << part.n1), yfull)
    if not root_zero:
        problems.append("output gate's line is not constant 0")
    report = ExtractionReport(
        line_count=len(circuit.gates),
        leaf_entailments_ok=leaf_ok,
        internal_entailments_ok=internal_ok,
        constant_lines_ok=const_ok,
        root_constant_zero=root_zero,
        all_ok=not problems,
        problems=tuple(problems),
    )
    return ExtractedRefutation(part, tuple(val_u), tuple(val_v), report)


# --- the whole roundtrip -----------------------------------------------------


@dataclass(frozen=True)
class RoundtripResult:
    """Every stage of one roundtrip; without separation there is no claim
    check (0 violations) and no extraction.
    """

    refutation: ResolutionRefutation
    lines: tuple[CcLine, ...]
    compiled: CompileResult
    separation: SeparationReport
    claim_violations: int
    extraction: ExtractedRefutation | None


def roundtrip(formula: CnfFormula, part: VariablePartition) -> RoundtripResult:
    """DPLL refutation, protocol lines, compile, then separation, the claim
    check and extraction, all read off one ``side_values`` pass.
    """
    refutation = resolution_refutation_from_dpll(formula)
    lines = cc_lines_from_resolution(refutation, part)
    compiled = compile_cc_refutation(lines, formula, part)
    circuit = compiled.circuit
    val_u, val_v = side_values(circuit, formula, part)
    sep = _separation_report(val_u, val_v, circuit.output, part)
    violations = 0
    extraction = None
    if sep.passed:
        violations = _claim_violations(compiled, lines, val_u, val_v)
        extraction = _extract_from_masks(circuit, formula, part, val_u, val_v)
    return RoundtripResult(refutation, lines, compiled, sep, violations, extraction)


def _claim_violations(
    compiled: CompileResult,
    lines: Sequence[CcLine],
    val_u: list[int],
    val_v: list[int],
) -> int:
    """Count (line, good history, input) triples where a stored subcircuit
    misclassifies an instance from its own rectangle.
    """
    violations = 0
    for entry in compiled.entries:
        xm, ym = history_masks(lines[entry.line_index].tree, entry.history)
        violations += (xm & ~val_u[entry.gate]).bit_count()
        violations += (ym & val_v[entry.gate]).bit_count()
    return violations
