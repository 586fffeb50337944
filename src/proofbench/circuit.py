"""Monotone circuits, the refutation-to-circuit compiler, separation
checking, and the converse extraction of a two-bit-protocol refutation.

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
from typing import Sequence

from .bitops import full_mask
from .cnf import Clause, CnfFormula, VariablePartition, clause_to_inequality
from .circuit_text import parse_circuit, serialize_circuit
from .cpproof import (
    Addition,
    BooleanAxiom,
    CpProof,
    Division,
    Hypothesis,
    ResolutionRefutation,
)
from .cspsat import CspSatInstance
from .errors import CapExceededError, ScopeError, SoundnessError
from .gates import AndGate, ConstGate, Gate, InputGate, MonotoneCircuit, OrGate
from .protocol import (
    ALICE,
    BOB,
    DEFAULT_DEPTH_CAP,
    DEFAULT_SIDE_CAP,
    ProtocolTree,
    clause_protocol,
    constant_tree,
    full_history_masks,
    inequality_protocol,
    good_from_masks,
)
from .semantics import SemanticLine, check_semantic_step, rectangle_bits

__all__ = [
    "CcLine",
    "CompileReport",
    "CompileResult",
    "CompiledLineCircuit",
    "ExtractedRefutation",
    "ExtractionReport",
    "MonotoneCircuit",
    "NodeRecord",
    "SeparationReport",
    "cc_lines_from_cp_proof",
    "cc_lines_from_resolution",
    "compile_cc_refutation",
    "eval_circuit",
    "eval_gates",
    "extract_cc2_refutation",
    "parse_circuit",
    "serialize_circuit",
    "side_values",
    "verify_separation",
]


class CircuitBuilder:
    """Gate arena with hash-consing; structurally equal gates are shared."""

    def __init__(self):
        self.gates: list[Gate] = []
        self._table: dict[tuple, int] = {}

    def _intern(self, key: tuple, gate: Gate) -> int:
        idx = self._table.get(key)
        if idx is None:
            idx = len(self.gates)
            self.gates.append(gate)
            self._table[key] = idx
        return idx

    def input_gate(self, constraint: int, alpha: tuple[int, ...]) -> int:
        return self._intern(("in", constraint, alpha), InputGate(constraint, alpha))

    def const(self, bit: int) -> int:
        return self._intern(("const", bit), ConstGate(bit))

    def gate_and(self, a: int, b: int) -> int:
        a, b = min(a, b), max(a, b)
        return self._intern(("and", a, b), AndGate(a, b))

    def gate_or(self, a: int, b: int) -> int:
        a, b = min(a, b), max(a, b)
        return self._intern(("or", a, b), OrGate(a, b))

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


def _check_side_cap(part: VariablePartition, side_cap: int) -> None:
    if part.n1 > side_cap or part.n2 > side_cap:
        raise CapExceededError(
            f"partition sides ({part.n1}, {part.n2}) exceed cap {side_cap}"
        )


def _check_inputs(
    circuit: MonotoneCircuit, formula: CnfFormula, part: VariablePartition
) -> None:
    """Every input gate must name an entry of the truth-table layout."""
    used = max((v for c in formula.clauses for v in c.vars), default=0)
    if used > part.n:
        raise ScopeError(f"clause variable {used} is outside the partition")
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
    circuit: MonotoneCircuit,
    formula: CnfFormula,
    part: VariablePartition,
    side_cap: int = DEFAULT_SIDE_CAP,
) -> tuple[list[int], list[int]]:
    """Per gate, the mask of x indices where it accepts U(x) and the mask of
    y indices where it accepts V(y).

    Bit x of ``val_u[g]`` is ``eval_gates(circuit, U(x))[g]`` and bit y of
    ``val_v[g]`` is ``eval_gates(circuit, V(y))[g]``, without building any
    instance. Input gate (i, alpha) accepts U(x) iff x restricted to clause
    i's X-variables is alpha, and accepts V(y) iff alpha satisfies one of
    clause i's X-literals or y one of its Y-literals. Raises ``ValueError``
    for an input gate outside the layout before evaluating anything.
    """
    _check_side_cap(part, side_cap)
    _check_inputs(circuit, formula, part)
    xfull = full_mask(1 << part.n1)
    yfull = full_mask(1 << part.n2)
    var_masks = part.var_masks
    val_u: list[int] = []
    val_v: list[int] = []
    for gate in circuit.gates:
        if isinstance(gate, InputGate):
            clause = formula.clauses[gate.constraint - 1]
            xlits = sorted(clause.side_literals(part.xset), key=lambda l: l.var)
            vu = xfull
            for lit, a in zip(xlits, gate.alpha):
                vu &= var_masks[lit.var] if a else xfull ^ var_masks[lit.var]
            if any(lit.satisfied_by(a) for lit, a in zip(xlits, gate.alpha)):
                vv = yfull
            else:
                vv = 0
                for lit in clause.side_literals(part.yset):
                    ones = var_masks[lit.var]
                    vv |= yfull ^ ones if lit.negated else ones
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
    """One refutation line: truth table, protocol tree, and its derivation."""

    table: SemanticLine
    tree: ProtocolTree
    axiom: int | None = None
    premises: tuple[int, int] | None = None

    def __post_init__(self):
        if (self.axiom is None) == (self.premises is None):
            raise ValueError("a line is either an axiom or derived, never both")


def cc_lines_from_resolution(
    refutation: ResolutionRefutation,
    part: VariablePartition,
    side_cap: int = DEFAULT_SIDE_CAP,
) -> tuple[CcLine, ...]:
    """Clause lines get the two-bit clause protocol; the empty clause gets the
    silent constant-0 protocol.
    """
    out = []
    for line in refutation.lines:
        table = SemanticLine.from_literals(line.literals, part)
        if line.literals:
            lits = tuple(sorted(line.literals, key=lambda l: l.var))
            tree = clause_protocol(Clause(lits), part, side_cap)
        else:
            tree = constant_tree(part, 0)
        out.append(CcLine(table, tree, axiom=line.axiom, premises=line.premises))
    return tuple(out)


def cc_lines_from_cp_proof(
    formula: CnfFormula,
    part: VariablePartition,
    proof: CpProof,
    side_cap: int = DEFAULT_SIDE_CAP,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> tuple[CcLine, ...]:
    """Clause axioms first, then one line per proof step, stopping at the
    first refutation terminal (later steps cannot contribute).

    Hypothesis steps point back at the matching clause axiom, division at its
    source twice, boolean axioms (constant-1 tables) at the first line twice;
    every mapping is a sound two-premise step.
    """
    from .cpproof import is_refutation_terminal

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
        CcLine(
            SemanticLine.from_clause(clause, part),
            clause_protocol(clause, part, side_cap),
            axiom=i + 1,
        )
        for i, clause in enumerate(formula.clauses)
    ]
    m = formula.m
    for line in proof.lines[: terminal + 1]:
        table = SemanticLine.from_inequality(line.ineq, part)
        tree = inequality_protocol(line.ineq, part, side_cap, depth_cap)
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
class NodeRecord:
    """Stacked-tree node with its triple-intersection masks."""

    line_index: int
    history: str
    prefix: str
    gate: int
    xmask: int
    ymask: int


@dataclass(frozen=True)
class CompileReport:
    line_count: int
    gate_count: int
    max_protocol_depth: int
    size_estimate: int  # lines times 2^k, the construction's own accounting
    size_bound: int  # lines times 2^{3k}, the ceiling asserted by tests

    def to_dict(self) -> dict:
        return {
            "line_count": self.line_count,
            "gate_count": self.gate_count,
            "max_protocol_depth": self.max_protocol_depth,
            "size_estimate": self.size_estimate,
            "size_bound": self.size_bound,
        }


@dataclass(frozen=True)
class CompileResult:
    circuit: MonotoneCircuit
    entries: tuple[CompiledLineCircuit, ...]
    report: CompileReport
    node_records: tuple[NodeRecord, ...] | None = None


def _validate_refutation(
    lines: Sequence[CcLine], formula: CnfFormula, part: VariablePartition
) -> None:
    m = formula.m
    if len(lines) < m + 1:
        raise SoundnessError("refutation must contain the clauses and a final line")
    clause_tables = [SemanticLine.from_clause(c, part).bits for c in formula.clauses]
    for i, ln in enumerate(lines):
        if i < m and ln.axiom != i + 1:
            raise SoundnessError(f"line {i} must be clause axiom {i + 1}")
        if ln.axiom is not None:
            if not 1 <= ln.axiom <= m:
                raise SoundnessError(f"line {i}: axiom index {ln.axiom} out of range")
            if ln.table.bits != clause_tables[ln.axiom - 1]:
                raise SoundnessError(f"line {i}: table differs from clause {ln.axiom}")
        else:
            j, k = ln.premises
            if not (0 <= j < i and 0 <= k < i):
                raise SoundnessError(f"line {i}: premises must be earlier lines")
            if not check_semantic_step(lines[j].table, lines[k].table, ln.table):
                raise SoundnessError(f"line {i} is not entailed by its premises")
        if ln.tree.part != part:
            raise SoundnessError(f"line {i}: protocol tree uses another partition")
    if not lines[-1].table.is_constant(0):
        raise SoundnessError("final line must be the constant-0 table")
    if lines[-1].tree.depth != 0:
        raise SoundnessError("final line must carry a depth-0 protocol")


def compile_cc_refutation(
    lines: Sequence[CcLine],
    formula: CnfFormula,
    part: VariablePartition,
    side_cap: int = DEFAULT_SIDE_CAP,
    record_nodes: bool = False,
) -> CompileResult:
    """Compile a protocol refutation into a monotone circuit separating the
    accepting instances U(x) from the rejecting instances V(y).

    Preconditions are enforced: the first m lines are the clauses, every
    derived line is entailed by its two premises, every tree computes its
    line, and the final line is constant 0 with a depth-0 protocol.
    """
    _check_side_cap(part, side_cap)
    _validate_refutation(lines, formula, part)

    masks_per_line: list[dict[str, tuple[int, int]]] = []
    for i, ln in enumerate(lines):
        masks = full_history_masks(ln.tree)
        for h, (xm, ym) in masks.items():
            rect = rectangle_bits(xm, ym, part.n2)
            if ln.table.bits & rect != (rect if ln.tree.output_at(h) else 0):
                raise SoundnessError(
                    f"line {i}: protocol tree disagrees with the table"
                )
        masks_per_line.append(masks)

    builder = CircuitBuilder()
    built: dict[tuple[int, str], int] = {}
    entries: list[CompiledLineCircuit] = []
    records: list[NodeRecord] = []

    def build_axiom(i: int, ln: CcLine) -> None:
        # The line's table is its clause's (checked above), so a nonempty good
        # rectangle holds only x falsifying the clause's X-literals: the entry
        # alpha is their falsifying bits in variable order. Empty good
        # histories are not materialized (constants serve them later).
        clause = formula.clauses[ln.axiom - 1]
        xlits = sorted(clause.side_literals(part.xset), key=lambda l: l.var)
        alpha = tuple(int(lit.negated) for lit in xlits)
        for h in good_from_masks(masks_per_line[i], ln.table):
            xm, ym = masks_per_line[i][h]
            if xm and ym:
                gate = builder.input_gate(ln.axiom, alpha)
                built[(i, h)] = gate
                entries.append(CompiledLineCircuit(i, h, gate))

    xfull = full_mask(1 << part.n1)
    yfull = full_mask(1 << part.n2)

    def build_derived(i: int, ln: CcLine) -> None:
        j, k = ln.premises
        tj, tk = lines[j].tree, lines[k].tree
        dj, total = tj.depth, tj.depth + tk.depth

        def node(prefix: str, xm: int, ym: int, h: str) -> int:
            if len(prefix) == total:
                gate = built.get((j, prefix[:dj]))
                if gate is None:
                    gate = built.get((k, prefix[dj:]))
                if gate is None:
                    if xm == 0:
                        gate = builder.const(0)
                    elif ym == 0:
                        gate = builder.const(1)
                    else:
                        raise SoundnessError(
                            f"line {i}, history {h!r}: premises both reject "
                            f"stacked leaf {prefix!r} on a nonempty rectangle"
                        )
            else:
                if len(prefix) < dj:
                    owner = tj.owner_at(prefix)
                    pred = tj.predicate_at(prefix)
                else:
                    owner = tk.owner_at(prefix[dj:])
                    pred = tk.predicate_at(prefix[dj:])
                if owner == ALICE:
                    g0 = node(prefix + "0", xm & ~pred & xfull, ym, h)
                    g1 = node(prefix + "1", xm & pred, ym, h)
                    gate = builder.gate_or(g0, g1)
                else:
                    g0 = node(prefix + "0", xm, ym & ~pred & yfull, h)
                    g1 = node(prefix + "1", xm, ym & pred, h)
                    gate = builder.gate_and(g0, g1)
            if record_nodes:
                records.append(NodeRecord(i, h, prefix, gate, xm, ym))
            return gate

        for h in good_from_masks(masks_per_line[i], ln.table):
            xm, ym = masks_per_line[i][h]
            gate = node("", xm, ym, h)
            built[(i, h)] = gate
            entries.append(CompiledLineCircuit(i, h, gate))

    for i, ln in enumerate(lines):
        if ln.axiom is not None:
            build_axiom(i, ln)
        else:
            build_derived(i, ln)

    final = built.get((len(lines) - 1, ""))
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
    return CompileResult(
        circuit,
        tuple(entries),
        report,
        tuple(records) if record_nodes else None,
    )


# --- separation and extraction ----------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    passed: bool
    accepting_checked: int
    rejecting_checked: int
    failing_x: int | None = None
    failing_y: int | None = None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "accepting_checked": self.accepting_checked,
            "rejecting_checked": self.rejecting_checked,
            "failing_x": self.failing_x,
            "failing_y": self.failing_y,
        }


def verify_separation(
    circuit: MonotoneCircuit,
    formula: CnfFormula,
    part: VariablePartition,
    side_cap: int = DEFAULT_SIDE_CAP,
) -> SeparationReport:
    """Check output 1 on every U(x) and 0 on every V(y); report a witness
    index for the first failure of each kind.
    """
    val_u, val_v = side_values(circuit, formula, part, side_cap)
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
    problems: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        return {
            "line_count": self.line_count,
            "leaf_entailments_ok": self.leaf_entailments_ok,
            "internal_entailments_ok": self.internal_entailments_ok,
            "constant_lines_ok": self.constant_lines_ok,
            "root_constant_zero": self.root_constant_zero,
            "all_ok": self.all_ok,
            "problems": list(self.problems),
        }


@dataclass(frozen=True)
class ExtractedRefutation:
    """One semantic line per gate, in gate order, with two-bit protocols."""

    lines: tuple[SemanticLine, ...]
    trees: tuple[ProtocolTree, ...]
    provenance: dict[int, tuple[int, tuple[int, ...]]]
    report: ExtractionReport


def extract_cc2_refutation(
    circuit: MonotoneCircuit,
    formula: CnfFormula,
    part: VariablePartition,
    side_cap: int = DEFAULT_SIDE_CAP,
    require_separation: bool = True,
) -> ExtractedRefutation:
    """Read a refutation back out of a separating circuit.

    Gate g becomes the line that is 0 exactly where g accepts U(x) and
    rejects V(y); Alice reports the first condition, Bob the second, so every
    line has a two-bit protocol. Leaf lines are entailed by their clause
    axioms and internal lines by their children's lines; the output gate's
    line is constant 0 exactly when the circuit separates.

    With ``require_separation=False`` a non-separating circuit is processed
    anyway and the report flags the non-constant root line.
    """
    val_u, val_v = side_values(circuit, formula, part, side_cap)
    if require_separation:
        sep = _separation_report(val_u, val_v, circuit.output, part)
        if not sep.passed:
            raise SoundnessError(
                f"circuit does not separate the instances "
                f"(failing x={sep.failing_x}, y={sep.failing_y})"
            )

    yfull = full_mask(1 << part.n2)
    full = full_mask(1 << part.n)
    lines: list[SemanticLine] = []
    trees: list[ProtocolTree] = []
    provenance: dict[int, tuple[int, tuple[int, ...]]] = {}
    for g, gate in enumerate(circuit.gates):
        # The line is 0 where the gate accepts U(x) and rejects V(y).
        zero = rectangle_bits(val_u[g], ~val_v[g] & yfull, part.n2)
        lines.append(SemanticLine(part.n1, part.n2, full ^ zero))
        owners = {"": ALICE, "0": BOB, "1": BOB}
        preds = {"": val_u[g], "0": val_v[g], "1": val_v[g]}
        outputs = {h: (0 if h == "10" else 1) for h in ("00", "01", "10", "11")}
        trees.append(ProtocolTree(part, 2, owners, preds, outputs))
        if isinstance(gate, InputGate):
            provenance[g] = (gate.constraint, gate.alpha)

    problems: list[str] = []
    clause_tables = {
        i + 1: SemanticLine.from_clause(c, part)
        for i, c in enumerate(formula.clauses)
    }
    leaf_ok = internal_ok = const_ok = True
    for g, gate in enumerate(circuit.gates):
        if isinstance(gate, InputGate):
            axiom = clause_tables[gate.constraint]
            if not check_semantic_step(axiom, axiom, lines[g]):
                leaf_ok = False
                problems.append(f"gate {g}: line not entailed by clause axiom")
        elif isinstance(gate, ConstGate):
            if not lines[g].is_constant(1):
                const_ok = False
                problems.append(f"gate {g}: constant gate line is not constant 1")
        else:
            if not check_semantic_step(lines[gate.left], lines[gate.right], lines[g]):
                internal_ok = False
                problems.append(f"gate {g}: line not entailed by its children")
    root_zero = lines[circuit.output].is_constant(0)
    if not root_zero:
        problems.append("output gate's line is not constant 0")
    report = ExtractionReport(
        line_count=len(lines),
        leaf_entailments_ok=leaf_ok,
        internal_entailments_ok=internal_ok,
        constant_lines_ok=const_ok,
        root_constant_zero=root_zero,
        problems=tuple(problems),
    )
    return ExtractedRefutation(tuple(lines), tuple(trees), provenance, report)
