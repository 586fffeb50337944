"""Cutting-planes proofs: rule-by-rule verification, weight accounting,
a text format, and a resolution-refutation producer backed by DPLL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .cnf import CnfFormula, Literal, LogLine, VariablePartition, dpll
from .errors import CapExceededError, ProofTextError, SatisfiableError
from .linear import LinearInequality
from .protocol import ProtocolTree, inequality_line
from .semantics import SemanticLine

BOOL_AXIOM_LO = "lo"  # x_j >= 0
BOOL_AXIOM_HI = "hi"  # -x_j >= -1


@dataclass(frozen=True)
class Hypothesis:
    row: int


@dataclass(frozen=True)
class BooleanAxiom:
    var: int
    kind: str


@dataclass(frozen=True)
class Addition:
    left: int
    right: int


@dataclass(frozen=True)
class Division:
    source: int
    divisor: int


Justification = Union[Hypothesis, BooleanAxiom, Addition, Division]


@dataclass(frozen=True)
class ProofLine:
    ineq: LinearInequality
    justification: Justification


@dataclass(frozen=True)
class CpProof:
    system: tuple[LinearInequality, ...]
    lines: tuple[ProofLine, ...]

    @property
    def n(self) -> int:
        if self.system:
            return self.system[0].n
        return self.lines[0].ineq.n if self.lines else 0

    @property
    def length(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class LineVerdict:
    index: int
    valid: bool
    reason: str | None = None


@dataclass(frozen=True)
class CpCheckReport:
    verdicts: tuple[LineVerdict, ...]
    all_valid: bool
    is_refutation: bool
    max_weight: int
    weight_bound: int | None
    low_weight: bool | None


def is_refutation_terminal(ineq: LinearInequality) -> bool:
    """All-zero coefficients with constant >= 1 is unsatisfiable outright."""
    return ineq.is_zero_lhs() and ineq.constant >= 1


def _boolean_axiom_ineq(n: int, var: int, kind: str) -> LinearInequality:
    coeffs = [0] * n
    if kind == BOOL_AXIOM_LO:
        coeffs[var - 1] = 1
        return LinearInequality(tuple(coeffs), 0)
    coeffs[var - 1] = -1
    return LinearInequality(tuple(coeffs), -1)


def _check_line(proof: CpProof, idx: int) -> LineVerdict:
    """Verdict for 1-based line ``idx``; never raises."""
    line = proof.lines[idx - 1]
    ineq, just = line.ineq, line.justification
    n = proof.n
    if ineq.n != n:
        return LineVerdict(idx, False, f"inequality arity {ineq.n} != n={n}")
    if isinstance(just, Hypothesis):
        if not 1 <= just.row <= len(proof.system):
            return LineVerdict(idx, False, f"hypothesis row {just.row} out of range")
        if proof.system[just.row - 1] != ineq:
            return LineVerdict(idx, False, f"line differs from system row {just.row}")
        return LineVerdict(idx, True)
    if isinstance(just, BooleanAxiom):
        if not 1 <= just.var <= n:
            return LineVerdict(idx, False, f"axiom variable {just.var} out of range")
        if just.kind not in (BOOL_AXIOM_LO, BOOL_AXIOM_HI):
            return LineVerdict(idx, False, f"unknown axiom kind {just.kind!r}")
        if _boolean_axiom_ineq(n, just.var, just.kind) != ineq:
            return LineVerdict(idx, False, "line is not the claimed boolean axiom")
        return LineVerdict(idx, True)
    if isinstance(just, Addition):
        for ref in (just.left, just.right):
            if not 1 <= ref < idx:
                return LineVerdict(idx, False, f"addition references line {ref}")
        expected = proof.lines[just.left - 1].ineq.plus(proof.lines[just.right - 1].ineq)
        if expected != ineq:
            return LineVerdict(idx, False, "line is not the sum of its premises")
        return LineVerdict(idx, True)
    if isinstance(just, Division):
        if not 1 <= just.source < idx:
            return LineVerdict(idx, False, f"division references line {just.source}")
        if just.divisor < 1:
            return LineVerdict(idx, False, f"divisor {just.divisor} is not positive")
        source = proof.lines[just.source - 1].ineq
        try:
            expected = source.divided_by(just.divisor)
        except ValueError as exc:
            return LineVerdict(idx, False, str(exc))
        if expected != ineq:
            return LineVerdict(
                idx, False, "division result differs (constant rounds up)"
            )
        return LineVerdict(idx, True)
    return LineVerdict(idx, False, f"unknown justification {just!r}")


def check_cp_proof(proof: CpProof, weight_bound: int | None = None) -> CpCheckReport:
    """Verify every line against its justification; failures are verdicts."""
    verdicts = tuple(_check_line(proof, i) for i in range(1, len(proof.lines) + 1))
    all_valid = all(v.valid for v in verdicts)
    refutation = all_valid and any(
        is_refutation_terminal(line.ineq) for line in proof.lines
    )
    weight = proof_weight(proof)
    low = None if weight_bound is None else weight <= weight_bound
    return CpCheckReport(verdicts, all_valid, refutation, weight, weight_bound, low)


def proof_weight(proof: CpProof) -> int:
    """Max weight over all system rows and proof lines."""
    weights = [ineq.weight for ineq in proof.system]
    weights.extend(line.ineq.weight for line in proof.lines)
    return max(weights, default=0)


def default_weight_bound(n: int) -> int:
    return max(1, n**3)


def cp_lines_to_protocols(
    proof: CpProof, part: VariablePartition
) -> tuple[ProtocolTree, ...]:
    """One sum-announcing protocol per proof line, in line order."""
    return tuple(tree for _, tree in cp_proof_lines(proof, part))


def cp_proof_lines(
    proof: CpProof, part: VariablePartition
) -> list[tuple[SemanticLine, ProtocolTree]]:
    """Each proof line's row classes and protocol, in line order; a cap
    error names its line.
    """
    out = []
    for i, line in enumerate(proof.lines, start=1):
        try:
            out.append(inequality_line(line.ineq, part))
        except CapExceededError as exc:
            raise CapExceededError(f"line {i}: {exc}")
    return out


# --- proof text format ------------------------------------------------------
#
#   <idx>: <c_1> ... <c_n> >= <b> ; hyp <i> | bool <var> lo|hi
#                                  | add <j> <k> | div <j> <d>


def serialize_cp_lines(proof: CpProof) -> str:
    out = []
    for i, line in enumerate(proof.lines, start=1):
        coeffs = " ".join(str(c) for c in line.ineq.coeffs)
        just = line.justification
        if isinstance(just, Hypothesis):
            jtext = f"hyp {just.row}"
        elif isinstance(just, BooleanAxiom):
            jtext = f"bool {just.var} {just.kind}"
        elif isinstance(just, Addition):
            jtext = f"add {just.left} {just.right}"
        else:
            jtext = f"div {just.source} {just.divisor}"
        out.append(f"{i}: {coeffs} >= {line.ineq.constant} ; {jtext}")
    return "\n".join(out) + "\n"


def parse_cp_lines(text: str, n: int) -> tuple[ProofLine, ...]:
    lines: list[ProofLine] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        head, _, jtext = stripped.partition(";")
        if not jtext:
            raise ProofTextError(line_no, "missing ';' before the justification")
        idx_text, _, body = head.partition(":")
        try:
            idx = int(idx_text.strip())
        except ValueError:
            raise ProofTextError(line_no, f"bad line index {idx_text.strip()!r}")
        if idx != len(lines) + 1:
            raise ProofTextError(line_no, f"expected line index {len(lines) + 1}")
        tokens = body.split()
        if len(tokens) != n + 2 or tokens[n] != ">=":
            raise ProofTextError(line_no, f"expected {n} coefficients, '>=', constant")
        try:
            coeffs = tuple(int(t) for t in tokens[:n])
            constant = int(tokens[n + 1])
        except ValueError:
            raise ProofTextError(line_no, "coefficients must be integers")
        jtokens = jtext.split()
        just: Justification
        try:
            if jtokens[0] == "hyp" and len(jtokens) == 2:
                just = Hypothesis(int(jtokens[1]))
            elif jtokens[0] == "bool" and len(jtokens) == 3:
                just = BooleanAxiom(int(jtokens[1]), jtokens[2])
            elif jtokens[0] == "add" and len(jtokens) == 3:
                just = Addition(int(jtokens[1]), int(jtokens[2]))
            elif jtokens[0] == "div" and len(jtokens) == 3:
                just = Division(int(jtokens[1]), int(jtokens[2]))
            else:
                raise ProofTextError(line_no, f"bad justification {jtext.strip()!r}")
        except ValueError:
            raise ProofTextError(line_no, f"bad justification {jtext.strip()!r}")
        lines.append(ProofLine(LinearInequality(coeffs, constant), just))
    return tuple(lines)


# --- resolution refutations from DPLL ---------------------------------------


@dataclass(frozen=True)
class ResolutionLine:
    """A clause-shaped proof line; the empty set is the empty clause."""

    literals: frozenset[Literal]
    axiom: int | None = None
    premises: tuple[int, int] | None = None
    pivot: int | None = None


@dataclass(frozen=True)
class ResolutionRefutation:
    formula: CnfFormula
    lines: tuple[ResolutionLine, ...]

    @property
    def length(self) -> int:
        return len(self.lines)


def resolution_refutation_from_dpll(formula: CnfFormula) -> ResolutionRefutation:
    """Run DPLL with unit propagation and log every conflict resolution.

    The result starts with the formula's clauses (one axiom line each, in
    order), every later line resolves two earlier lines, and the final line
    is the empty clause. Raises SatisfiableError, carrying the witness, when
    the formula is satisfiable.
    """
    log: list[LogLine] = []
    witness = dpll(formula, log)
    if witness is not None:
        raise SatisfiableError("formula is satisfiable", witness)
    if log[-1][0]:
        raise AssertionError("DPLL refutation did not end in the empty clause")
    literal = {s: Literal.from_signed(s) for s in range(-formula.n, formula.n + 1) if s}
    return ResolutionRefutation(
        formula,
        tuple(
            ResolutionLine(
                frozenset(literal[s] for s in lits),
                i + 1 if premises is None else None,
                premises,
                pivot,
            )
            for i, (lits, premises, pivot) in enumerate(log)
        ),
    )


def resolution_problems(refutation: ResolutionRefutation) -> list[str]:
    """Structural defects of a resolution refutation; empty means valid."""
    problems = []
    formula = refutation.formula
    m = formula.m
    lines = refutation.lines
    if len(lines) < m:
        problems.append("refutation shorter than the clause list")
        return problems
    for i, line in enumerate(lines):
        if i < m:
            if line.axiom != i + 1:
                problems.append(f"line {i} is not axiom {i + 1}")
            elif line.literals != frozenset(formula.clauses[i].literals):
                problems.append(f"line {i} differs from clause {i + 1}")
            continue
        if line.premises is None or line.pivot is None:
            problems.append(f"line {i} has no resolvent justification")
            continue
        j, k = line.premises
        if not (0 <= j < i and 0 <= k < i):
            problems.append(f"line {i} references out-of-order premises")
            continue
        left, right = lines[j].literals, lines[k].literals
        clashes = {
            lit.var
            for lit in left
            if lit.negation() in right
        }
        if clashes != {line.pivot}:
            problems.append(
                f"line {i}: premises clash on {sorted(clashes)}, pivot {line.pivot}"
            )
            continue
        pos, neg = Literal(line.pivot, False), Literal(line.pivot, True)
        expected = (left | right) - {pos, neg}
        if line.literals != expected:
            problems.append(f"line {i} is not the resolvent of its premises")
    if lines[-1].literals:
        problems.append("final line is not the empty clause")
    return problems
