"""CNF formulas, assignments, variable partitions, DIMACS I/O, and a
deterministic DPLL solver that can log a resolution refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .bitops import bit_plane
from .errors import CapExceededError, DimacsError, NoViolationError, ScopeError
from .linear import LinearInequality

SOLVER_CAP = 24


@dataclass(frozen=True)
class Literal:
    var: int
    negated: bool = False

    def __post_init__(self):
        if self.var < 1:
            raise ValueError(f"variable index must be >= 1, got {self.var}")

    @property
    def signed(self) -> int:
        return -self.var if self.negated else self.var

    @classmethod
    def from_signed(cls, lit: int) -> "Literal":
        if lit == 0:
            raise ValueError("0 is not a literal")
        return cls(abs(lit), lit < 0)

    def negation(self) -> "Literal":
        return Literal(self.var, not self.negated)

    def satisfied_by(self, bit: int) -> bool:
        return bit == (0 if self.negated else 1)


@dataclass(frozen=True)
class Clause:
    literals: tuple[Literal, ...]

    def __post_init__(self):
        if not self.literals:
            raise ValueError("a clause must contain at least one literal")
        seen = set()
        for lit in self.literals:
            if lit.var in seen:
                raise ValueError(f"variable {lit.var} repeated within a clause")
            seen.add(lit.var)

    @classmethod
    def from_signed(cls, lits: Iterable[int]) -> "Clause":
        return cls(tuple(Literal.from_signed(x) for x in lits))

    @property
    def width(self) -> int:
        return len(self.literals)

    @cached_property
    def vars(self) -> frozenset[int]:
        return frozenset(lit.var for lit in self.literals)

    def signed(self) -> tuple[int, ...]:
        return tuple(lit.signed for lit in self.literals)

    def side_literals(self, side_vars: frozenset[int]) -> tuple[Literal, ...]:
        """The literals whose variables belong to the given side."""
        return tuple(lit for lit in self.literals if lit.var in side_vars)


@dataclass(frozen=True)
class CnfFormula:
    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        for idx, clause in enumerate(self.clauses, start=1):
            for lit in clause.literals:
                if lit.var > self.n:
                    raise ValueError(
                        f"clause {idx} mentions variable {lit.var} > n={self.n}"
                    )

    @property
    def m(self) -> int:
        return len(self.clauses)

    @property
    def width(self) -> int:
        """Max clause width, 0 for the empty formula."""
        return max((c.width for c in self.clauses), default=0)

    @property
    def density(self) -> Fraction:
        if self.n == 0:
            raise ValueError("density undefined for a formula with no variables")
        return Fraction(self.m, self.n)


@dataclass(frozen=True)
class Assignment:
    """Immutable partial 0/1 assignment, defined exactly on its scope."""

    items: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = 0
        for var, bit in self.items:
            if var <= prev:
                raise ValueError("assignment items must be sorted by distinct variable")
            if bit not in (0, 1):
                raise ValueError(f"assignment value for {var} must be 0 or 1")
            prev = var

    @classmethod
    def from_map(cls, mapping: Mapping[int, int]) -> "Assignment":
        return cls(tuple(sorted(mapping.items())))

    @cached_property
    def _map(self) -> dict[int, int]:
        return dict(self.items)

    @cached_property
    def scope(self) -> frozenset[int]:
        return frozenset(self._map)

    def bit(self, var: int) -> int:
        try:
            return self._map[var]
        except KeyError:
            raise ScopeError(f"variable {var} is outside the assignment scope")

    def as_map(self) -> dict[int, int]:
        return dict(self._map)

    def union(self, other: "Assignment") -> "Assignment":
        overlap = self.scope & other.scope
        for v in overlap:
            if self.bit(v) != other.bit(v):
                raise ValueError(f"conflicting values for variable {v}")
        merged = self.as_map()
        merged.update(other._map)
        return Assignment.from_map(merged)

    @classmethod
    def from_index(cls, variables: Sequence[int], index: int) -> "Assignment":
        """Decode an integer into bits over ``variables``, first variable most
        significant, so index order is lexicographic order of the bit string.
        """
        k = len(variables)
        if not 0 <= index < (1 << k):
            raise ValueError(f"index {index} out of range for {k} variables")
        return cls.from_map(
            {v: (index >> (k - 1 - i)) & 1 for i, v in enumerate(variables)}
        )

    def to_index(self, variables: Sequence[int]) -> int:
        k = len(variables)
        index = 0
        for i, v in enumerate(variables):
            index |= self.bit(v) << (k - 1 - i)
        return index

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={b}" for v, b in self.items)
        return f"Assignment({inner})"


@dataclass(frozen=True)
class VariablePartition:
    """Split of the variables 1..n into Alice's X side and Bob's Y side."""

    xvars: tuple[int, ...]
    yvars: tuple[int, ...]

    def __post_init__(self):
        xs, ys = set(self.xvars), set(self.yvars)
        if len(xs) != len(self.xvars) or len(ys) != len(self.yvars):
            raise ValueError("partition sides must not repeat variables")
        if xs & ys:
            raise ValueError(f"partition sides overlap on {sorted(xs & ys)}")
        n = len(xs) + len(ys)
        if xs | ys != set(range(1, n + 1)):
            raise ValueError("partition must cover exactly the variables 1..n")

    @property
    def n(self) -> int:
        return len(self.xvars) + len(self.yvars)

    @property
    def n1(self) -> int:
        return len(self.xvars)

    @property
    def n2(self) -> int:
        return len(self.yvars)

    @cached_property
    def xset(self) -> frozenset[int]:
        return frozenset(self.xvars)

    @cached_property
    def yset(self) -> frozenset[int]:
        return frozenset(self.yvars)

    def check_exact_sides(self, x: Assignment, y: Assignment) -> None:
        """Raise ``ScopeError`` unless x assigns exactly the X side and y
        exactly the Y side.
        """
        if x.scope != self.xset:
            raise ScopeError("x must be scoped exactly to the partition's X side")
        if y.scope != self.yset:
            raise ScopeError("y must be scoped exactly to the partition's Y side")

    @classmethod
    def alternating(cls, n: int) -> "VariablePartition":
        """Odd indices to X, even indices to Y."""
        return cls(tuple(range(1, n + 1, 2)), tuple(range(2, n + 1, 2)))

    @cached_property
    def var_masks(self) -> dict[int, int]:
        """Per variable, the mask of its side's indices where it is 1, in
        ``Assignment.from_index`` order (first variable most significant).
        """
        masks = {}
        for side in (self.xvars, self.yvars):
            k = len(side)
            for p, v in enumerate(side):
                masks[v] = bit_plane(k - 1 - p, k)
        return masks

    def partial_sums(self, coeffs: Sequence[int]) -> tuple[list[int], list[int]]:
        """Every X index's and every Y index's sum of ``coeffs[v - 1]`` over
        the side variables v set to 1. Doubling in from the last variable,
        the lowest index bit, keeps ``Assignment.from_index`` order.
        """

        def side_sums(side: tuple[int, ...]) -> list[int]:
            sums = [0]
            for v in reversed(side):
                c = coeffs[v - 1]
                sums += [s + c for s in sums]
            return sums

        return side_sums(self.xvars), side_sums(self.yvars)

    def x_assignment(self, index: int) -> Assignment:
        return Assignment.from_index(self.xvars, index)

    def y_assignment(self, index: int) -> Assignment:
        return Assignment.from_index(self.yvars, index)


def eval_clause(clause: Clause, assignment: Assignment) -> bool:
    """True iff some literal of the clause is satisfied."""
    for lit in clause.literals:
        if lit.satisfied_by(assignment.bit(lit.var)):
            return True
    return False


def clause_to_inequality(clause: Clause, n: int) -> LinearInequality:
    """Encode a clause: +1 for positive literals, -1 for negated ones, and
    constant ``1 - #negated`` (the negation constants move to the right).
    """
    coeffs = [0] * n
    negated = 0
    for lit in clause.literals:
        if lit.var > n:
            raise ValueError(f"clause variable {lit.var} > n={n}")
        if lit.negated:
            coeffs[lit.var - 1] = -1
            negated += 1
        else:
            coeffs[lit.var - 1] = 1
    return LinearInequality(tuple(coeffs), 1 - negated)


def formula_to_system(formula: CnfFormula) -> tuple[LinearInequality, ...]:
    return tuple(clause_to_inequality(c, formula.n) for c in formula.clauses)


def search_violation(
    formula: CnfFormula,
    part: VariablePartition,
    x: Assignment,
    y: Assignment,
) -> int:
    """Smallest 1-based index of a clause falsified by the joint assignment."""
    part.check_exact_sides(x, y)
    joint = x.union(y)
    for i, clause in enumerate(formula.clauses, start=1):
        if not eval_clause(clause, joint):
            return i
    raise NoViolationError("no clause is violated by this joint assignment")


# --- DIMACS ---------------------------------------------------------------


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF. Comments are skipped, the clause count is checked
    strictly, and every error carries the offending line number.
    """
    n = m = -1
    clauses: list[Clause] = []
    current: list[int] = []
    current_vars: set[int] = set()
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n >= 0:
                raise DimacsError(line_no, "duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(line_no, f"malformed header {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(line_no, f"malformed header {line!r}")
            if n < 0 or m < 0:
                raise DimacsError(line_no, "header counts must be nonnegative")
            continue
        if n < 0:
            raise DimacsError(line_no, "clause data before header")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(line_no, f"bad token {token!r}")
            if lit == 0:
                if not current:
                    raise DimacsError(line_no, "empty clause")
                clauses.append(Clause.from_signed(current))
                current = []
                current_vars = set()
                continue
            var = abs(lit)
            if var > n:
                raise DimacsError(line_no, f"literal {lit} out of range (n={n})")
            if var in current_vars:
                raise DimacsError(line_no, f"variable {var} repeated in clause")
            current_vars.add(var)
            current.append(lit)
    if n < 0:
        raise DimacsError(last_line or 1, "missing header")
    if current:
        raise DimacsError(last_line, "unterminated clause at end of input")
    if len(clauses) != m:
        raise DimacsError(
            last_line, f"header declares {m} clauses but {len(clauses)} were read"
        )
    return CnfFormula(n, tuple(clauses))


def serialize_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.n} {formula.m}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(s) for s in clause.signed()) + " 0")
    return "\n".join(lines) + "\n"


# --- DPLL ------------------------------------------------------------------

# One line of a resolution log: the clause as signed literals, then the two
# premise lines and the pivot variable, both None for an axiom.
LogLine = tuple[frozenset[int], tuple[int, int] | None, int | None]


def dpll(formula: CnfFormula, log: list[LogLine] | None = None) -> Assignment | None:
    """Deterministic DPLL with unit propagation over clause bitmasks.

    Propagation works in rounds: the lowest-index falsified clause is a
    conflict, otherwise the lowest-index unit clause is assigned. Branching
    takes the smallest unassigned variable, value 0 before 1, so a
    satisfiable formula yields the lexicographically least witness (free
    variables completed with 0). Returns None when unsatisfiable.

    Given an empty list as ``log``, the search first appends one axiom line
    per clause, in order, then every resolvent of its conflict analysis,
    each clause at most once; an unsatisfiable formula's log ends in the
    empty clause.

    The state is a few ints: bit ci of a clause set stands for clause ci,
    and bit v of a variable set for variable v. ``free`` holds each clause's
    count of unassigned literals bit-sliced, plane b holding bit b of every
    count. A call never changes its caller's ints, so backtracking is
    returning to them.
    """
    if formula.n > SOLVER_CAP:
        raise CapExceededError(f"n={formula.n} exceeds solver cap {SOLVER_CAP}")
    n, m = formula.n, formula.m
    clause_lits = [c.signed() for c in formula.clauses]
    occ = [0] * (2 * n + 1)  # literal -> its clauses; -v indexes from the end
    clause_vars = [0] * m  # clause -> its variables
    clause_pos = [0] * m  # clause -> its positive variables
    free = [0] * max(1, formula.width.bit_length())
    for ci, lits in enumerate(clause_lits):
        bit = 1 << ci
        for lit in lits:
            occ[lit] |= bit
            clause_vars[ci] |= 1 << abs(lit)
            if lit > 0:
                clause_pos[ci] |= 1 << lit
        for b in range(len(free)):
            if len(lits) >> b & 1:
                free[b] |= bit
    everything = (1 << m) - 1
    index_of: dict[frozenset[int], int] = {}
    if log is not None:
        for ci, lits in enumerate(clause_lits):
            log.append((frozenset(lits), None, None))
            index_of.setdefault(log[-1][0], ci)

    def assign(lit: int, sat: int, free: list[int]) -> tuple[int, list[int], int]:
        """Make ``lit`` true: the satisfied clauses, the free planes with one
        borrow chain subtracting 1 from every clause of ``lit`` or ``-lit``,
        and the clauses this falsifies.
        """
        hit = occ[lit]
        borrow = hit | occ[-lit]
        planes = []
        left = 0  # clauses with a free literal left
        for plane in free:
            plane ^= borrow
            borrow &= plane
            planes.append(plane)
            left |= plane
        return sat | hit, planes, occ[-lit] & ~sat & ~left

    def lowest(clauses: int) -> int:
        return (clauses & -clauses).bit_length() - 1

    def emit(lits: frozenset[int], premises: tuple[int, int], pivot: int) -> int:
        if lits not in index_of:
            index_of[lits] = len(log)
            log.append((lits, premises, pivot))
        return index_of[lits]

    def resolve_away(start: int, trail: list[tuple[int, int]]) -> int:
        """Resolve a clause falsified under the current state against this
        call's propagation reasons, newest first, until it is falsified under
        the state at call entry.
        """
        cur_idx, cur = start, log[start][0]
        for lit, reason in reversed(trail):
            if -lit in cur:
                cur = (cur - {-lit}) | (log[reason][0] - {lit})
                cur_idx = emit(cur, (cur_idx, reason), abs(lit))
        return cur_idx

    def search(sat: int, free: list[int], assigned: int, ones: int) -> Assignment | int:
        """Propagate the unit clauses of the given state, then branch on
        ``assigned``'s lowest clear bit (bit 0 is always set). Returns a
        witness or, with the log, the line of a clause falsified under the
        state at entry.
        """
        trail: list[tuple[int, int]] = []  # (assigned literal, reason clause)
        outcome: Assignment | int = -1
        while True:
            several = 0  # clauses with two or more free literals
            for plane in free[1:]:
                several |= plane
            units = free[0] & ~several & ~sat
            if not units:
                break
            ci = lowest(units)
            var = (clause_vars[ci] & ~assigned).bit_length() - 1
            lit = var if clause_pos[ci] >> var & 1 else -var
            trail.append((lit, ci))
            sat, free, conflict = assign(lit, sat, free)
            assigned |= 1 << var
            if lit > 0:
                ones |= 1 << var
            if conflict:
                outcome = lowest(conflict)
                break
        if outcome == -1 and sat == everything:
            outcome = Assignment.from_map(
                {v: ones >> v & 1 for v in range(1, n + 1)}
            )
        elif outcome == -1:
            var = (~assigned & (assigned + 1)).bit_length() - 1
            refuted = []
            for lit in (-var, var):
                # at the fixpoint open clauses have two free literals: no conflict
                branch_sat, branch_free, _ = assign(lit, sat, free)
                outcome = search(
                    branch_sat,
                    branch_free,
                    assigned | 1 << var,
                    ones | (1 << var) if lit > 0 else ones,
                )
                if isinstance(outcome, Assignment):
                    break
                if log is not None and -lit not in log[outcome][0]:
                    break  # refuted without this decision
                refuted.append(outcome)
            else:
                if log is not None:
                    low, high = refuted
                    outcome = emit(
                        (log[low][0] - {var}) | (log[high][0] - {-var}),
                        (low, high),
                        var,
                    )
        if log is not None and not isinstance(outcome, Assignment):
            outcome = resolve_away(outcome, trail)
        return outcome

    outcome = search(0, free, 1, 0)
    return outcome if isinstance(outcome, Assignment) else None


def brute_force_sat(formula: CnfFormula) -> Assignment | None:
    """The lexicographically least satisfying assignment (see ``dpll``), or
    None when the formula is unsatisfiable.
    """
    return dpll(formula)
