"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: clause
checks are bitmask comparisons over enumerated assignments, satisfiability is
pure enumeration, rationals are handled as raw numerator/denominator pairs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from heapq import heappop, heappush
from itertools import product

from proofbench.cnf import SOLVER_CAP, Assignment, CnfFormula, LogLine
from proofbench.errors import CapExceededError


def clause_bitmasks(formula: CnfFormula) -> list[tuple[int, int]]:
    """(mask, falsifying pattern) per clause; assignment bit v-1 is var v."""
    out = []
    for clause in formula.clauses:
        mask = pattern = 0
        for lit in clause.literals:
            bit = 1 << (lit.var - 1)
            mask |= bit
            if lit.negated:
                pattern |= bit
        out.append((mask, pattern))
    return out


def satisfies_all(alpha: int, masks: list[tuple[int, int]]) -> bool:
    return all(alpha & mask != pattern for mask, pattern in masks)


def exhaustive_sat(formula: CnfFormula) -> Assignment | None:
    """Enumerate assignments in lexicographic order of (x1, x2, ...)."""
    masks = clause_bitmasks(formula)
    n = formula.n
    for lex in range(1 << n):
        # lex order over the tuple (bit of var 1, bit of var 2, ...)
        alpha = 0
        for v in range(n):
            if (lex >> (n - 1 - v)) & 1:
                alpha |= 1 << v
        if satisfies_all(alpha, masks):
            return Assignment.from_map(
                {v + 1: (alpha >> v) & 1 for v in range(n)}
            )
    return None


def count_satisfying(formula: CnfFormula) -> int:
    masks = clause_bitmasks(formula)
    return sum(
        1 for alpha in range(1 << formula.n) if satisfies_all(alpha, masks)
    )


def random_formula(
    rng: random.Random, n: int, m: int, max_width: int = 3
) -> CnfFormula:
    """Arbitrary-width random formula, independent of the library sampler."""
    from proofbench.cnf import Clause, Literal

    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(n, max_width))
        variables = rng.sample(range(1, n + 1), width)
        lits = tuple(
            Literal(v, rng.random() < 0.5) for v in sorted(variables)
        )
        clauses.append(Clause(lits))
    return CnfFormula(n, tuple(clauses))


def dpll_oracle(
    formula: CnfFormula, log: list[LogLine] | None = None
) -> Assignment | None:
    """Deterministic DPLL with unit propagation over clause counters, the
    search that ``cnf.dpll``'s bitsets replaced: per-clause counters, a heap
    of pending units, and an ``unassign`` per literal on the way back.
    ``cnf.dpll`` must return the same witness and write the same log.

    Propagation works in rounds: the lowest-index falsified clause is a
    conflict, otherwise the lowest-index unit clause is assigned. Branching
    takes the smallest unassigned variable, value 0 before 1, so a
    satisfiable formula yields the lexicographically least witness (free
    variables completed with 0). Returns None when unsatisfiable.

    Given an empty list as ``log``, the search first appends one axiom line
    per clause, in order, then every resolvent of its conflict analysis,
    each clause at most once; an unsatisfiable formula's log ends in the
    empty clause.
    """
    if formula.n > SOLVER_CAP:
        raise CapExceededError(f"n={formula.n} exceeds solver cap {SOLVER_CAP}")
    n, m = formula.n, formula.m
    clause_lits = [c.signed() for c in formula.clauses]
    occ: dict[int, list[int]] = {}  # literal -> its clauses, in clause order
    for ci, lits in enumerate(clause_lits):
        for lit in lits:
            occ.setdefault(lit, []).append(ci)

    value: list[int | None] = [None] * (n + 1)
    sat_count = [0] * m
    free_count = [len(lits) for lits in clause_lits]
    satisfied_clauses = 0
    index_of: dict[frozenset[int], int] = {}
    if log is not None:
        for ci, lits in enumerate(clause_lits):
            log.append((frozenset(lits), None, None))
            index_of.setdefault(log[-1][0], ci)

    def assign(lit: int, units: list[int]) -> int:
        """Make ``lit`` true and push the clauses it leaves unit onto the heap
        ``units``. Returns the lowest-index clause it falsifies, or -1.
        """
        nonlocal satisfied_clauses
        value[abs(lit)] = 1 if lit > 0 else 0
        for ci in occ.get(lit, ()):
            if sat_count[ci] == 0:
                satisfied_clauses += 1
            sat_count[ci] += 1
            free_count[ci] -= 1
        conflict = -1
        for ci in occ.get(-lit, ()):
            free_count[ci] -= 1
            if sat_count[ci] == 0:
                if free_count[ci] == 1:
                    heappush(units, ci)
                elif free_count[ci] == 0 and conflict < 0:
                    conflict = ci
        return conflict

    def unassign(lit: int) -> None:
        nonlocal satisfied_clauses
        value[abs(lit)] = None
        for ci in occ.get(lit, ()):
            sat_count[ci] -= 1
            if sat_count[ci] == 0:
                satisfied_clauses -= 1
            free_count[ci] += 1
        for ci in occ.get(-lit, ()):
            free_count[ci] += 1

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

    def search(units: list[int]) -> Assignment | int:
        """Propagate the pending ``units``, then branch. Returns a witness or,
        with the log, the line of a clause falsified under the state at entry.
        """
        trail: list[tuple[int, int]] = []  # (assigned literal, reason clause)
        outcome: Assignment | int = -1
        while units:
            ci = heappop(units)
            if sat_count[ci] or free_count[ci] != 1:
                continue  # satisfied since it was pushed
            lit = next(x for x in clause_lits[ci] if value[abs(x)] is None)
            trail.append((lit, ci))
            outcome = assign(lit, units)
            if outcome >= 0:
                break
        if outcome == -1 and satisfied_clauses == m:
            outcome = Assignment.from_map(
                {v: value[v] or 0 for v in range(1, n + 1)}
            )
        elif outcome == -1:
            var = value.index(None, 1)
            refuted = []
            for lit in (-var, var):
                branch_units: list[int] = []
                conflict = assign(lit, branch_units)
                outcome = search(branch_units) if conflict < 0 else conflict
                unassign(lit)
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
        for lit, _ in reversed(trail):
            unassign(lit)
        return outcome

    outcome = search([ci for ci in range(m) if free_count[ci] == 1])
    return outcome if isinstance(outcome, Assignment) else None


def unsat_3cnfs() -> list[tuple[str, CnfFormula]]:
    """Two unsatisfiable random 3-CNFs at each of n=8, 10, 12 (m=60, 90,
    120), the first unsatisfiable draws of a seeded stream per size.
    """
    from proofbench.cnf import Clause, Literal

    batch = []
    for n, m in ((8, 60), (10, 90), (12, 120)):
        rng = random.Random(n)
        found = 0
        while found < 2:
            clauses = tuple(
                Clause(tuple(Literal(v, rng.random() < 0.5) for v in sorted(vs)))
                for vs in (rng.sample(range(1, n + 1), 3) for _ in range(m))
            )
            formula = CnfFormula(n, clauses)
            if not count_satisfying(formula):
                batch.append((f"n{n}-{found}", formula))
                found += 1
    return batch


# --- raw rational arithmetic (numerator, denominator) -----------------------


def rat(num: int, den: int) -> tuple[int, int]:
    if den == 0:
        raise ZeroDivisionError
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den) or 1
    return num // g, den // g


def rat_min(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a if a[0] * b[1] <= b[0] * a[1] else b


def rat_max(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a if a[0] * b[1] >= b[0] * a[1] else b


def separator_bound_oracle(
    u_size: int, v_size: int, a1_1: int, a1_r: int, a0_s: int, r: int, s: int
) -> tuple[int, int]:
    """Same bound as the library, computed over raw num/den pairs."""
    first = rat(u_size - 2 * s * a1_1, (2 * s) ** (r + 1) * a1_r)
    second = rat(v_size, (2 * r) ** (s + 1) * a0_s)
    return rat_max((0, 1), rat_min(first, second))


# --- protocol oracle ----------------------------------------------------------


def good_histories_oracle(tree, line, part) -> list[str]:
    """Group every input pair by its run history, then test 0-monochromaticity
    with a double loop; histories reached by nobody count as good.
    """
    from proofbench.protocol import run_protocol

    reached: dict[str, list[tuple[int, int]]] = {}
    for x_idx in range(1 << part.n1):
        for y_idx in range(1 << part.n2):
            h, _ = run_protocol(
                tree, part.x_assignment(x_idx), part.y_assignment(y_idx)
            )
            reached.setdefault(h, []).append((x_idx, y_idx))
    goods = []
    for bits in product("01", repeat=tree.depth):
        h = "".join(bits)
        pairs = reached.get(h, [])
        if all(line.value(x, y) == 0 for x, y in pairs):
            goods.append(h)
    return goods


def table_oracle(part, holds) -> int:
    """The truth table of ``holds`` on the variable-to-bit map of every joint
    input, bit ``(x << n2) | y`` for side indices in ``Assignment.from_index``
    order.
    """
    xs = [Assignment.from_index(part.xvars, i).as_map() for i in range(1 << part.n1)]
    ys = [Assignment.from_index(part.yvars, i).as_map() for i in range(1 << part.n2)]
    bits = 0
    for x, xmap in enumerate(xs):
        for y, ymap in enumerate(ys):
            if holds(xmap | ymap):
                bits |= 1 << ((x << part.n2) | y)
    return bits


# --- report kernel oracles -----------------------------------------------------
# The exhaustive loops that the stats reports ran before their kernels.


def min_pair_union_oracle(var_sets: list[frozenset[int]]) -> int:
    """The expansion report's size-2 minimum: every pair's union."""
    m = len(var_sets)
    return min(
        len(var_sets[i] | var_sets[j])
        for i in range(m)
        for j in range(i + 1, m)
    )


def sampled_min_union_oracle(
    var_sets: list[frozenset[int]], s: int, trials: int, seed: int
) -> int:
    """The expansion report's sampled size-s minimum: the same subset draws,
    each covered by a frozenset union.
    """
    from proofbench.randomcnf import derive_seed

    m = len(var_sets)
    rng = random.Random(derive_seed(seed, "expansion", s))
    min_vars = None
    for _ in range(trials):
        subset = rng.sample(range(m), s)
        count = len(frozenset().union(*(var_sets[i] for i in subset)))
        if min_vars is None or count < min_vars:
            min_vars = count
    return min_vars


def profile_oracle(formula: CnfFormula) -> tuple[int, tuple[int, int] | None]:
    """(collisions, witness) of the exact profiles report: one profile list
    per assignment, filled clause by clause, then compared in index order.
    """
    n = formula.n
    masks = clause_bitmasks(formula)
    profiles: list[list[int]] = [[] for _ in range(1 << n)]
    all_vars = (1 << n) - 1
    for i, (mask, pattern) in enumerate(masks):
        # Falsifying assignments form a subcube: pattern on the clause's
        # variables, anything elsewhere. Walk its submasks directly.
        free = all_vars & ~mask
        sub = free
        while True:
            profiles[pattern | sub].append(i)
            if sub == 0:
                break
            sub = (sub - 1) & free
    seen: dict[tuple[int, ...], int] = {}
    collisions = 0
    witness = None
    for alpha, profile in enumerate(profiles):
        key = tuple(profile)  # indices arrive in increasing order
        if key in seen:
            collisions += 1
            if witness is None:
                witness = (seen[key], alpha)
        else:
            seen[key] = alpha
    return collisions, witness


def sampled_profiles_oracle(
    formula: CnfFormula, seed: int, trials: int
) -> tuple[int, tuple[int, int] | None, int]:
    """(collisions, witness, rows_checked) of the sampled profiles report:
    the same pair draws, each assignment's profile a frozenset of the
    clauses it falsifies. A pair of equal draws is skipped, as the report
    skips it.
    """
    from proofbench.randomcnf import derive_seed

    masks = clause_bitmasks(formula)

    def profile_of(alpha: int) -> frozenset[int]:
        return frozenset(
            i for i, (mask, pattern) in enumerate(masks) if alpha & mask == pattern
        )

    rng = random.Random(derive_seed(seed, "profiles"))
    collisions = 0
    witness = None
    for _ in range(trials):
        a = rng.getrandbits(formula.n)
        b = rng.getrandbits(formula.n)
        if a == b:
            continue
        if profile_of(a) == profile_of(b):
            collisions += 1
            if witness is None:
                witness = (a, b)
    return collisions, witness, trials


def heavy_sat_oracle(formula: CnfFormula, part, side: str, epsilon) -> Fraction:
    """The exact heavy-sat fraction: every side assignment against every
    heavy clause, bit i of an assignment being the i-th side variable.
    """
    side_vars = part.xvars if side == "x" else part.yvars
    side_set = set(side_vars)
    cut = (1 - Fraction(epsilon)) * formula.width
    position = {v: i for i, v in enumerate(side_vars)}
    checks = []
    for clause in formula.clauses:
        on_side = [lit for lit in clause.literals if lit.var in side_set]
        if len(on_side) > cut:
            mask = pattern = 0
            for lit in on_side:
                mask |= 1 << position[lit.var]
                if lit.negated:
                    pattern |= 1 << position[lit.var]
            checks.append((mask, pattern))
    k = len(side_vars)
    good = sum(
        1
        for a in range(1 << k)
        if all(a & mask != pattern for mask, pattern in checks)
    )
    return Fraction(good, 1 << k)


def heavy_side_counts_oracle(formula: CnfFormula, part, epsilon):
    """``heavy_side_counts`` comparing each count with the Fraction cut."""
    d = formula.width
    cut = (1 - Fraction(epsilon)) * d
    z_x = z_y = 0
    incidence: dict[int, int] = {}
    for clause in formula.clauses:
        x_count = len(clause.vars & part.xset)
        y_count = len(clause.vars & part.yset)
        if x_count > cut:
            z_x += 1
            for v in clause.vars & part.xset:
                incidence[v] = incidence.get(v, 0) + 1
        if y_count > cut:
            z_y += 1
            for v in clause.vars & part.yset:
                incidence[v] = incidence.get(v, 0) + 1
    return z_x, z_y, max(incidence.values(), default=0)


# --- sampler oracles ------------------------------------------------------------
# The clause sampler before it shared one variable pool per call (a fresh pool
# per clause), and sampled agreement counts, all drawn by the stdlib's
# ``randrange`` and ``sample`` that randomcnf's draws on ``getrandbits`` copy.


def sample_clause_oracle(rng: random.Random, n: int, d: int, shift: int = 0):
    from proofbench.cnf import Clause, Literal

    pool = list(range(1, n + 1))
    for t in range(d):
        j = rng.randrange(t, n)
        pool[t], pool[j] = pool[j], pool[t]
    lits = [Literal(v + shift, bool(rng.getrandbits(1))) for v in pool[:d]]
    lits.sort(key=lambda lit: lit.var)
    return Clause(tuple(lits))


def sample_f_oracle(params) -> CnfFormula:
    rng = random.Random(params.seed)
    clauses = tuple(
        sample_clause_oracle(rng, params.n, params.d) for _ in range(params.m)
    )
    return CnfFormula(params.n, clauses)


def sample_tensor_oracle(params) -> CnfFormula:
    from proofbench.cnf import Clause
    from proofbench.randomcnf import derive_seed

    rng_x = random.Random(derive_seed(params.seed, "tensor-x"))
    rng_y = random.Random(derive_seed(params.seed, "tensor-y"))
    n, d = params.n, params.d
    clauses = []
    for _ in range(params.m):
        left = sample_clause_oracle(rng_x, n, d)
        right = sample_clause_oracle(rng_y, n, d, shift=n)
        clauses.append(Clause(left.literals + right.literals))
    return CnfFormula(2 * n, tuple(clauses))


def sampled_agreement_oracle(insts, r: int, b: int, trials: int, seed: int) -> int:
    """agreement_count's sampled value: the same position subsets, drawn by
    the stdlib's ``Random.sample``, each checked instance by instance.
    """
    n = insts[0].graph.size
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        combo = rng.sample(range(n), r)
        best = max(best, sum(all(x.bit(p) == b for p in combo) for x in insts))
    return best


# --- extraction oracle ----------------------------------------------------------
# The table-based check that extraction ran before it checked rectangle covers.


def semantic_step_oracle(f, g, h) -> bool:
    """``check_semantic_step`` on truth tables: no joint input where f and g
    are 1 and h is 0.
    """
    if not (f.n1 == g.n1 == h.n1 and f.n2 == g.n2 == h.n2):
        raise ValueError("semantic step requires identical table dimensions")
    return (f.bits & g.bits & ~h.bits) & ((1 << f.size) - 1) == 0


def extraction_oracle(circuit, formula: CnfFormula, part, val_u, val_v):
    """(report, lines) of the extraction from side masks: one 2^n-bit table
    per gate, 0 exactly where the gate accepts U(x) and rejects V(y), and
    every entailment checked on tables by ``semantic_step_oracle``.
    """
    from proofbench.circuit import ExtractionReport
    from proofbench.gates import ConstGate, InputGate
    from proofbench.semantics import SemanticLine

    n1, n2 = part.n1, part.n2
    yfull = (1 << (1 << n2)) - 1
    full = (1 << (1 << part.n)) - 1
    lines = []
    for vu, vv in zip(val_u, val_v):
        zero = 0
        for x in range(1 << n1):
            if (vu >> x) & 1:
                zero |= (~vv & yfull) << (x << n2)
        lines.append(SemanticLine.from_bits(n1, n2, full ^ zero))
    clause_tables = [SemanticLine.from_clause(c, part) for c in formula.clauses]

    problems = []
    leaf_ok = internal_ok = const_ok = True
    for g, gate in enumerate(circuit.gates):
        if isinstance(gate, InputGate):
            axiom = clause_tables[gate.constraint - 1]
            if not semantic_step_oracle(axiom, axiom, lines[g]):
                leaf_ok = False
                problems.append(f"gate {g}: line not entailed by clause axiom")
        elif isinstance(gate, ConstGate):
            if lines[g].bits != full:
                const_ok = False
                problems.append(f"gate {g}: constant gate line is not constant 1")
        elif not semantic_step_oracle(lines[gate.left], lines[gate.right], lines[g]):
            internal_ok = False
            problems.append(f"gate {g}: line not entailed by its children")
    root_zero = lines[circuit.output].bits == 0
    if not root_zero:
        problems.append("output gate's line is not constant 0")
    report = ExtractionReport(
        line_count=len(lines),
        leaf_entailments_ok=leaf_ok,
        internal_entailments_ok=internal_ok,
        constant_lines_ok=const_ok,
        root_constant_zero=root_zero,
        all_ok=not problems,
        problems=tuple(problems),
    )
    return report, tuple(lines)


# --- protocol tree oracle -------------------------------------------------------
# Trees as string-keyed dicts, the way the library stored them before its trees
# became heap-ordered tuples, with the string walks that read them.


class DictTree:
    """A protocol tree whose nodes are addressed by transcript strings."""

    def __init__(self, part, depth, owners, preds, outputs):
        self.part, self.depth = part, depth
        self.owners, self.preds, self.outputs = owners, preds, outputs

    def owner_at(self, prefix: str) -> str:
        return self.owners[prefix]

    def predicate_at(self, prefix: str) -> int:
        return self.preds[prefix]

    def output_at(self, history: str) -> int:
        return self.outputs[history]


def clause_tree_oracle(clause, part) -> DictTree:
    """The two-bit clause protocol, its predicates read off enumerated
    assignments: a player sends 1 iff one of their literals is true.
    """

    def pred(side_vars, assignment):
        on_side = [lit for lit in clause.literals if lit.var in side_vars]
        return sum(
            1 << idx
            for idx in range(1 << len(side_vars))
            if any(lit.satisfied_by(assignment(idx).bit(lit.var)) for lit in on_side)
        )

    alice = pred(part.xvars, part.x_assignment)
    bob = pred(part.yvars, part.y_assignment)
    owners = {"": "alice", "0": "bob", "1": "bob"}
    preds = {"": alice, "0": bob, "1": bob}
    outputs = {h: int(h != "00") for h in ("00", "01", "10", "11")}
    return DictTree(part, 2, owners, preds, outputs)


def inequality_tree_oracle(ineq, part) -> DictTree:
    """Alice's partial sum in offset binary, then one Bob bit: the library's
    construction over string prefixes, one dict entry per node.
    """
    from proofbench.bitops import value_masks

    asums, bsums = part.partial_sums(ineq.coeffs)
    amin, amax = min(asums), max(asums)
    by_asum, by_bsum = value_masks(asums), value_masks(bsums)
    if amin == amax and len(by_bsum) == 1:
        return DictTree(part, 0, {}, {}, {"": int(amin + bsums[0] >= ineq.constant)})
    w = (amax - amin).bit_length() if amax > amin else 0
    owners, preds = {}, {}
    for level in range(w):
        shift = w - 1 - level
        mask = sum(xm for a, xm in by_asum.items() if ((a - amin) >> shift) & 1)
        for prefix in product("01", repeat=level):
            owners["".join(prefix)] = "alice"
            preds["".join(prefix)] = mask
    for prefix in product("01", repeat=w):
        p = "".join(prefix)
        announced = amin + (int(p, 2) if p else 0)
        owners[p] = "bob"
        preds[p] = sum(ym for b, ym in by_bsum.items() if announced + b >= ineq.constant)
    outputs = {"".join(h): int(h[-1]) for h in product("01", repeat=w + 1)}
    return DictTree(part, w + 1, owners, preds, outputs)


def history_masks_oracle(tree, history: str) -> tuple[int, int]:
    xfull, yfull = (1 << (1 << tree.part.n1)) - 1, (1 << (1 << tree.part.n2)) - 1
    xmask, ymask = xfull, yfull
    for i, bit in enumerate(history):
        pred = tree.predicate_at(history[:i])
        if tree.owner_at(history[:i]) == "alice":
            xmask &= pred if bit == "1" else ~pred & xfull
        else:
            ymask &= pred if bit == "1" else ~pred & yfull
    return xmask, ymask


def full_history_masks_oracle(tree) -> dict[str, tuple[int, int]]:
    return {
        "".join(h): history_masks_oracle(tree, "".join(h))
        for h in product("01", repeat=tree.depth)
    }


def run_protocol_oracle(tree, x_idx: int, y_idx: int) -> tuple[str, int]:
    history = ""
    for _ in range(tree.depth):
        idx = x_idx if tree.owner_at(history) == "alice" else y_idx
        history += str((tree.predicate_at(history) >> idx) & 1)
    return history, tree.output_at(history)


# --- compile oracle -------------------------------------------------------------
# Compile's stacked-tree walk before its memos: every node of every good
# history's stacked tree, on string prefixes, recorded with its masks.


def plain_walk_oracle(lines, formula: CnfFormula, part):
    """(circuit, entries, report, node records) of the unmemoized walk, which
    reads the trees only through their string API. A record is the tuple
    (line index, history, stacked prefix, gate, x mask, y mask) of one node,
    its masks those of the triple intersection.
    """
    from proofbench.circuit import (
        CircuitBuilder,
        CompiledLineCircuit,
        CompileReport,
        _validate_refutation,
    )
    from proofbench.errors import SoundnessError
    from proofbench.protocol import ALICE, check_side_cap, full_history_masks
    from proofbench.semantics import rectangle_bits

    check_side_cap(part)
    _validate_refutation(lines, formula, part)
    good_per_line = []
    for i, ln in enumerate(lines):
        masks = full_history_masks(ln.tree)
        good = []
        for h in sorted(masks):
            xm, ym = masks[h]
            rect = rectangle_bits(xm, ym, part.n2)
            ones = ln.table.bits & rect
            if ones != (rect if ln.tree.output_at(h) else 0):
                raise SoundnessError(f"line {i}: protocol tree disagrees with the table")
            if ones == 0:
                good.append((h, xm, ym))
        good_per_line.append(good)

    builder = CircuitBuilder()
    built: dict[tuple[int, str], int] = {}
    entries, records = [], []
    xfull, yfull = (1 << (1 << part.n1)) - 1, (1 << (1 << part.n2)) - 1

    def walk(i, prefix, xm, ym, h):
        j, k = lines[i].premises
        tj, tk = lines[j].tree, lines[k].tree
        dj = tj.depth
        if len(prefix) == dj + tk.depth:
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
            tree, at = (tj, prefix) if len(prefix) < dj else (tk, prefix[dj:])
            pred = tree.predicate_at(at)
            if tree.owner_at(at) == ALICE:
                g0 = walk(i, prefix + "0", xm & ~pred & xfull, ym, h)
                g1 = walk(i, prefix + "1", xm & pred, ym, h)
                gate = builder.gate_or(g0, g1)
            else:
                g0 = walk(i, prefix + "0", xm, ym & ~pred & yfull, h)
                g1 = walk(i, prefix + "1", xm, ym & pred, h)
                gate = builder.gate_and(g0, g1)
        records.append((i, h, prefix, gate, xm, ym))
        return gate

    for i, ln in enumerate(lines):
        if ln.axiom is not None:
            clause = formula.clauses[ln.axiom - 1]
            xlits = sorted(clause.side_literals(part.xset), key=lambda l: l.var)
            alpha = tuple(int(lit.negated) for lit in xlits)
        for h, xm, ym in good_per_line[i]:
            if ln.axiom is None:
                gate = walk(i, "", xm, ym, h)
            elif xm and ym:
                gate = builder.input_gate(ln.axiom, alpha)
            else:
                continue
            built[(i, h)] = gate
            entries.append(CompiledLineCircuit(i, h, gate))
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
    return circuit, tuple(entries), report, tuple(records)


def all_x_covered(graph) -> bool:
    """Accepting instances are pairwise distinct iff this holds."""
    used = set()
    for vs in graph.constraints:
        used.update(vs)
    return used == set(graph.xvars)


def rejecting_instance_oracle(graph, formula: CnfFormula, part, y: Assignment):
    """Entry (i, alpha) is 0 iff clause i is falsified by alpha joined with y,
    each entry checked on its joint assignment.
    """
    from proofbench.bitops import full_mask
    from proofbench.cnf import eval_clause
    from proofbench.cspsat import CspSatInstance
    from proofbench.errors import ScopeError

    if not part.yset <= y.scope:
        raise ScopeError("y must assign every Y-side variable")
    if graph.m != formula.m:
        raise ValueError("graph and formula disagree on the constraint count")
    bits = full_mask(graph.size)
    for i, vs in enumerate(graph.constraints):
        clause = formula.clauses[i]
        for rank, alpha in enumerate(product((0, 1), repeat=len(vs))):
            joint = Assignment.from_map(
                {**{v: a for v, a in zip(vs, alpha)}, **{v: y.bit(v) for v in part.yvars}}
            )
            if not eval_clause(clause, joint):
                bits &= ~(1 << (graph.offsets[i] + rank))
    return CspSatInstance(graph, bits)


def rejecting_images_distinct_oracle(graph, formula: CnfFormula, part) -> bool:
    """Whether y -> rejecting instance is injective, by enumeration."""
    from proofbench.cspsat import EVAL_CAP

    if part.n2 > EVAL_CAP:
        raise CapExceededError(f"2^{part.n2} rejecting instances exceed cap {EVAL_CAP}")
    seen = set()
    for y_idx in range(1 << part.n2):
        inst = rejecting_instance_oracle(graph, formula, part, part.y_assignment(y_idx))
        if inst.bits in seen:
            return False
        seen.add(inst.bits)
    return True
