"""The side-index kernel against loops over ``Assignment.from_index``.

Every fast path (per-variable masks, partial sums, falsifying masks, spread,
row classes and the tables built from them, the protocols, and the agreement
and good-history tests built on them) is compared with the slow, obvious
computation on random partitions: a random split of 1..n in random order,
either side possibly empty.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import semantic_step_oracle, table_oracle
from proofbench.bitops import iter_bits, spread
from proofbench.circuit import (
    cc_lines_from_resolution,
    compile_cc_refutation,
    side_values,
    verify_separation,
)
from proofbench.cnf import (
    Assignment,
    Clause,
    Literal,
    VariablePartition,
    parse_dimacs,
)
from proofbench.cpproof import resolution_refutation_from_dpll
from proofbench.errors import ScopeError
from proofbench.gates import ConstGate, MonotoneCircuit
from proofbench.linear import LinearInequality
from proofbench.protocol import (
    clause_protocol,
    constant_tree,
    full_history_masks,
    good_from_masks,
    good_leaves,
    inequality_protocol,
    run_protocol,
)
from proofbench.semantics import (
    SemanticLine,
    check_scope,
    check_semantic_step,
    falsifying_mask,
    rectangle_bits,
)

UNSAT3 = (
    "p cnf 3 8\n1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n"
    "-1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n-1 -2 -3 0\n"
)


@st.composite
def partitions(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    cut = draw(st.integers(0, n))
    return VariablePartition(tuple(order[:cut]), tuple(order[cut:]))


@st.composite
def partition_and_literals(draw, max_n=10):
    part = draw(partitions(max_n))
    chosen = draw(st.lists(st.integers(1, max(part.n, 1)), unique=True))
    lits = tuple(Literal(v, draw(st.booleans())) for v in chosen if v <= part.n)
    return part, lits


@st.composite
def partition_and_inequality(draw, max_n=10, weight=20):
    part = draw(partitions(max_n))
    coeffs = draw(
        st.lists(st.integers(-weight, weight), min_size=part.n, max_size=part.n)
    )
    constant = draw(st.integers(-2 * weight, 2 * weight))
    return part, LinearInequality(tuple(coeffs), constant)


def side_assignments(side):
    return [Assignment.from_index(side, i) for i in range(1 << len(side))]


class TestKernel:
    @settings(max_examples=30, deadline=None)
    @given(partitions())
    def test_var_masks(self, part):
        for side in (part.xvars, part.yvars):
            rows = side_assignments(side)
            for v in side:
                slow = sum(1 << i for i, a in enumerate(rows) if a.bit(v))
                assert part.var_masks[v] == slow
        assert set(part.var_masks) == set(range(1, part.n + 1))

    @settings(max_examples=30, deadline=None)
    @given(partition_and_inequality())
    def test_partial_sums(self, case):
        part, ineq = case
        sums = part.partial_sums(ineq.coeffs)
        for side, fast in zip((part.xvars, part.yvars), sums):
            slow = [
                sum(ineq.coeffs[v - 1] * a.bit(v) for v in side)
                for a in side_assignments(side)
            ]
            assert fast == slow

    @settings(max_examples=30, deadline=None)
    @given(partition_and_literals())
    def test_falsifying_mask(self, case):
        part, lits = case
        slow = []
        for side in (part.xvars, part.yvars):
            side_lits = tuple(l for l in lits if l.var in side)
            slow.append(sum(
                1 << i
                for i, a in enumerate(side_assignments(side))
                if not any(l.satisfied_by(a.bit(l.var)) for l in side_lits)
            ))
        assert falsifying_mask(lits, part) == tuple(slow)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**70), st.integers(1, 300))
    def test_spread(self, mask, stride):
        slow = sum(1 << (i * stride) for i in iter_bits(mask))
        assert spread(mask, stride) == slow


class TestTablesAndProtocols:
    @settings(max_examples=25, deadline=None)
    @given(partition_and_literals())
    def test_from_literals(self, case):
        part, lits = case
        slow = SemanticLine.from_function(
            part, lambda a: any(l.satisfied_by(a.bit(l.var)) for l in lits)
        )
        assert SemanticLine.from_literals(lits, part) == slow

    @settings(max_examples=25, deadline=None)
    @given(partition_and_inequality())
    def test_from_inequality(self, case):
        part, ineq = case
        slow = SemanticLine.from_function(part, lambda a: ineq.holds(a.as_map()))
        assert SemanticLine.from_inequality(ineq, part) == slow

    @settings(max_examples=25, deadline=None)
    @given(partition_and_inequality(max_n=8))
    def test_inequality_protocol(self, case):
        part, ineq = case
        tree = inequality_protocol(ineq, part)
        for x in side_assignments(part.xvars):
            for y in side_assignments(part.yvars):
                _, out = run_protocol(tree, x, y)
                assert out == int(ineq.holds(x.union(y).as_map()))

    @settings(max_examples=30, deadline=None)
    @given(
        partition_and_inequality(max_n=8, weight=3), st.randoms(use_true_random=False)
    )
    def test_good_from_masks(self, case, rng):
        part, ineq = case
        tree = inequality_protocol(ineq, part)
        masks = full_history_masks(tree)
        # random tables, plus the tree's own line, whose 0-histories are good
        size = 1 << part.n
        for bits in (
            SemanticLine.from_inequality(ineq, part).bits,
            rng.getrandbits(size),
            rng.getrandbits(size) & rng.getrandbits(size),
        ):
            line = SemanticLine.from_bits(part.n1, part.n2, bits)
            slow = [
                h
                for h in sorted(masks)
                if all(line.row(x) & masks[h][1] == 0 for x in iter_bits(masks[h][0]))
            ]
            assert good_from_masks(masks, line) == slow


@st.composite
def lines_on(draw, part):
    """A line of a clause, an inequality or a random table on ``part``."""
    kind = draw(st.sampled_from(["clause", "inequality", "table"]))
    if kind == "clause":
        chosen = draw(st.lists(st.integers(1, max(part.n, 1)), unique=True))
        lits = tuple(Literal(v, draw(st.booleans())) for v in chosen if v <= part.n)
        return SemanticLine.from_literals(lits, part)
    if kind == "inequality":
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=part.n, max_size=part.n))
        ineq = LinearInequality(tuple(coeffs), draw(st.integers(-6, 6)))
        return SemanticLine.from_inequality(ineq, part)
    table = draw(st.integers(0, (1 << (1 << part.n)) - 1))
    return SemanticLine.from_bits(part.n1, part.n2, table)


@st.composite
def split_lines_on(draw, part):
    """A line of ``lines_on`` and the same function built raw: each class's
    x mask cut in two, an empty class added, the classes shuffled.
    """
    line = draw(lines_on(part))
    cut = draw(st.integers(0, (1 << (1 << part.n1)) - 1))
    classes = [(xm & side, row) for xm, row in line.rows for side in (cut, ~cut)]
    classes.append((0, draw(st.integers(0, (1 << (1 << part.n2)) - 1))))
    return line, SemanticLine(part.n1, part.n2, tuple(draw(st.permutations(classes))))


class TestRowClasses:
    """The row-class form against truth tables, on partitions up to n = 12."""

    @settings(max_examples=25, deadline=None)
    @given(partition_and_literals(max_n=12), partition_and_inequality(max_n=12))
    def test_tables_match_enumeration(self, clause_case, ineq_case):
        part, lits = clause_case
        holds = lambda v: any(l.satisfied_by(v[l.var]) for l in lits)
        table = table_oracle(part, holds)
        assert SemanticLine.from_literals(lits, part).bits == table
        tabulated = SemanticLine.from_function(part, lambda a: holds(a.as_map()))
        assert tabulated.bits == table
        assert SemanticLine.from_bits(part.n1, part.n2, table).bits == table
        part, ineq = ineq_case
        table = table_oracle(part, ineq.holds)
        assert SemanticLine.from_inequality(ineq, part).bits == table

    @settings(max_examples=40, deadline=None)
    @given(partitions(max_n=12), st.data())
    def test_form_is_canonical(self, part, data):
        # lines of the from_* constructors, and one built raw from split,
        # shuffled classes
        a, b = data.draw(lines_on(part)), data.draw(lines_on(part))
        base, raw = data.draw(split_lines_on(part))
        assert raw == base
        for line in (a, raw):
            xs = [x for x, _ in line.rows]
            assert all(xs) and sum(xs) == (1 << (1 << part.n1)) - 1
            rows = [row for _, row in line.rows]
            assert rows == sorted(set(rows))
        for left, right in ((a, b), (a, raw), (b, raw)):
            assert (left == right) == (left.bits == right.bits)
        assert SemanticLine.from_bits(part.n1, part.n2, a.bits) == a

    @settings(max_examples=40, deadline=None)
    @given(partitions(max_n=12), st.data())
    def test_semantic_step_matches_tables(self, part, data):
        f, g = data.draw(lines_on(part)), data.draw(lines_on(part))
        h = data.draw(lines_on(part))
        # a superset of f AND g, so that entailed steps occur too
        wider = SemanticLine.from_bits(part.n1, part.n2, f.bits & g.bits | h.bits)
        for target in (h, wider):
            assert check_semantic_step(f, g, target) == semantic_step_oracle(
                f, g, target
            )
        assert check_semantic_step(f, g, wider)

    @settings(max_examples=40, deadline=None)
    @given(
        partition_and_literals(max_n=12),
        partition_and_inequality(max_n=12, weight=3),
        st.booleans(),
    )
    def test_agreement_and_goodness_match_tables(self, clause_case, ineq_case, swap):
        # each tree against its own line, and against the other case's line
        # when both share a partition
        part, lits = clause_case
        ipart, ineq = ineq_case
        def clause_pair(lits, part):
            tree = clause_protocol(Clause(lits), part) if lits else constant_tree(part, 0)
            return tree, SemanticLine.from_literals(lits, part)

        def ineq_pair(ineq, part):
            tree = inequality_protocol(ineq, part)
            return tree, SemanticLine.from_inequality(ineq, part)

        pairs = [clause_pair(lits, part), ineq_pair(ineq, ipart)]
        if swap:
            lits = tuple(l for l in lits if l.var <= ipart.n)
            ctree, cline = clause_pair(lits, ipart)
            itree, iline = ineq_pair(ineq, ipart)
            pairs += [(ctree, iline), (itree, cline)]
        for tree, line in pairs:
            masks = full_history_masks(tree)
            agrees = True
            for h, (xm, ym) in masks.items():
                rect = rectangle_bits(xm, ym, line.n2)
                agrees &= line.bits & rect == (rect if tree.output_at(h) else 0)
            good = good_leaves(tree, line)
            assert (good is not None) == agrees
            if agrees:
                assert [h for _, h, _, _ in good] == good_from_masks(masks, line)
                for leaf, h, xm, ym in good:
                    assert (leaf, masks[h]) == (int("0" + h, 2), (xm, ym))


class TestScope:
    """A clause variable the partition does not hold is a ``ScopeError`` at
    the kernel and at every caller, never a silently dropped literal.
    """

    SHORT = VariablePartition((1,), (2,))  # the formula also uses variable 3

    def test_kernel_and_its_callers_raise(self):
        f = parse_dimacs(UNSAT3)
        refutation = resolution_refutation_from_dpll(f)
        circuit = MonotoneCircuit((ConstGate(0),), 0)
        for run in (
            lambda: falsifying_mask(f.clauses[0].literals, self.SHORT),
            lambda: SemanticLine.from_literals(f.clauses[0].literals, self.SHORT),
            lambda: SemanticLine.from_clause(f.clauses[0], self.SHORT),
            lambda: clause_protocol(f.clauses[0], self.SHORT),
            lambda: cc_lines_from_resolution(refutation, self.SHORT),
            lambda: side_values(circuit, f, self.SHORT),
        ):
            with pytest.raises(
                ScopeError, match="clause variable 3 is outside the partition"
            ):
                run()

    def test_first_outside_variable_is_named(self):
        lits = (Literal(5), Literal(1), Literal(4, True))
        for run in (falsifying_mask, check_scope):
            with pytest.raises(ScopeError, match="clause variable 5 "):
                run(iter(lits), self.SHORT)
        check_scope(iter(lits[1:2]), self.SHORT)  # in scope: no error

    def test_partition_beyond_the_formula_is_valid(self):
        f = parse_dimacs("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
        part = VariablePartition((1, 3), (4, 2))
        cc = cc_lines_from_resolution(resolution_refutation_from_dpll(f), part)
        result = compile_cc_refutation(cc, f, part)
        assert verify_separation(result.circuit, f, part).passed
        line = SemanticLine.from_clause(Clause.from_signed([1, -2]), part)
        assert line == SemanticLine.from_function(
            part, lambda a: a.bit(1) == 1 or a.bit(2) == 0
        )
