"""The side-index kernel against loops over ``Assignment.from_index``.

Every fast path (per-variable masks, partial sums, falsifying masks, spread,
rectangle tables, the protocols and the good-history test built on them) is
compared with the slow, obvious computation on random partitions: a random
split of 1..n in random order, either side possibly empty.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench.bitops import iter_bits, spread
from proofbench.cnf import Assignment, Literal, VariablePartition
from proofbench.linear import LinearInequality
from proofbench.protocol import (
    full_history_masks,
    good_from_masks,
    inequality_protocol,
    run_protocol,
)
from proofbench.semantics import SemanticLine, falsifying_mask


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
        for side in (part.xvars, part.yvars):
            side_lits = tuple(l for l in lits if l.var in side)
            slow = sum(
                1 << i
                for i, a in enumerate(side_assignments(side))
                if not any(l.satisfied_by(a.bit(l.var)) for l in side_lits)
            )
            assert falsifying_mask(side_lits, part, side) == slow

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
            line = SemanticLine(part.n1, part.n2, bits)
            slow = [
                h
                for h in sorted(masks)
                if all(line.row(x) & masks[h][1] == 0 for x in iter_bits(masks[h][0]))
            ]
            assert good_from_masks(masks, line) == slow
