import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    clause_tree_oracle,
    full_history_masks_oracle,
    good_histories_oracle,
    history_masks_oracle,
    inequality_tree_oracle,
    random_formula,
    run_protocol_oracle,
)
from proofbench.cnf import (
    Assignment,
    Clause,
    Literal,
    VariablePartition,
    eval_clause,
)
from proofbench.errors import CapExceededError, ScopeError
from proofbench.linear import LinearInequality
from proofbench.protocol import (
    RealProtocolRound,
    clause_protocol,
    constant_tree,
    full_history_masks,
    good_histories,
    history_masks,
    inequality_protocol,
    materialize_rectangle,
    real_protocol_eval,
    run_protocol,
)
from proofbench.semantics import SemanticLine


def _random_inequality(rng: random.Random, n: int, weight: int) -> LinearInequality:
    coeffs = tuple(rng.randint(-weight, weight) for _ in range(n))
    return LinearInequality(coeffs, rng.randint(-weight, weight))


class TestClauseProtocol:
    def test_reference_runs(self):
        part = VariablePartition((1,), (2,))
        tree = clause_protocol(Clause.from_signed([1, 2]), part)
        runs = {
            (0, 0): ("00", 0),
            (1, 0): ("10", 1),
            (0, 1): ("01", 1),
            (1, 1): ("11", 1),
        }
        for (xv, yv), expected in runs.items():
            got = run_protocol(
                tree, Assignment.from_map({1: xv}), Assignment.from_map({2: yv})
            )
            assert got == expected

    def test_output_matches_clause_eval(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 6)
            f = random_formula(rng, n, 1, max_width=4)
            clause = f.clauses[0]
            part = VariablePartition.alternating(n)
            tree = clause_protocol(clause, part)
            for x_idx in range(1 << part.n1):
                for y_idx in range(1 << part.n2):
                    x = part.x_assignment(x_idx)
                    y = part.y_assignment(y_idx)
                    _, out = run_protocol(tree, x, y)
                    assert out == int(eval_clause(clause, x.union(y)))

    def test_one_sided_clause_silent_player(self):
        part = VariablePartition((1,), (2,))
        tree = clause_protocol(Clause.from_signed([2]), part)  # Bob-only clause
        for xv in (0, 1):
            h, out = run_protocol(
                tree, Assignment.from_map({1: xv}), Assignment.from_map({2: 0})
            )
            assert h == "00" and out == 0  # Alice always sends 0


class TestInequalityProtocol:
    def test_reference_runs(self):
        part = VariablePartition((1,), (2,))
        tree = inequality_protocol(LinearInequality((1, 1), 1), part)
        _, out = run_protocol(
            tree, Assignment.from_map({1: 0}), Assignment.from_map({2: 0})
        )
        assert out == 0
        _, out = run_protocol(
            tree, Assignment.from_map({1: 1}), Assignment.from_map({2: 0})
        )
        assert out == 1

    def test_constant_trees(self):
        part = VariablePartition((1,), (2,))
        t0 = inequality_protocol(LinearInequality((0, 0), 1), part)
        assert t0.depth == 0 and t0.output_at("") == 0
        t1 = inequality_protocol(LinearInequality((0, 0), 0), part)
        assert t1.depth == 0 and t1.output_at("") == 1

    def test_triple_agreement_with_truth_and_referee(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 6)
            part = VariablePartition.alternating(n)
            ineq = _random_inequality(rng, n, 4)
            table = SemanticLine.from_inequality(ineq, part)
            tree = inequality_protocol(ineq, part)
            for x_idx in range(1 << part.n1):
                for y_idx in range(1 << part.n2):
                    x = part.x_assignment(x_idx)
                    y = part.y_assignment(y_idx)
                    _, out = run_protocol(tree, x, y)
                    _, real_out = real_protocol_eval(ineq, part, x, y)
                    assert out == table.value(x_idx, y_idx) == real_out

    def test_depth_cap(self):
        part = VariablePartition.alternating(8)
        # Alice's four coefficients of 2^14 span 2^16: 17 bits plus Bob's
        ineq = LinearInequality(tuple([1 << 14] * 8), 5)
        with pytest.raises(CapExceededError, match="depth cap 16"):
            inequality_protocol(ineq, part)


class TestRunSemantics:
    def test_constant_tree_runs(self):
        part = VariablePartition((1,), (2,))
        for bit in (0, 1):
            tree = constant_tree(part, bit)
            h, out = run_protocol(
                tree, Assignment.from_map({1: 0}), Assignment.from_map({2: 1})
            )
            assert h == "" and out == bit

    def test_scope_mismatch(self):
        part = VariablePartition((1,), (2,))
        tree = constant_tree(part, 0)
        with pytest.raises(ScopeError):
            run_protocol(tree, Assignment.from_map({2: 0}), Assignment.from_map({2: 0}))


class TestRectangles:
    def test_reference_rectangle(self):
        part = VariablePartition((1,), (2,))
        tree = clause_protocol(Clause.from_signed([1, 2]), part)
        rect = materialize_rectangle(tree, "00")
        assert rect.xset == {0} and rect.yset == {0}

    def test_empty_history_full_space(self):
        part = VariablePartition((1, 3), (2,))
        tree = clause_protocol(Clause.from_signed([1, 2]), part)
        rect = materialize_rectangle(tree, "")
        assert rect.xset == set(range(4)) and rect.yset == {0, 1}

    def test_constant_alice_predicate_prefix(self):
        part = VariablePartition((1,), (2,))
        tree = clause_protocol(Clause.from_signed([2]), part)
        # Alice owns no literals, always sends 0: prefix "0" keeps all x
        assert materialize_rectangle(tree, "0").xset == {0, 1}
        assert materialize_rectangle(tree, "1").xset == set()

    def test_partition_property(self):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randint(2, 6)
            part = VariablePartition.alternating(n)
            if rng.random() < 0.5:
                tree = clause_protocol(random_formula(rng, n, 1).clauses[0], part)
            else:
                tree = inequality_protocol(_random_inequality(rng, n, 3), part)
            cells = {}
            for x_idx in range(1 << part.n1):
                for y_idx in range(1 << part.n2):
                    h, _ = run_protocol(
                        tree, part.x_assignment(x_idx), part.y_assignment(y_idx)
                    )
                    cells.setdefault(h, set()).add((x_idx, y_idx))
            total = 0
            for h in tree.histories():
                rect = materialize_rectangle(tree, h)
                pairs = {(x, y) for x in rect.xset for y in rect.yset}
                assert pairs == cells.get(h, set())
                total += len(pairs)
            assert total == 1 << part.n

    def test_rectangle_prefix_consistency(self):
        rng = random.Random(31)
        part = VariablePartition.alternating(4)
        tree = inequality_protocol(_random_inequality(rng, 4, 3), part)
        for x_idx in range(1 << part.n1):
            for y_idx in range(1 << part.n2):
                h, _ = run_protocol(
                    tree, part.x_assignment(x_idx), part.y_assignment(y_idx)
                )
                for cut in range(tree.depth + 1):
                    rect = materialize_rectangle(tree, h[:cut])
                    assert x_idx in rect.xset and y_idx in rect.yset


class TestGoodHistories:
    def test_clause_reference(self):
        part = VariablePartition((1,), (2,))
        clause = Clause.from_signed([1, 2])
        tree = clause_protocol(clause, part)
        line = SemanticLine.from_clause(clause, part)
        assert good_histories(tree, line) == ["00"]

    def test_constants(self):
        part = VariablePartition((1,), (2,))
        zero = SemanticLine.constant(part, 0)
        one = SemanticLine.constant(part, 1)
        assert good_histories(constant_tree(part, 0), zero) == [""]
        assert good_histories(constant_tree(part, 1), one) == []

    def test_against_double_loop_oracle(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(2, 5)
            part = VariablePartition.alternating(n)
            clause = random_formula(rng, n, 1, max_width=3).clauses[0]
            tree = clause_protocol(clause, part)
            # pit the tree against an unrelated line now and then
            if rng.random() < 0.5:
                line = SemanticLine.from_clause(clause, part)
            else:
                other = random_formula(rng, n, 1, max_width=3).clauses[0]
                line = SemanticLine.from_clause(other, part)
            assert good_histories(tree, line) == good_histories_oracle(
                tree, line, part
            )


class TestTreeStructure:
    def test_every_node_defined_to_full_depth(self):
        # complete binary trees: owner and predicate at every proper prefix,
        # an output at every full history
        rng = random.Random(87)
        from itertools import product as iproduct

        for _ in range(15):
            n = rng.randint(2, 5)
            part = VariablePartition.alternating(n)
            if rng.random() < 0.5:
                tree = clause_protocol(random_formula(rng, n, 1).clauses[0], part)
            else:
                tree = inequality_protocol(_random_inequality(rng, n, 3), part)
            for depth in range(tree.depth):
                for bits in iproduct("01", repeat=depth):
                    prefix = "".join(bits)
                    assert tree.owner_at(prefix) in ("alice", "bob")
                    tree.predicate_at(prefix)
            for bits in iproduct("01", repeat=tree.depth):
                assert tree.output_at("".join(bits)) in (0, 1)


@st.composite
def trees_with_oracles(draw):
    """A random clause or inequality tree on the alternating or the halves
    partition, with the same tree built as string-keyed dicts.
    """
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        part = VariablePartition.alternating(n)
    else:
        part = VariablePartition(tuple(range(1, n // 2 + 1)), tuple(range(n // 2 + 1, n + 1)))
    if draw(st.booleans()):
        variables = draw(st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True))
        clause = Clause(tuple(Literal(v, draw(st.booleans())) for v in sorted(variables)))
        return clause_protocol(clause, part), clause_tree_oracle(clause, part)
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    ineq = LinearInequality(tuple(coeffs), draw(st.integers(-8, 8)))
    return inequality_protocol(ineq, part), inequality_tree_oracle(ineq, part)


class TestTreesMatchDictOracle:
    """Heap-ordered trees read through the string API against the
    string-keyed construction they replaced.
    """

    @settings(max_examples=80, deadline=None)
    @given(trees_with_oracles())
    def test_every_prefix_and_run(self, pair):
        tree, oracle = pair
        assert tree.depth == oracle.depth
        for depth in range(tree.depth + 1):
            for bits in product("01", repeat=depth):
                prefix = "".join(bits)
                if depth < tree.depth:
                    assert tree.owner_at(prefix) == oracle.owner_at(prefix)
                    assert tree.predicate_at(prefix) == oracle.predicate_at(prefix)
                else:
                    assert tree.output_at(prefix) == oracle.output_at(prefix)
                    with pytest.raises(KeyError):
                        tree.owner_at(prefix)
                assert history_masks(tree, prefix) == history_masks_oracle(oracle, prefix)
        # the same histories in the same (leaf) order
        got = list(full_history_masks(tree).items())
        assert got == sorted(full_history_masks_oracle(oracle).items())
        part = tree.part
        xs = [part.x_assignment(x) for x in range(1 << part.n1)]
        ys = [part.y_assignment(y) for y in range(1 << part.n2)]
        for x_idx, x in enumerate(xs):
            for y_idx, y in enumerate(ys):
                assert run_protocol(tree, x, y) == run_protocol_oracle(oracle, x_idx, y_idx)


class TestTableBuilders:
    def test_clause_table_matches_slow_tabulation(self):
        from proofbench.cnf import eval_clause
        from proofbench.semantics import SemanticLine

        rng = random.Random(93)
        for _ in range(30):
            n = rng.randint(2, 6)
            part = VariablePartition.alternating(n)
            clause = random_formula(rng, n, 1, max_width=4).clauses[0]
            fast = SemanticLine.from_clause(clause, part)
            slow = SemanticLine.from_function(part, lambda a: eval_clause(clause, a))
            assert fast == slow

    def test_inequality_table_matches_slow_tabulation(self):
        from proofbench.semantics import SemanticLine

        rng = random.Random(97)
        for _ in range(30):
            n = rng.randint(2, 6)
            part = VariablePartition.alternating(n)
            ineq = _random_inequality(rng, n, 4)
            fast = SemanticLine.from_inequality(ineq, part)
            slow = SemanticLine.from_function(part, lambda a: ineq.holds(a.as_map()))
            assert fast == slow

    def test_empty_literals_is_constant_zero(self):
        from proofbench.semantics import SemanticLine

        part = VariablePartition.alternating(4)
        assert SemanticLine.from_literals((), part).is_constant(0)


class TestRealProtocol:
    def test_reference_rounds(self):
        part = VariablePartition((1,), (2,))
        ineq = LinearInequality((1, -1), 0)
        rnd, out = real_protocol_eval(
            ineq, part, Assignment.from_map({1: 1}), Assignment.from_map({2: 0})
        )
        assert (rnd.alice_value, rnd.bob_value, out) == (1, 0, 1)
        rnd, out = real_protocol_eval(
            ineq, part, Assignment.from_map({1: 0}), Assignment.from_map({2: 1})
        )
        assert (rnd.alice_value, rnd.bob_value, out) == (0, 1, 0)
        rnd, out = real_protocol_eval(
            LinearInequality((0, 0), 1),
            part,
            Assignment.from_map({1: 1}),
            Assignment.from_map({2: 1}),
        )
        assert (rnd.alice_value, rnd.bob_value, out) == (0, 1, 0)

    def test_round_invariant(self):
        with pytest.raises(ValueError):
            RealProtocolRound(1, 0, False)
