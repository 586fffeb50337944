import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    count_satisfying,
    random_formula,
    separator_bound_oracle,
)
from proofbench.cnf import (
    Assignment,
    Clause,
    CnfFormula,
    Literal,
    VariablePartition,
    parse_dimacs,
)
from proofbench.cspsat import (
    ConstraintGraph,
    CspSatInstance,
    accepting_instance,
    agreement_count,
    all_x_covered,
    build_constraint_graph,
    circuit_size_lower_bound,
    csp_sat_eval,
    rejecting_images_distinct,
    rejecting_instance,
)
from proofbench.errors import CapExceededError, ScopeError
from proofbench.randomcnf import (
    DistributionParams,
    profile_distinctness,
    sample_tensor,
)

COMPLETE_2CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"


def complete_setup():
    f = parse_dimacs(COMPLETE_2CNF)
    part = VariablePartition((1,), (2,))
    return f, part, build_constraint_graph(f, part)


def eval_oracle(graph: ConstraintGraph, inst: CspSatInstance) -> bool:
    """Product enumeration over all 0/1 assignments."""
    for alpha in itertools.product((0, 1), repeat=len(graph.xvars)):
        by_var = dict(zip(graph.xvars, alpha))
        if all(
            inst.entry(i, tuple(by_var[v] for v in vs)) == 1
            for i, vs in enumerate(graph.constraints)
        ):
            return True
    return False


class TestGraph:
    def test_complete_2cnf_layout(self):
        _, _, g = complete_setup()
        assert g.constraints == ((1,), (1,), (1,), (1,))
        assert g.size == 8
        assert g.block_sizes == (2, 2, 2, 2)

    def test_empty_vars_block(self):
        f = parse_dimacs("p cnf 2 1\n2 0\n")
        part = VariablePartition((1,), (2,))
        g = build_constraint_graph(f, part)
        assert g.constraints == ((),)
        assert g.block_sizes == (1,)

    def test_two_var_block(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        part = VariablePartition((1, 2), (3,))
        g = build_constraint_graph(f, part)
        assert g.constraints == ((1, 2),)
        assert g.block_sizes == (4,)

    def test_positions_are_a_bijection(self):
        _, _, g = complete_setup()
        seen = set()
        for i, vs in enumerate(g.constraints):
            for alpha in itertools.product((0, 1), repeat=len(vs)):
                seen.add(g.position(i, alpha))
        assert seen == set(range(g.size))

    @pytest.mark.parametrize("alpha", [(0, 0), (2,)], ids=["length", "bit-2"])
    def test_position_rejects_non_assignment(self, alpha):
        _, _, g = complete_setup()
        with pytest.raises(ValueError) as info:
            g.position(0, alpha)
        assert info.type is ValueError


class TestInstances:
    def test_accepting_blocks(self):
        _, _, g = complete_setup()
        u0 = accepting_instance(g, Assignment.from_map({1: 0}))
        u1 = accepting_instance(g, Assignment.from_map({1: 1}))
        assert [u0.block_bits(i) for i in range(4)] == [(1, 0)] * 4
        assert [u1.block_bits(i) for i in range(4)] == [(0, 1)] * 4

    def test_rejecting_blocks(self):
        f, part, g = complete_setup()
        v0 = rejecting_instance(g, f, part, Assignment.from_map({2: 0}))
        v1 = rejecting_instance(g, f, part, Assignment.from_map({2: 1}))
        assert [v0.block_bits(i) for i in range(4)] == [(0, 1), (1, 1), (1, 0), (1, 1)]
        assert [v1.block_bits(i) for i in range(4)] == [(1, 1), (0, 1), (1, 1), (1, 0)]

    def test_empty_vars_blocks(self):
        f = parse_dimacs("p cnf 2 1\n2 0\n")
        part = VariablePartition((1,), (2,))
        g = build_constraint_graph(f, part)
        u = accepting_instance(g, Assignment.from_map({1: 1}))
        assert u.block_bits(0) == (1,)
        v_sat = rejecting_instance(g, f, part, Assignment.from_map({2: 1}))
        assert v_sat.block_bits(0) == (1,)  # clause satisfied by y, all ones
        v_unsat = rejecting_instance(g, f, part, Assignment.from_map({2: 0}))
        assert v_unsat.block_bits(0) == (0,)

    def test_scope_errors(self):
        f, part, g = complete_setup()
        with pytest.raises(ScopeError):
            accepting_instance(g, Assignment.from_map({2: 0}))
        with pytest.raises(ScopeError):
            rejecting_instance(g, f, part, Assignment.from_map({1: 0}))

    def test_block_structure_random(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(2, 8)
            f = random_formula(rng, n, rng.randint(1, 10))
            part = VariablePartition.alternating(n)
            g = build_constraint_graph(f, part)
            u = accepting_instance(g, part.x_assignment(rng.randrange(1 << part.n1)))
            for i in range(g.m):
                assert sum(u.block_bits(i)) == 1
            v = rejecting_instance(
                g, f, part, part.y_assignment(rng.randrange(1 << part.n2))
            )
            for i in range(g.m):
                block = v.block_bits(i)
                assert block.count(0) <= 1


class TestEval:
    def test_reference_cases(self):
        f, part, g = complete_setup()
        all_ones = CspSatInstance(g, (1 << g.size) - 1)
        assert csp_sat_eval(g, all_ones) is True
        u = accepting_instance(g, Assignment.from_map({1: 0}))
        assert csp_sat_eval(g, u) is True
        v = rejecting_instance(g, f, part, Assignment.from_map({2: 0}))
        assert csp_sat_eval(g, v) is False

    def test_matches_enumeration_oracle(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(2, 7)
            f = random_formula(rng, n, rng.randint(1, 8))
            part = VariablePartition.alternating(n)
            g = build_constraint_graph(f, part)
            inst = CspSatInstance(g, rng.getrandbits(g.size))
            assert csp_sat_eval(g, inst) == eval_oracle(g, inst)

    def test_accepting_always_true(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 8)
            f = random_formula(rng, n, rng.randint(1, 12))
            part = VariablePartition.alternating(n)
            g = build_constraint_graph(f, part)
            x = part.x_assignment(rng.randrange(1 << part.n1))
            assert csp_sat_eval(g, accepting_instance(g, x)) is True

    def test_rejecting_false_iff_unsat(self):
        # for unsatisfiable formulas every rejecting instance evaluates to 0
        rng = random.Random(17)
        done = 0
        while done < 15:
            n = rng.randint(2, 6)
            f = random_formula(rng, n, rng.randint(8, 24))
            if count_satisfying(f):
                continue
            done += 1
            part = VariablePartition.alternating(n)
            g = build_constraint_graph(f, part)
            for y_idx in range(1 << part.n2):
                v = rejecting_instance(g, f, part, part.y_assignment(y_idx))
                assert csp_sat_eval(g, v) is False

    def test_rejecting_exhaustive_larger_formula(self):
        # all 2^{n2} rejecting instances of an unsatisfiable 14-variable
        # tensor formula evaluate to 0
        f, part = sample_tensor(DistributionParams(340, 7, 2, 2))
        from proofbench.cnf import brute_force_sat

        assert brute_force_sat(f) is None
        g = build_constraint_graph(f, part)
        for y_idx in range(1 << part.n2):
            v = rejecting_instance(g, f, part, part.y_assignment(y_idx))
            assert csp_sat_eval(g, v) is False

    def test_monotone_on_ordered_pairs(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(2, 6)
            f = random_formula(rng, n, rng.randint(1, 6))
            part = VariablePartition.alternating(n)
            g = build_constraint_graph(f, part)
            high = rng.getrandbits(g.size)
            low = high & rng.getrandbits(g.size)
            a = CspSatInstance(g, low)
            b = CspSatInstance(g, high)
            assert a.leq(b)
            assert csp_sat_eval(g, a) <= csp_sat_eval(g, b)

    def test_cap(self):
        g = ConstraintGraph(tuple(range(1, 25)), ((1,),))
        inst = CspSatInstance(g, 3)
        with pytest.raises(CapExceededError):
            csp_sat_eval(g, inst)


class TestInjectivityDiagnostics:
    def test_u_injective_iff_covered(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(2, 6)
            f = random_formula(rng, n, rng.randint(1, 5))
            part = VariablePartition.alternating(n)
            g = build_constraint_graph(f, part)
            images = {
                accepting_instance(g, part.x_assignment(i)).bits
                for i in range(1 << part.n1)
            }
            assert (len(images) == 1 << part.n1) == all_x_covered(g)

    def test_v_injectivity_matches_profiles(self):
        # Y-side distinctness of rejecting instances equals profile
        # distinctness of the Y-side half of a tensor formula.
        for seed in range(6):
            f, part = sample_tensor(DistributionParams(12, 4, 2, seed))
            g = build_constraint_graph(f, part)
            yside = CnfFormula(
                4,
                tuple(
                    Clause(
                        tuple(
                            Literal(l.var - 4, l.negated)
                            for l in c.literals
                            if l.var > 4
                        )
                    )
                    for c in f.clauses
                ),
            )
            assert rejecting_images_distinct(g, f, part) == profile_distinctness(
                yside
            ).distinct


class TestAgreementCount:
    def _reference_sets(self):
        f, part, g = complete_setup()
        u = [
            accepting_instance(g, Assignment.from_map({1: b})) for b in (0, 1)
        ]
        v = [
            rejecting_instance(g, f, part, Assignment.from_map({2: b}))
            for b in (0, 1)
        ]
        return u, v

    def test_reference_values(self):
        u, v = self._reference_sets()
        assert agreement_count(u, 1, 1).value == 1
        assert agreement_count(u, 0, 1).value == 2
        assert agreement_count(v, 1, 0).value == 1

    def test_exact_matches_double_loop(self):
        rng = random.Random(31)
        for _ in range(25):
            n_bits = rng.randint(2, 14)
            g = ConstraintGraph(
                tuple(range(1, n_bits + 1)),
                tuple((v,) for v in range(1, (n_bits + 1) // 2 + 1)),
            )
            size = g.size
            insts = [
                CspSatInstance(g, rng.getrandbits(size))
                for _ in range(rng.randint(1, 10))
            ]
            r = rng.randint(0, min(3, size))
            b = rng.randint(0, 1)
            got = agreement_count(insts, r, b).value
            best = 0
            for combo in itertools.combinations(range(size), r):
                c = 0
                for inst in insts:
                    if all(inst.bit(p) == b for p in combo):
                        c += 1
                best = max(best, c)
            assert got == best

    def test_sampled_is_flagged_lower_bound(self):
        u, _ = self._reference_sets()
        exact = agreement_count(u, 2, 1, mode="exact")
        sampled = agreement_count(u, 2, 1, mode="sampled", trials=50, seed=4)
        assert sampled.mode == "sampled" and sampled.trials == 50
        assert sampled.value <= exact.value

    def test_exact_r_cap(self):
        u, _ = self._reference_sets()
        with pytest.raises(CapExceededError):
            agreement_count(u, 4, 1, mode="exact")


class TestSizeLowerBound:
    def test_reference_case(self):
        assert circuit_size_lower_bound(2, 2, 1, 1, 1, 1, 1) == 0

    def test_second_term_shape(self):
        # |V| = 2^n, A0 = 2^{n - s d / 2}, r = s
        n, d, s = 12, 4, 3
        got = circuit_size_lower_bound(
            2**n, 2**n, 2**n, 2**n, 2 ** (n - s * d // 2), s, s
        )
        expected = Fraction(2**n, (2 * s) ** (s + 1) * 2 ** (n - s * d // 2))
        assert got == min(expected, got) and got <= expected

    def test_matches_independent_oracle(self):
        rng = random.Random(37)
        for _ in range(100):
            r, s = rng.randint(1, 4), rng.randint(1, 4)
            u = rng.randint(0, 2**12)
            v = rng.randint(0, 2**12)
            a1_1 = rng.randint(0, 64)
            a1_r = rng.randint(1, 64)
            a0_s = rng.randint(1, 64)
            got = circuit_size_lower_bound(u, v, a1_1, a1_r, a0_s, r, s)
            num, den = separator_bound_oracle(u, v, a1_1, a1_r, a0_s, r, s)
            assert got == Fraction(num, den)

    def test_errors(self):
        with pytest.raises(ValueError):
            circuit_size_lower_bound(2, 2, 1, 0, 1, 1, 1)
        with pytest.raises(ValueError):
            circuit_size_lower_bound(2, 2, 1, 1, 1, 0, 1)
        with pytest.raises(ValueError):
            circuit_size_lower_bound(-1, 2, 1, 1, 1, 1, 1)
