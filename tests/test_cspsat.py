import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_x_covered,
    count_satisfying,
    random_formula,
    rejecting_images_distinct_oracle,
    rejecting_instance_oracle,
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
    EVAL_CAP,
    ConstraintGraph,
    CspSatInstance,
    accepting_instance,
    agreement_count,
    build_constraint_graph,
    circuit_size_lower_bound,
    csp_sat_eval,
    rejecting_images_distinct,
    rejecting_instance,
)
from proofbench.errors import CapExceededError, ScopeError
from proofbench.randomcnf import (
    EXACT_CAP,
    DistributionParams,
    profile_distinctness,
    sample_tensor,
)

COMPLETE_2CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
CSP_DIGEST = "595d4bd43d6eb7d1c1feb21b261e798c4fdc309a209631c211da99aedf0bf5d6"


def csp_batch():
    """40 formulas with n <= 10, each on the alternating partition and on
    the first-half/second-half one.
    """
    rng = random.Random(26)
    for _ in range(40):
        n = rng.randint(2, 10)
        f = random_formula(rng, n, rng.randint(1, 3 * n))
        half = n // 2
        yield f, VariablePartition.alternating(n)
        yield f, VariablePartition(
            tuple(range(1, half + 1)), tuple(range(half + 1, n + 1))
        )


@st.composite
def split_formulas(draw):
    """A formula drawn from a pool of clauses, repeats allowed, on a
    partition with its sides in any order; either side may be empty.
    """
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(1, n + 1)))
    cut = draw(st.integers(0, n))
    part = VariablePartition(tuple(order[:cut]), tuple(order[cut:]))
    pool = []
    for _ in range(draw(st.integers(1, 5))):
        vs = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=min(n, 4))))
        signs = draw(st.lists(st.booleans(), min_size=len(vs), max_size=len(vs)))
        pool.append(Clause(tuple(Literal(v, neg) for v, neg in zip(vs, signs))))
    clauses = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    return CnfFormula(n, tuple(clauses)), part


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


def test_instances_pinned():
    # every U(x) and V(y) bit vector and every injectivity answer of the
    # batch; the batch has clauses without X-literals and without Y-literals
    digest = hashlib.sha256()
    answers = set()
    sides = set()
    for f, part in csp_batch():
        g = build_constraint_graph(f, part)
        for c in f.clauses:
            sides.add((bool(c.vars & part.xset), bool(c.vars & part.yset)))
        for i in range(1 << part.n1):
            digest.update(b"U%d;" % accepting_instance(g, part.x_assignment(i)).bits)
        for i in range(1 << part.n2):
            y = part.y_assignment(i)
            digest.update(b"V%d;" % rejecting_instance(g, f, part, y).bits)
        distinct = rejecting_images_distinct(g, f, part)
        answers.add(distinct)
        digest.update(b"D%d;" % distinct)
    assert answers == {False, True}
    assert sides == {(True, False), (False, True), (True, True)}
    assert digest.hexdigest() == CSP_DIGEST


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

    @pytest.mark.parametrize(
        "alpha, message",
        [
            ((0, 0), "assignment length does not match the constraint"),
            ((2,), "assignment bit 2 is not 0 or 1"),
        ],
        ids=["length", "bit-2"],
    )
    def test_position_rejects_non_assignment(self, alpha, message):
        _, _, g = complete_setup()
        with pytest.raises(ValueError) as info:
            g.position(0, alpha)
        assert info.type is ValueError
        assert str(info.value) == message


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
            assert low & ~high == 0
            assert csp_sat_eval(g, a) <= csp_sat_eval(g, b)

    def test_cap(self):
        g = ConstraintGraph(tuple(range(1, 25)), ((1,),))
        inst = CspSatInstance(g, 3)
        with pytest.raises(CapExceededError):
            csp_sat_eval(g, inst)


class TestRejectingMatchesOracles:
    @settings(max_examples=100, deadline=None)
    @given(split_formulas())
    def test_instances_and_injectivity(self, case):
        f, part = case
        g = build_constraint_graph(f, part)
        for i in range(1 << part.n2):
            y = part.y_assignment(i)
            expected = rejecting_instance_oracle(g, f, part, y)
            assert rejecting_instance(g, f, part, y) == expected
        expected = rejecting_images_distinct_oracle(g, f, part)
        assert rejecting_images_distinct(g, f, part) == expected

    def test_injectivity_builds_no_instance(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return CspSatInstance(*args)

        monkeypatch.setattr("proofbench.cspsat.CspSatInstance", counted)
        f, part, g = complete_setup()
        assert rejecting_images_distinct(g, f, part) is True
        assert built == []
        rejecting_instance(g, f, part, Assignment.from_map({2: 0}))
        assert len(built) == 1  # the counter sees the builder's instance

    def test_injectivity_fits_the_exact_profiles(self):
        # rejecting_images_distinct runs exact profiles on n2 <= EVAL_CAP
        assert EVAL_CAP <= EXACT_CAP


MISREAD_GRAPHS = {
    # constraint 2 leaves out x1, the X-variable of its clause 1 v -2
    "missing": (COMPLETE_2CNF, ((1,), (2,)), ((1,), ((1,), (), (1,), (1,))), 2),
    # constraint 1 reads x3 too, which its clause 1 v 2 does not mention
    "extra": ("p cnf 3 1\n1 2 0\n", ((1, 3), (2,)), ((1, 3), ((1, 3),)), 1),
}


@pytest.mark.parametrize("fn", ["instance", "distinct"])
class TestRejectingChecks:
    @staticmethod
    def run(fn, graph, f, part):
        if fn == "instance":
            y = part.y_assignment(0)
            return rejecting_instance(graph, f, part, y)
        return rejecting_images_distinct(graph, f, part)

    @pytest.mark.parametrize("case", MISREAD_GRAPHS.values(), ids=MISREAD_GRAPHS)
    def test_graph_must_read_each_clauses_x_variables(self, fn, case):
        text, sides, (xvars, constraints), i = case
        part = VariablePartition(*sides)
        with pytest.raises(ValueError) as info:
            self.run(fn, ConstraintGraph(xvars, constraints), parse_dimacs(text), part)
        assert str(info.value) == f"constraint {i} must read its clause's X-variables"

    def test_clause_variable_outside_the_partition(self, fn):
        f = CnfFormula(3, (Clause.from_signed([1, 3]),))
        part = VariablePartition((1,), (2,))
        with pytest.raises(ScopeError) as info:
            self.run(fn, build_constraint_graph(f, part), f, part)
        assert str(info.value) == "clause variable 3 is outside the partition"

    def test_constraint_count(self, fn):
        f, part, g = complete_setup()
        with pytest.raises(ValueError) as info:
            self.run(fn, g, CnfFormula(2, f.clauses[:3]), part)
        assert str(info.value) == "graph and formula disagree on the constraint count"


def _two_topologies():
    _, _, g = complete_setup()
    other = ConstraintGraph((1,), ((1,),))
    return [CspSatInstance(g, 0), CspSatInstance(other, 0)]


def _complete_instance():
    return CspSatInstance(complete_setup()[2], 0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ConstraintGraph((1, 1), ()), "CSP variables must be distinct"),
        (
            lambda: ConstraintGraph((1, 2), ((1,), (2, 1))),
            "constraint 2 variables must be ascending",
        ),
        (
            lambda: ConstraintGraph((1,), ((1, 2),)),
            "constraint 1 mentions unknown variables",
        ),
        (
            lambda: CspSatInstance(complete_setup()[2], 1 << 8),
            "bit vector out of range for this topology",
        ),
        (
            lambda: csp_sat_eval(
                ConstraintGraph((1,), ((1,),)), _complete_instance()
            ),
            "instance was built for a different topology",
        ),
        (lambda: agreement_count([], 1, 1), "need at least one instance"),
        (lambda: agreement_count([_complete_instance()], 1, 2), "b must be 0 or 1"),
        (
            lambda: agreement_count(_two_topologies(), 1, 1),
            "instances must share a topology",
        ),
        (
            lambda: agreement_count([_complete_instance()], 9, 1),
            "r=9 out of range for N=8",
        ),
        (
            lambda: agreement_count([_complete_instance()], 1, 1, mode="sampled"),
            "sampled mode needs a positive trial count",
        ),
        (
            lambda: agreement_count([_complete_instance()], 1, 1, mode="fast"),
            "unknown mode 'fast'",
        ),
    ],
    ids=[
        "graph-repeats", "graph-descending", "graph-unknown", "instance-range",
        "eval-topology", "agreement-empty", "agreement-b", "agreement-topology",
        "agreement-r", "agreement-trials", "agreement-mode",
    ],
)
def test_rejects_with_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


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
        with pytest.raises(ValueError) as info:
            circuit_size_lower_bound(2, 2, 1, 0, 1, 1, 1)
        assert str(info.value) == "agreement counts in denominators must be nonzero"
        with pytest.raises(ValueError) as info:
            circuit_size_lower_bound(2, 2, 1, 1, 1, 0, 1)
        assert str(info.value) == "r and s must be at least 1"
        with pytest.raises(ValueError) as info:
            circuit_size_lower_bound(-1, 2, 1, 1, 1, 1, 1)
        assert str(info.value) == "sizes and counts must be nonnegative"
