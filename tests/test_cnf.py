import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dpll_oracle, exhaustive_sat, random_formula
from proofbench.cnf import (
    SOLVER_CAP,
    Assignment,
    Clause,
    CnfFormula,
    Literal,
    VariablePartition,
    brute_force_sat,
    clause_to_inequality,
    dpll,
    eval_clause,
    parse_dimacs,
    search_violation,
    serialize_dimacs,
)
from proofbench.cpproof import resolution_problems, resolution_refutation_from_dpll
from proofbench.errors import (
    CapExceededError,
    DimacsError,
    NoViolationError,
    ScopeError,
)
from proofbench.randomcnf import (
    DistributionParams,
    derive_seed,
    sample_f,
    sample_tensor,
)

COMPLETE_2CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"


def complete_2cnf() -> CnfFormula:
    return parse_dimacs(COMPLETE_2CNF)


@st.composite
def formulas(draw, max_n=6, max_m=8, max_width=3):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    clauses = []
    for _ in range(m):
        variables = draw(
            st.sets(st.integers(1, n), min_size=1, max_size=min(n, max_width))
        )
        signs = draw(
            st.lists(
                st.booleans(), min_size=len(variables), max_size=len(variables)
            )
        )
        clauses.append(
            Clause(tuple(Literal(v, s) for v, s in zip(sorted(variables), signs)))
        )
    return CnfFormula(n, tuple(clauses))


@st.composite
def dpll_edge_formulas(draw):
    """Formulas of width up to 8 (four free-count planes), with repeated
    clauses and unit clauses mixed in at any position.
    """
    f = draw(formulas(max_n=10, max_m=30, max_width=8))
    repeats = draw(st.lists(st.sampled_from(f.clauses), max_size=4))
    units = draw(
        st.lists(
            st.builds(Literal, st.integers(1, f.n), st.booleans()), max_size=3
        )
    )
    clauses = draw(
        st.permutations(list(f.clauses) + repeats + [Clause((u,)) for u in units])
    )
    return CnfFormula(f.n, tuple(clauses))


# An unsatisfiable 3-CNF over SOLVER_CAP variables, with one clause of width 8
AT_THE_CAP = CnfFormula(
    SOLVER_CAP,
    (Clause.from_signed(range(17, 25)),)
    + sample_f(DistributionParams(120, SOLVER_CAP, 3, 1)).clauses,
)


def assert_matches_counter_search(f: CnfFormula) -> Assignment | None:
    """``dpll`` and the counter search agree on the witness, logged and
    unlogged, and write the same log line for line.
    """
    log, expected_log = [], []
    expected = dpll_oracle(f, expected_log)
    assert dpll(f, log) == expected
    assert log == expected_log
    assert dpll(f) == dpll_oracle(f) == expected
    return expected


class TestParsing:
    def test_basic(self):
        f = parse_dimacs("p cnf 2 2\n1 -2 0\n-1 2 0")
        assert f.n == 2 and f.m == 2
        assert f.clauses[0].signed() == (1, -2)
        assert f.clauses[1].signed() == (-1, 2)

    def test_repeated_variable_rejected(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p cnf 1 1\n1 -1 0")

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError, match="out of range"):
            parse_dimacs("p cnf 2 1\n3 0")

    def test_count_mismatch(self):
        with pytest.raises(DimacsError, match="declares 2"):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_comments_and_whitespace(self):
        f = parse_dimacs("c hello\np cnf 1 1\nc mid\n1 0   \n")
        assert f.m == 1

    def test_missing_header(self):
        with pytest.raises(DimacsError):
            parse_dimacs("1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(DimacsError, match="unterminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    @settings(max_examples=60)
    @given(formulas())
    def test_roundtrip_identity(self, f):
        again = parse_dimacs(serialize_dimacs(f))
        assert again.n == f.n
        assert again.clauses == f.clauses


class TestEvalAndEncoding:
    def test_eval_clause_examples(self):
        c = Clause.from_signed([1, -2])
        assert eval_clause(c, Assignment.from_map({1: 1, 2: 1})) is True
        assert eval_clause(c, Assignment.from_map({1: 0, 2: 1})) is False
        assert eval_clause(Clause.from_signed([-1]), Assignment.from_map({1: 0}))

    def test_eval_out_of_scope(self):
        with pytest.raises(ScopeError):
            eval_clause(Clause.from_signed([1, 2]), Assignment.from_map({1: 0}))

    def test_encoding_examples(self):
        ineq = clause_to_inequality(Clause.from_signed([1, -2]), 2)
        assert ineq.coeffs == (1, -1) and ineq.constant == 0
        ineq = clause_to_inequality(Clause.from_signed([1]), 1)
        assert ineq.coeffs == (1,) and ineq.constant == 1
        ineq = clause_to_inequality(Clause.from_signed([-1, -2]), 2)
        assert ineq.coeffs == (-1, -1) and ineq.constant == -1

    def test_encoding_past_n(self):
        with pytest.raises(ValueError) as info:
            clause_to_inequality(Clause.from_signed([1, -3]), 2)
        assert str(info.value) == "clause variable 3 > n=2"

    @settings(max_examples=80)
    @given(formulas(max_n=8, max_m=3, max_width=8))
    def test_clause_iff_inequality(self, f):
        # a clause and its encoding agree on every total assignment
        for clause in f.clauses:
            ineq = clause_to_inequality(clause, f.n)
            for idx in range(1 << f.n):
                a = Assignment.from_index(tuple(range(1, f.n + 1)), idx)
                assert eval_clause(clause, a) == ineq.holds(a.as_map())


class TestBruteForce:
    def test_contradiction(self):
        assert brute_force_sat(parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")) is None

    def test_lexicographic_witness(self):
        w = brute_force_sat(parse_dimacs("p cnf 2 1\n1 2 0\n"))
        assert w == Assignment.from_map({1: 0, 2: 1})

    def test_complete_2cnf_unsat(self):
        assert brute_force_sat(complete_2cnf()) is None

    def test_cap(self):
        f = CnfFormula(30, (Clause.from_signed([1]),))
        with pytest.raises(CapExceededError):
            brute_force_sat(f)

    def test_against_enumeration_oracle(self):
        rng = random.Random(1234)
        for _ in range(60):
            n = rng.randint(1, 9)
            f = random_formula(rng, n, rng.randint(1, 4 * n))
            expected = exhaustive_sat(f)
            got = brute_force_sat(f)
            if expected is None:
                assert got is None
            else:
                # the solver promises the lexicographically least witness
                assert got == expected

    def test_oracle_agreement_at_larger_sizes(self):
        rng = random.Random(5150)
        for n in (12, 14):
            for _ in range(3):
                f = random_formula(rng, n, rng.randint(2 * n, 4 * n))
                expected = exhaustive_sat(f)
                got = brute_force_sat(f)
                assert (got is None) == (expected is None)
                if expected is not None:
                    assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(formulas(max_n=8, max_m=24, max_width=3))
    def test_dpll_matches_enumeration(self, f):
        # one search serves both entry points: the least witness, or else a
        # valid resolution refutation
        expected = exhaustive_sat(f)
        assert brute_force_sat(f) == expected
        if expected is None:
            assert resolution_problems(resolution_refutation_from_dpll(f)) == []

    @settings(max_examples=100, deadline=None)
    @given(dpll_edge_formulas())
    def test_dpll_matches_counter_search(self, f):
        assert_matches_counter_search(f)

    def test_at_the_cap_is_refuted(self):
        assert AT_THE_CAP.n == SOLVER_CAP and AT_THE_CAP.width == 8
        assert assert_matches_counter_search(AT_THE_CAP) is None

    @pytest.mark.parametrize("n", [0, 5])
    def test_no_clauses_give_the_all_zero_witness(self, n):
        expected = Assignment.from_map(dict.fromkeys(range(1, n + 1), 0))
        assert assert_matches_counter_search(CnfFormula(n, ())) == expected

    def test_corpus_matches_counter_search(self):
        # 21 random 3-CNFs at each n from 3 to 20 (m from 2n to 6n), and 12
        # tensor formulas over 16 variables at each of m=160 and m=384
        corpus = [
            sample_f(DistributionParams(m, n, 3, derive_seed(n, "f", i)))
            for n in range(3, 21)
            for i, m in enumerate(n * (10 + j) // 5 for j in range(21))
        ] + [
            sample_tensor(DistributionParams(m, 8, 2, derive_seed(m, "t", i)))[0]
            for m in (160, 384)
            for i in range(12)
        ]
        # the oracle runs once, with its log; the unlogged search's witness
        # is compared with the logged one
        verdicts = []
        for f in corpus:
            log, expected_log = [], []
            witness = dpll_oracle(f, expected_log)
            assert dpll(f, log) == witness
            assert log == expected_log
            assert dpll(f) == witness
            verdicts.append(witness is None)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_witness_satisfies(self):
        rng = random.Random(99)
        for _ in range(40):
            f = random_formula(rng, 6, 8)
            w = brute_force_sat(f)
            if w is not None:
                assert all(eval_clause(c, w) for c in f.clauses)


class TestSearchViolation:
    def test_examples(self):
        f = complete_2cnf()
        part = VariablePartition((1,), (2,))
        x0, y0 = Assignment.from_map({1: 0}), Assignment.from_map({2: 0})
        x1, y1 = Assignment.from_map({1: 1}), Assignment.from_map({2: 1})
        assert search_violation(f, part, x0, y0) == 1
        assert search_violation(f, part, x1, y1) == 4

    def test_no_violation(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        part = VariablePartition((1,), (2,))
        with pytest.raises(NoViolationError):
            search_violation(
                f, part, Assignment.from_map({1: 1}), Assignment.from_map({2: 0})
            )

    def test_returns_smallest_index(self):
        rng = random.Random(7)
        for _ in range(30):
            f = random_formula(rng, 6, 10)
            part = VariablePartition.alternating(6)
            x = part.x_assignment(rng.randrange(1 << part.n1))
            y = part.y_assignment(rng.randrange(1 << part.n2))
            joint = x.union(y)
            falsified = [
                i
                for i, c in enumerate(f.clauses, start=1)
                if not eval_clause(c, joint)
            ]
            if falsified:
                assert search_violation(f, part, x, y) == falsified[0]
            else:
                with pytest.raises(NoViolationError):
                    search_violation(f, part, x, y)


class TestValidators:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Literal(0), "variable index must be >= 1, got 0"),
            (lambda: Literal(-3), "variable index must be >= 1, got -3"),
            (lambda: Literal.from_signed(0), "0 is not a literal"),
            (lambda: Clause(()), "a clause must contain at least one literal"),
            (
                lambda: Clause.from_signed([2, 1, -2]),
                "variable 2 repeated within a clause",
            ),
            (lambda: CnfFormula(-1, ()), "variable count must be nonnegative"),
            (
                lambda: CnfFormula(
                    2, (Clause.from_signed([1]), Clause.from_signed([-3, 2]))
                ),
                "clause 2 mentions variable 3 > n=2",
            ),
            (
                lambda: Assignment(((2, 0), (1, 1))),
                "assignment items must be sorted by distinct variable",
            ),
            (
                lambda: Assignment(((1, 0), (1, 1))),
                "assignment items must be sorted by distinct variable",
            ),
            (
                lambda: Assignment(((1, 0), (2, 2))),
                "assignment value for 2 must be 0 or 1",
            ),
            (
                lambda: Assignment.from_map({1: 0, 2: 1}).union(
                    Assignment.from_map({2: 0, 3: 1})
                ),
                "conflicting values for variable 2",
            ),
            (
                lambda: Assignment.from_index((2, 5, 7), 8),
                "index 8 out of range for 3 variables",
            ),
            (
                lambda: Assignment.from_index((2, 5), -1),
                "index -1 out of range for 2 variables",
            ),
            (
                lambda: VariablePartition((1, 3, 1), (2,)),
                "partition sides must not repeat variables",
            ),
            (
                lambda: VariablePartition((1,), (2, 3, 2)),
                "partition sides must not repeat variables",
            ),
            (
                lambda: VariablePartition((1, 2, 4), (2, 3, 4)),
                "partition sides overlap on [2, 4]",
            ),
            (
                lambda: VariablePartition((1,), (3,)),
                "partition must cover exactly the variables 1..n",
            ),
        ],
        ids=[
            "literal-zero", "literal-negative", "from-signed-zero", "empty-clause",
            "repeated-variable", "negative-n", "clause-out-of-scope",
            "assignment-unsorted", "assignment-repeated", "assignment-value",
            "conflicting-union", "index-too-large", "index-negative",
            "partition-x-repeats", "partition-y-repeats", "partition-overlap",
            "partition-gap",
        ],
    )
    def test_rejects_with_message(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_exact_sides_name_the_side(self, side):
        part = VariablePartition((1,), (2,))
        sides = {"x": Assignment.from_map({1: 0}), "y": Assignment.from_map({2: 1})}
        sides[side] = Assignment.from_map({1: 0, 2: 1})
        with pytest.raises(ScopeError) as info:
            part.check_exact_sides(sides["x"], sides["y"])
        assert str(info.value) == (
            f"{side} must be scoped exactly to the partition's {side.upper()} side"
        )


class TestStructures:
    def test_clause_invariants(self):
        with pytest.raises(ValueError):
            Clause(())
        with pytest.raises(ValueError):
            Clause.from_signed([1, -1])

    def test_partition_invariants(self):
        with pytest.raises(ValueError):
            VariablePartition((1, 2), (2, 3))
        with pytest.raises(ValueError):
            VariablePartition((1,), (3,))
        part = VariablePartition.alternating(5)
        assert part.xvars == (1, 3, 5) and part.yvars == (2, 4)

    def test_assignment_index_roundtrip(self):
        variables = (2, 5, 7)
        for idx in range(8):
            a = Assignment.from_index(variables, idx)
            assert a.to_index(variables) == idx

    def test_density_and_width(self):
        f = complete_2cnf()
        assert f.density == 2
        assert f.width == 2

    def test_density_needs_variables(self):
        with pytest.raises(ValueError) as info:
            parse_dimacs("p cnf 0 0\n").density
        assert str(info.value) == "density undefined for a formula with no variables"
