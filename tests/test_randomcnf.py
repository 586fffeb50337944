import ast
import hashlib
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import proofbench
from helpers import (
    count_satisfying,
    heavy_sat_oracle,
    heavy_side_counts_oracle,
    min_pair_union_oracle,
    profile_oracle,
    sample_f_oracle,
    sample_tensor_oracle,
    sampled_min_union_oracle,
    sampled_profiles_oracle,
)
from proofbench.cli import main
from proofbench.cnf import Clause, CnfFormula, Literal, VariablePartition, parse_dimacs
from proofbench.cspsat import ConstraintGraph, CspSatInstance, agreement_count
from proofbench.errors import CapExceededError, ScopeError
from proofbench.randomcnf import (
    DistributionParams,
    _below,
    _sample_indices,
    binary_entropy,
    derive_seed,
    expansion_report,
    expansion_regime_max_size,
    heavy_clause_bound,
    heavy_partition_search,
    heavy_sat_fraction,
    heavy_side_counts,
    profile_distinctness,
    sample_f,
    sample_tensor,
    unsat_rate,
)

# Every output whose bytes rest on bounded and subset draws. Sampled expansion
# sizes cover sample's pool branch (m <= 21 at s <= 5, m <= 85 at s = 6..8),
# its set branch (m above those sizes) and the enlarged set size of s > 5;
# the agreement counts cover N = 16, 48 and 128 positions at r = 3, 6 and
# 12; gen writes formulas of both distributions.
DRAWS_STATS = [
    ["--n", "80", "--d", "3", "--m", "20", "--s-max", "3", "--trials", "7",
     "--seed", "1"],
    ["--n", "80", "--d", "3", "--m", "21", "--s-max", "3", "--trials", "400",
     "--seed", "2"],
    ["--n", "300", "--d", "6", "--m", "600", "--s-max", "3", "--trials", "40",
     "--seed", "3"],
    ["--n", "40", "--d", "3", "--m", "22", "--s-max", "5", "--trials", "9",
     "--seed", "4", "--beyond-regime"],
    ["--n", "40", "--d", "3", "--m", "60", "--s-max", "8", "--trials", "30",
     "--seed", "5", "--beyond-regime"],
    ["--n", "60", "--d", "2", "--m", "85", "--s-max", "6", "--trials", "25",
     "--seed", "6", "--beyond-regime"],
    ["--n", "60", "--d", "2", "--m", "86", "--s-max", "6", "--trials", "25",
     "--seed", "7", "--beyond-regime"],
    ["--n", "50", "--d", "3", "--m", "200", "--s-max", "12", "--trials", "20",
     "--seed", "8", "--beyond-regime"],
    ["--dist", "tensor", "--n", "30", "--d", "2", "--m", "40", "--s-max", "7",
     "--trials", "15", "--seed", "9", "--beyond-regime"],
]
DRAWS_GEN = [
    [*dist, "--n", n, "--d", d, "--m", m, "--seed", seed]
    for dist in ([], ["--dist", "tensor"])
    for n, d, m, seed in [("1", "1", "3", "0"), ("12", "3", "50", "1"),
                          ("40", "5", "120", "2"), ("200", "12", "30", "3")]
]
DRAWS_DIGEST = "b3fd64774fa9edbffd6c939a9284410236656d1f93f302ac873eac7e50052799"


def agreement_batch():
    """Sampled agreement counts on 40 instances of 16, 48 and 128 positions
    (unary and ternary constraints), each bit equal to b with chance 7/8.
    """
    rng = random.Random(16)
    for arity, blocks in [(1, 8), (3, 6), (3, 16)]:
        graph = ConstraintGraph(
            tuple(range(1, 3 * blocks + 1)),
            tuple(tuple(range(3 * i + 1, 3 * i + arity + 1)) for i in range(blocks)),
        )
        full = (1 << graph.size) - 1
        for b in (0, 1):
            insts = []
            for _ in range(40):
                ones = rng.getrandbits(graph.size)
                ones |= rng.getrandbits(graph.size) | rng.getrandbits(graph.size)
                insts.append(CspSatInstance(graph, ones if b else full ^ ones))
            for r in (3, 6, 12):
                yield insts, r, b


def test_draws_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for args in DRAWS_STATS:
        argv = ["stats", "--stat", "expansion", *args, "--report", "r.json"]
        assert main(argv) == 0, args
        digest.update(Path("r.json").read_bytes())
    for args in DRAWS_GEN:
        argv = ["gen", *args, "--out", "f.cnf", "--report", "g.json"]
        assert main(argv) == 0, args
        digest.update(Path("f.cnf").read_bytes() + Path("g.json").read_bytes())
    for seed, (insts, r, b) in enumerate(agreement_batch()):
        count = agreement_count(insts, r, b, mode="sampled", trials=30, seed=seed)
        digest.update(b"A%d;" % count.value)
    assert digest.hexdigest() == DRAWS_DIGEST


# Every Random draw but getrandbits. Python promises a seed's sequence only
# for random(), and src reads nothing but the generator's raw bits, so no
# report depends on how a release builds other draws from them.
STDLIB_DRAWS = {
    "randrange", "randint", "sample", "choice", "choices", "shuffle", "random",
    "uniform",
}


def test_only_getrandbits_leaves_random():
    calls = []
    for path in sorted(Path(proofbench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in STDLIB_DRAWS
            ):
                calls.append(f"{path.name}:{node.lineno}: {node.func.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                calls.append(f"{path.name}:{node.lineno}: from random import")
    assert calls == []


# sample's table size is 21 for k <= 5, 85 for k = 6..21 and 277 for
# k = 22..40: it swaps picks out of a pool at n <= that size and redraws
# repeats above it.
SETSIZE_EDGES = [(21, 0, 5), (85, 6, 21), (277, 22, 40)]


@st.composite
def draw_sizes(draw):
    """(n, k) with 1 <= n <= 3000 and 0 <= k <= min(n, 40); half of them at
    a branch edge of sample.
    """
    if draw(st.booleans()):
        edge, k_lo, k_hi = draw(st.sampled_from(SETSIZE_EDGES))
        n = edge + draw(st.integers(-1, 1))
        return n, draw(st.integers(k_lo, k_hi))
    n = draw(st.integers(1, 3000))
    return n, draw(st.integers(0, min(n, 40)))


@settings(max_examples=150, deadline=None)
@given(draw_sizes(), st.integers(0, 2**64))
@example((1, 1), 0)
@example((21, 5), 1)
@example((22, 5), 2)
@example((85, 6), 3)
@example((86, 21), 4)
@example((3000, 40), 5)
def test_draws_match_stdlib(sizes, seed):
    # the same values, and the generators left in the same state
    n, k = sizes
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _below(ours.getrandbits, n) == theirs.randrange(n)
    assert _sample_indices(ours.getrandbits, n, k) == theirs.sample(range(n), k)
    assert ours.random() == theirs.random()


class TestSeeding:
    def test_derive_seed_is_stable(self):
        a = derive_seed(42, "purpose", 3)
        assert a == derive_seed(42, "purpose", 3)
        assert a != derive_seed(42, "purpose", 4)
        assert a != derive_seed(43, "purpose", 3)
        # frozen value documents the contract across releases
        assert derive_seed(0, "anchor") == 13714262254464801021


class TestSampling:
    def test_shape_and_determinism(self):
        p = DistributionParams(3, 4, 2, 42)
        f = sample_f(p)
        assert f.m == 3 and f.n == 4
        assert all(c.width == 2 for c in f.clauses)
        assert all(len(c.vars) == 2 for c in f.clauses)
        assert sample_f(p) == f

    def test_tensor_shape(self):
        f, part = sample_tensor(DistributionParams(2, 3, 2, 7))
        assert f.n == 6 and f.m == 2
        assert part.xvars == (1, 2, 3) and part.yvars == (4, 5, 6)
        for clause in f.clauses:
            assert clause.width == 4
            assert len(clause.vars & part.xset) == 2
            assert len(clause.vars & part.yset) == 2
        assert sample_tensor(DistributionParams(2, 3, 2, 7))[0] == f

    def test_shared_pool_matches_fresh_pools(self):
        # One variable pool per call, each draw undoing its swaps, against
        # the sampler that built a fresh pool for every clause. The largest
        # case (criterion 9's formula) runs through sample_f only.
        big = DistributionParams(4000, 1000, 6, 1)
        assert sample_f(big) == sample_f_oracle(big)
        rng = random.Random(29)
        for _ in range(29):
            n = rng.choice((1, 2, 3, 5, 8, 13, 40, 200))
            d = rng.randint(1, min(n, 8))
            params = DistributionParams(rng.randint(1, 300), n, d, rng.getrandbits(48))
            assert sample_f(params) == sample_f_oracle(params), params
            assert sample_tensor(params)[0] == sample_tensor_oracle(params), params

    @pytest.mark.parametrize(
        "m, n, d",
        [(1500, 14, 3), (1200, 300, 6), (2048, 128, 16), (400, 32, 6)],
        ids=["profiles", "expansion", "heavy-partition", "heavy-sat"],
    )
    def test_report_sizes_match_fresh_pools(self, m, n, d):
        # the sizes the stats reports are benchmarked at
        params = DistributionParams(m, n, d, derive_seed(31, "report-size", n))
        assert sample_f(params) == sample_f_oracle(params)

    def test_full_width_tensor_matches_fresh_pools(self):
        # d = n: every draw swaps through the whole pool on both sides
        for n in (1, 5, 16):
            params = DistributionParams(300, n, n, derive_seed(37, "full-width", n))
            assert sample_tensor(params)[0] == sample_tensor_oracle(params)

    def test_sign_balance(self):
        positives = 0
        for i in range(1000):
            f = sample_f(DistributionParams(1, 1, 1, derive_seed(9, "signs", i)))
            positives += not f.clauses[0].literals[0].negated
        assert 450 <= positives <= 550

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DistributionParams(1, 2, 3, 0)
        with pytest.raises(ValueError):
            DistributionParams(0, 2, 1, 0)


class TestUnsatRate:
    def test_single_clause_always_sat(self):
        report = unsat_rate(DistributionParams(1, 3, 2, 5), tensor=False, samples=10)
        assert report.rate == 0

    def test_dense_tensor_unsat(self):
        report = unsat_rate(DistributionParams(64, 2, 1, 11), tensor=True, samples=10)
        assert report.rate >= Fraction(9, 10)

    def test_rate_matches_oracle(self):
        report = unsat_rate(DistributionParams(12, 3, 2, 3), tensor=False, samples=15)
        recount = 0
        for row in report.samples:
            f = sample_f(DistributionParams(12, 3, 2, row.seed))
            unsat = count_satisfying(f) == 0
            assert unsat == row.unsat
            recount += unsat
        assert report.rate == Fraction(recount, 15)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            unsat_rate(DistributionParams(4, 30, 2, 0), tensor=False, samples=1)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_is_an_error(self, samples):
        # zero samples must not report a rate of 0 as if it were measured
        with pytest.raises(ValueError, match="samples"):
            unsat_rate(DistributionParams(4, 3, 2, 0), tensor=False, samples=samples)


class TestExpansion:
    def test_single_clause_always_passes(self):
        c = Clause.from_signed([1, 2, 3])
        report = expansion_report(
            CnfFormula(3, (c,)), Fraction(1, 2), 1, allow_beyond_regime=True
        )
        assert report.rows[0].min_vars == 3
        assert report.all_pass

    def test_duplicate_clause_boundary(self):
        c = Clause.from_signed([1, 2, 3])
        report = expansion_report(
            CnfFormula(3, (c, c)), Fraction(1, 2), 2, allow_beyond_regime=True
        )
        row = report.rows[1]
        assert row.min_vars == 3 and row.threshold == 3 and row.passed

    def test_exact_matches_full_sampling(self):
        # with few clauses, heavy sampling covers every triple (20 among 6
        # clauses), so the sampled size 3 finds the exhaustive minimum
        f = sample_f(DistributionParams(6, 10, 3, 17))
        report = expansion_report(
            f, Fraction(1, 2), 3, trials=4000, seed=8, allow_beyond_regime=True
        )
        assert [r.mode for r in report.rows] == ["exact", "exact", "sampled"]
        sets = [c.vars for c in f.clauses]
        best = min(
            len(sets[i] | sets[j] | sets[k])
            for i in range(6)
            for j in range(i + 1, 6)
            for k in range(j + 1, 6)
        )
        assert report.rows[2].min_vars == best

    def test_exact_three_subsets(self):
        # sizes 1 and 2 are exhausted; with 35 triples among 7 clauses,
        # 4000 samples of size 3 cover every triple
        f = sample_f(DistributionParams(7, 12, 3, 23))
        report = expansion_report(
            f, Fraction(1, 2), 3, trials=4000, seed=8, allow_beyond_regime=True
        )
        sets = [c.vars for c in f.clauses]
        for row in report.rows:
            best = min(
                len(frozenset().union(*combo))
                for combo in itertools.combinations(sets, row.size)
            )
            assert row.min_vars == best

    def test_regime_guard(self):
        f = sample_f(DistributionParams(10, 8, 3, 1))
        assert expansion_regime_max_size(8, 3) == 0
        with pytest.raises(ValueError, match="regime"):
            expansion_report(f, Fraction(1, 2), 2)

    def test_modes_recorded(self):
        f = sample_f(DistributionParams(30, 40, 3, 2))
        report = expansion_report(
            f, Fraction(1, 2), 3, trials=200, seed=1, allow_beyond_regime=True
        )
        assert [r.mode for r in report.rows] == ["exact", "exact", "sampled"]
        assert report.rows[2].trials == 200

    def test_zero_trials_for_a_sampled_size(self):
        f = sample_f(DistributionParams(30, 40, 3, 2))
        with pytest.raises(ValueError, match="trials"):
            expansion_report(
                f, Fraction(1, 2), 3, trials=0, allow_beyond_regime=True
            )
        # trials are unused when every size is exhausted
        exact = expansion_report(
            f, Fraction(1, 2), 2, trials=0, allow_beyond_regime=True
        )
        assert [r.mode for r in exact.rows] == ["exact", "exact"]

    @pytest.mark.parametrize("s_max", [0, -2])
    def test_no_size_to_check(self, s_max):
        # an empty row list must not be reported as every size passing
        f = sample_f(DistributionParams(10, 5, 3, 0))
        with pytest.raises(ValueError, match="no clause-set size"):
            expansion_report(f, Fraction(1, 2), s_max)

    def test_formula_without_clauses(self):
        with pytest.raises(ValueError, match="no clause-set size"):
            expansion_report(
                CnfFormula(3, ()), Fraction(1, 2), 1, allow_beyond_regime=True
            )

    @pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(1), Fraction(-1, 2)])
    def test_epsilon_out_of_range(self, epsilon):
        f = sample_f(DistributionParams(10, 5, 3, 0))
        with pytest.raises(
            ValueError, match="^epsilon must lie strictly between 0 and 1$"
        ):
            expansion_report(f, epsilon, 1, allow_beyond_regime=True)


class TestProfiles:
    def test_contradiction_profiles_distinct(self):
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
        assert profile_distinctness(f).distinct

    def test_single_clause_collides(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        report = profile_distinctness(f)
        assert not report.distinct
        assert report.collisions == 2  # assignments 01, 10, 11 share a profile

    def test_sampled_mode(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        report = profile_distinctness(f, mode="sampled", seed=3, trials=500)
        assert report.mode == "sampled"
        assert report.collisions > 0

    def test_exact_matches_pairwise_oracle(self):
        rng = random.Random(51)
        for _ in range(10):
            f = sample_f(DistributionParams(rng.randint(2, 20), 6, 2, rng.getrandbits(32)))
            report = profile_distinctness(f)
            profiles = []
            for idx in range(1 << f.n):
                a = {v + 1: (idx >> v) & 1 for v in range(f.n)}
                from proofbench.cnf import Assignment, eval_clause

                assign = Assignment.from_map(a)
                profiles.append(
                    frozenset(
                        i
                        for i, c in enumerate(f.clauses)
                        if not eval_clause(c, assign)
                    )
                )
            assert report.distinct == (len(set(profiles)) == len(profiles))

    def test_cap(self):
        f = sample_f(DistributionParams(4, 22, 2, 0))
        with pytest.raises(CapExceededError):
            profile_distinctness(f)

    def test_sampled_zero_trials(self):
        # zero sampled pairs must not report the profiles distinct
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        with pytest.raises(ValueError, match="trials"):
            profile_distinctness(f, mode="sampled", trials=0)

    def test_sampled_without_variables(self):
        # every draw of a formula with no variables is the same assignment,
        # so no pair could be compared
        f = parse_dimacs("p cnf 0 0\n")
        with pytest.raises(
            ValueError,
            match="^sampled mode needs a variable to draw: the formula has n=0$",
        ):
            profile_distinctness(f, mode="sampled", trials=5)
        exact = profile_distinctness(f)
        assert (exact.rows_checked, exact.collisions, exact.distinct) == (1, 0, True)

    def test_unknown_mode(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        with pytest.raises(ValueError, match="^unknown mode 'fast'$"):
            profile_distinctness(f, mode="fast")


class TestEntropyAndBounds:
    def test_entropy_values(self):
        assert binary_entropy(Fraction(1, 2)) == pytest.approx(1.0)
        assert binary_entropy(Fraction(1, 4)) == pytest.approx(0.811278, abs=1e-6)
        assert binary_entropy(Fraction(1, 4)) == binary_entropy(Fraction(3, 4))

    @pytest.mark.parametrize("e", [0, 1, Fraction(3, 2), -0.25])
    def test_entropy_range(self, e):
        with pytest.raises(
            ValueError, match="^entropy argument must lie strictly between 0 and 1$"
        ):
            binary_entropy(e)

    def test_heavy_bound_monotone_in_width(self):
        for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(2, 5)):
            values = [heavy_clause_bound(1000, d, eps) for d in range(2, 20)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_heavy_bound_matches_formula(self):
        m, d, eps = 2048, 16, Fraction(1, 4)
        expected = m * 2 ** (-(1 - binary_entropy(eps)) * d + 1)
        assert heavy_clause_bound(m, d, eps) == pytest.approx(expected)


class TestHeavyCounts:
    def test_reference_clause(self):
        f = CnfFormula(4, (Clause.from_signed([1, 2, 3, 4]),))
        balanced = VariablePartition((1, 2), (3, 4))
        z_x, z_y, _ = heavy_side_counts(f, balanced, Fraction(1, 4))
        assert (z_x, z_y) == (0, 0)  # 2 X-vars <= 3 = (1 - eps) d
        lopsided = VariablePartition((1, 2, 3, 4), ())
        z_x, z_y, w_max = heavy_side_counts(f, lopsided, Fraction(1, 4))
        assert z_x == 1 and z_y == 0 and w_max == 1  # 4 > 3, X-heavy

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(2, 12),
        st.integers(1, 30),
        st.integers(0, 2**32),
        st.data(),
    )
    @example(3, 6, 20, 1, None)
    def test_floor_cut_matches_fraction_cut(self, d, n, m, seed, data):
        # epsilons where (1 - eps) * d is an integer put counts exactly at the
        # cut, which must stay not heavy
        assume(d <= n)
        f = sample_f(DistributionParams(m, n, d, seed))
        rng = random.Random(seed)
        xs = tuple(v for v in range(1, n + 1) if rng.random() < 0.5)
        part = VariablePartition(xs, tuple(v for v in range(1, n + 1) if v not in xs))
        at_cut = [Fraction(k, d) for k in range(d + 1)]
        if data is None:
            epsilons = at_cut
        else:
            epsilons = [
                data.draw(st.sampled_from(at_cut)),
                data.draw(st.fractions(Fraction(-1, 2), Fraction(3, 2))),
            ]
        for eps in epsilons:
            assert heavy_side_counts(f, part, eps) == heavy_side_counts_oracle(
                f, part, eps
            )

    def test_independent_recount(self):
        f = sample_f(DistributionParams(200, 32, 8, 13))
        part = VariablePartition.alternating(32)
        eps = Fraction(1, 4)
        z_x, z_y, w_max = heavy_side_counts(f, part, eps)
        cut = (1 - eps) * f.width
        x_heavy = [i for i, c in enumerate(f.clauses) if len(c.vars & part.xset) > cut]
        y_heavy = [i for i, c in enumerate(f.clauses) if len(c.vars & part.yset) > cut]
        assert (len(x_heavy), len(y_heavy)) == (z_x, z_y)
        incidence = {}
        for i in x_heavy:
            for v in f.clauses[i].vars & part.xset:
                incidence[v] = incidence.get(v, 0) + 1
        for i in y_heavy:
            for v in f.clauses[i].vars & part.yset:
                incidence[v] = incidence.get(v, 0) + 1
        assert max(incidence.values(), default=0) == w_max


class TestHeavyPartitionSearch:
    def test_acceptance_scale(self):
        f = sample_f(DistributionParams(2048, 128, 16, 3))
        report = heavy_partition_search(f, Fraction(1, 4), max_trials=1000, seed=9)
        assert report.accepted
        assert report.z_x <= report.m_prime and report.z_y <= report.m_prime
        assert report.w_max <= report.m_prime * f.width / f.n
        # independent recount agreement
        z_x, z_y, w_max = heavy_side_counts(f, report.partition, Fraction(1, 4))
        assert (z_x, z_y, w_max) == (report.z_x, report.z_y, report.w_max)

    def test_unacceptable_bounds_reported(self):
        # at epsilon = 9/10 one variable on a side makes a clause heavy there,
        # so the heavy counts stay far above m' (about 4.4) in every trial
        f = sample_f(DistributionParams(20, 8, 6, 4))
        report = heavy_partition_search(
            f, Fraction(9, 10), max_trials=16, seed=2
        )
        assert not report.accepted
        assert report.trials_used == 16

    def test_determinism(self):
        f = sample_f(DistributionParams(100, 24, 6, 8))
        a = heavy_partition_search(f, Fraction(1, 4), max_trials=50, seed=5)
        b = heavy_partition_search(f, Fraction(1, 4), max_trials=50, seed=5)
        assert a == b

    def test_zero_trials(self):
        f = sample_f(DistributionParams(100, 24, 6, 8))
        with pytest.raises(ValueError, match="trials"):
            heavy_partition_search(f, Fraction(1, 4), max_trials=0)

    def test_one_variable_has_no_two_sided_partition(self):
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
        with pytest.raises(ValueError, match="n >= 2"):
            heavy_partition_search(f, Fraction(1, 4))

    def test_every_trial_leaves_a_side_empty(self):
        # the formula of `stats --stat heavy-partition --n 2 --d 1 --m 1
        # --seed 1`: its first fair-coin split puts both variables on one side
        f = sample_f(DistributionParams(1, 2, 1, 1))
        with pytest.raises(ValueError, match="^all 1 trials left a side empty$"):
            heavy_partition_search(f, Fraction(1, 2), max_trials=1, seed=1)
        report = heavy_partition_search(f, Fraction(1, 2), max_trials=5, seed=1)
        assert report.accepted and report.trials_used == 2

    @pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(1), Fraction(-1, 2)])
    def test_epsilon_out_of_range(self, epsilon):
        f = sample_f(DistributionParams(10, 5, 3, 0))
        with pytest.raises(
            ValueError, match="^epsilon must lie strictly between 0 and 1$"
        ):
            heavy_partition_search(f, epsilon)


class TestHeavySatFraction:
    def test_no_heavy_clauses(self):
        f = CnfFormula(4, (Clause.from_signed([1, 2, 3, 4]),))
        part = VariablePartition((1, 2), (3, 4))
        report = heavy_sat_fraction(f, part, "x", Fraction(1, 4))
        assert report.heavy_count == 0 and report.fraction == 1

    def test_single_heavy_clause(self):
        # width-3 clause entirely on the X side: 3 > (3/4) * 3
        f = CnfFormula(4, (Clause.from_signed([1, -2, 3]),))
        part = VariablePartition((1, 2, 3), (4,))
        report = heavy_sat_fraction(f, part, "x", Fraction(1, 4))
        assert report.heavy_count == 1
        assert report.fraction == Fraction(7, 8)

    def test_two_disjoint_heavy_clauses(self):
        f = CnfFormula(
            8,
            (
                Clause.from_signed([1, 2, 3]),
                Clause.from_signed([-4, 5, -6]),
            ),
        )
        part = VariablePartition((1, 2, 3, 4, 5, 6), (7, 8))
        report = heavy_sat_fraction(f, part, "x", Fraction(1, 4))
        assert report.heavy_count == 2
        assert report.fraction == Fraction(49, 64)

    def test_sampled_mode_near_exact(self):
        f = CnfFormula(4, (Clause.from_signed([1, -2, 3]),))
        part = VariablePartition((1, 2, 3), (4,))
        exact = heavy_sat_fraction(f, part, "x", Fraction(1, 4))
        approx = heavy_sat_fraction(
            f, part, "x", Fraction(1, 4), mode="sampled", trials=4000, seed=7
        )
        assert abs(float(exact.fraction) - approx.fraction) < 0.05

    def test_lll_reference_present(self):
        f = CnfFormula(4, (Clause.from_signed([1, -2, 3]),))
        part = VariablePartition((1, 2, 3), (4,))
        report = heavy_sat_fraction(f, part, "x", Fraction(1, 4))
        assert report.lll_reference == pytest.approx(math.exp(-4 / (50 * 3)))

    def test_y_side(self):
        f = CnfFormula(4, (Clause.from_signed([-2, 3, 4]),))
        part = VariablePartition((1,), (2, 3, 4))
        report = heavy_sat_fraction(f, part, "y", Fraction(1, 4))
        assert report.heavy_count == 1 and report.fraction == Fraction(7, 8)

    def test_unknown_side(self):
        f = CnfFormula(4, (Clause.from_signed([-2, 3, 4]),))
        part = VariablePartition((1,), (2, 3, 4))
        with pytest.raises(ValueError, match="^side must be 'x' or 'y'$"):
            heavy_sat_fraction(f, part, "z", Fraction(1, 4))

    def test_unknown_mode(self):
        f = CnfFormula(4, (Clause.from_signed([-2, 3, 4]),))
        part = VariablePartition((1,), (2, 3, 4))
        with pytest.raises(ValueError, match="^unknown mode 'fast'$"):
            heavy_sat_fraction(f, part, "y", Fraction(1, 4), mode="fast")

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_variable_outside_the_partition(self, mode):
        f = CnfFormula(3, (Clause.from_signed([1, -2, 3]),))
        part = VariablePartition((1,), (2,))
        with pytest.raises(
            ScopeError, match="clause variable 3 is outside the partition"
        ):
            heavy_sat_fraction(f, part, "x", Fraction(1, 4), mode=mode)

    def test_sampled_zero_trials(self):
        f = CnfFormula(4, (Clause.from_signed([1, -2, 3]),))
        part = VariablePartition((1, 2, 3), (4,))
        with pytest.raises(ValueError, match="trials"):
            heavy_sat_fraction(f, part, "x", Fraction(1, 4), mode="sampled", trials=0)

    def test_sampled_bit_i_is_side_variable_i(self):
        # Sampled mode reads getrandbits(k) with bit i as the i-th side
        # variable; replay the same draws against the clause itself.
        f = CnfFormula(
            5, (Clause.from_signed([1, 4, -5]), Clause.from_signed([2, -5]))
        )
        part = VariablePartition((5, 1, 4), (2, 3))
        report = heavy_sat_fraction(
            f, part, "x", Fraction(1, 4), mode="sampled", trials=300, seed=11
        )
        rng = random.Random(derive_seed(11, "heavy-sat"))
        heavy = f.clauses[0]
        good = 0
        for _ in range(300):
            a = rng.getrandbits(3)
            bits = {v: (a >> i) & 1 for i, v in enumerate(part.xvars)}
            good += any(lit.satisfied_by(bits[lit.var]) for lit in heavy.literals)
        assert report.heavy_count == 1
        assert report.fraction == good / 300

    @pytest.mark.parametrize("epsilon", [2, 1, 0, -1])
    def test_epsilon_outside_open_interval(self, epsilon):
        # epsilon >= 1 made every clause heavy, even one with no literal on
        # the side; epsilon <= 0 left none heavy
        f = CnfFormula(4, (Clause.from_signed([1, -2, 3]),))
        part = VariablePartition((1, 2, 3), (4,))
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            heavy_sat_fraction(f, part, "x", Fraction(epsilon))


# --- the exact kernels against the loops they replaced ---------------------------


@st.composite
def ragged_formulas(draw, max_n=7, max_m=10):
    """Formulas of mixed clause widths. Clauses are drawn from a small pool,
    so repeats are common, and optionally all of them share variable 1.
    """
    n = draw(st.integers(0, max_n))
    if n == 0:
        return CnfFormula(0, ())
    shared = draw(st.booleans())
    pool = draw(st.lists(clauses_over(n, shared), min_size=1, max_size=max_m))
    chosen = draw(st.lists(st.sampled_from(pool), max_size=max_m))
    return CnfFormula(n, tuple(chosen))


@st.composite
def clauses_over(draw, n, shared=False):
    """A clause over variables 1..n, containing variable 1 if ``shared``."""
    variables = draw(st.sets(st.integers(1, n), min_size=1, max_size=n))
    if shared:
        variables.add(1)
    return Clause(tuple(Literal(v, draw(st.booleans())) for v in sorted(variables)))


@st.composite
def block_spanning_formulas(draw):
    """Up to 200 clauses over n <= 9 variables, drawn from a pool of at most
    six, so that classes of colliding assignments outlive several 64-clause
    blocks of the exact profiles kernel.
    """
    n = draw(st.integers(1, 9))
    pool = draw(st.lists(clauses_over(n), min_size=1, max_size=6))
    m = draw(st.integers(0, 200))
    chosen = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    return CnfFormula(n, tuple(chosen))


def _formula(n, *clauses):
    return CnfFormula(n, tuple(Clause.from_signed(c) for c in clauses))


def _last_clause_splits(m):
    """m clauses: m - 1 copies of one clause, then the only clause that
    splits the classes the copies leave, at index m - 1 of the block order.
    """
    return _formula(5, *[[1, -2]] * (m - 1), [3, -4, 5])


SHARED_VAR = _formula(5, [1, 2], [-1, 3, 4], [1, -5], [-1, 2, 3, 4, 5], [1])
REPEATED = _formula(4, [1, -2], [1, -2], [3], [3], [-2, 4])
SINGLE = _formula(3, [1, -2, 3])


class TestKernelsMatchOracles:
    @settings(max_examples=100, deadline=None)
    @given(ragged_formulas())
    @example(SHARED_VAR)
    @example(REPEATED)
    @example(_formula(3, [1, 2, 3], [-1, -2, -3]))
    @example(_formula(5, [1, 2], [1, 3], [4, 5]))  # a shared pair beats the disjoint
    @example(_formula(5, [1], [-2], [3, 4, 5]))  # only a disjoint pair reaches 2
    def test_min_pair_union(self, f):
        if f.m < 2:
            return
        report = expansion_report(f, Fraction(1, 2), 2, allow_beyond_regime=True)
        var_sets = [c.vars for c in f.clauses]
        assert report.rows[1].min_vars == min_pair_union_oracle(var_sets)

    @settings(max_examples=100, deadline=None)
    @given(ragged_formulas())
    @example(CnfFormula(0, ()))
    @example(CnfFormula(4, ()))
    @example(SINGLE)
    @example(SHARED_VAR)
    @example(REPEATED)
    def test_profiles(self, f):
        report = profile_distinctness(f)
        assert report.rows_checked == 1 << f.n
        assert (report.collisions, report.witness) == profile_oracle(f)
        assert report.distinct == (report.collisions == 0)

    @settings(max_examples=50, deadline=None)
    @given(block_spanning_formulas())
    @example(_last_clause_splits(63))
    @example(_last_clause_splits(64))
    @example(_last_clause_splits(65))
    @example(_last_clause_splits(128))
    @example(_last_clause_splits(129))
    @example(CnfFormula(1, ()))
    @example(CnfFormula(6, ()))
    def test_profiles_across_blocks(self, f):
        report = profile_distinctness(f)
        assert report.rows_checked == 1 << f.n
        assert (report.collisions, report.witness) == profile_oracle(f)

    @settings(max_examples=100, deadline=None)
    @given(ragged_formulas(max_n=4), st.integers(1, 60), st.integers(0, 2**32))
    @example(SINGLE, 40, 0)
    @example(SHARED_VAR, 60, 1)
    @example(REPEATED, 60, 2)
    def test_sampled_profiles(self, f, trials, seed):
        # n <= 4: equal draws are skipped and distinct ones often collide
        assume(f.n > 0)
        report = profile_distinctness(f, mode="sampled", seed=seed, trials=trials)
        assert (
            report.collisions, report.witness, report.rows_checked
        ) == sampled_profiles_oracle(f, seed, trials)
        assert report.distinct == (report.collisions == 0)

    @settings(max_examples=40, deadline=None)
    @given(
        ragged_formulas(max_m=12),
        st.sampled_from([3, 4]),
        st.integers(1, 20),
        st.integers(0, 2**32),
    )
    @example(SHARED_VAR, 3, 1, 0)
    @example(REPEATED, 4, 25, 7)
    def test_sampled_expansion(self, f, s_max, trials, seed):
        assume(f.m >= 3)
        report = expansion_report(
            f, Fraction(1, 2), s_max, trials=trials, seed=seed,
            allow_beyond_regime=True,
        )
        var_sets = [c.vars for c in f.clauses]
        sampled = [r for r in report.rows if r.mode == "sampled"]
        assert [r.size for r in sampled] == list(range(3, min(s_max, f.m) + 1))
        for row in sampled:
            assert row.min_vars == sampled_min_union_oracle(
                var_sets, row.size, trials, seed
            )

    @settings(max_examples=100, deadline=None)
    @given(
        ragged_formulas(),
        st.randoms(use_true_random=False),
        st.sampled_from("xy"),
        st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
    )
    @example(CnfFormula(0, ()), random.Random(0), "x", Fraction(1, 2))
    @example(SINGLE, random.Random(0), "y", Fraction(1, 4))
    @example(SHARED_VAR, random.Random(1), "x", Fraction(1, 2))
    @example(REPEATED, random.Random(2), "y", Fraction(3, 4))
    def test_heavy_sat(self, f, rng, side, epsilon):
        # a random partition, one side possibly empty (k = 0)
        variables = list(range(1, f.n + 1))
        rng.shuffle(variables)
        cut = rng.randint(0, f.n)
        part = VariablePartition(tuple(variables[:cut]), tuple(variables[cut:]))
        report = heavy_sat_fraction(f, part, side, epsilon)
        assert report.fraction == heavy_sat_oracle(f, part, side, epsilon)

    def test_empty_side(self):
        f = _formula(3, [1, -2, 3], [2])
        part = VariablePartition((), (1, 2, 3))
        report = heavy_sat_fraction(f, part, "x", Fraction(1, 2))
        assert report.heavy_count == 0 and report.fraction == 1
