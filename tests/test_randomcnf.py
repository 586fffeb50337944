import math
import random
from fractions import Fraction

import pytest

from helpers import count_satisfying
from proofbench.cnf import Clause, CnfFormula, VariablePartition, parse_dimacs
from proofbench.errors import CapExceededError
from proofbench.randomcnf import (
    DistributionParams,
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
        # with few clauses, heavy sampling covers every pair
        f = sample_f(DistributionParams(6, 10, 3, 17))
        exact = expansion_report(
            f, Fraction(1, 2), 2, exact_up_to=2, allow_beyond_regime=True
        )
        sampled = expansion_report(
            f,
            Fraction(1, 2),
            2,
            exact_up_to=1,
            trials=4000,
            seed=8,
            allow_beyond_regime=True,
        )
        assert exact.rows[1].min_vars == sampled.rows[1].min_vars

    def test_exact_three_subsets(self):
        f = sample_f(DistributionParams(7, 12, 3, 23))
        report = expansion_report(
            f, Fraction(1, 2), 3, exact_up_to=3, allow_beyond_regime=True
        )
        sets = [c.vars for c in f.clauses]
        best = min(
            len(sets[i] | sets[j] | sets[k])
            for i in range(7)
            for j in range(i + 1, 7)
            for k in range(j + 1, 7)
        )
        assert report.rows[2].min_vars == best

    def test_regime_guard(self):
        f = sample_f(DistributionParams(10, 8, 3, 1))
        assert expansion_regime_max_size(8, 3) == 0
        with pytest.raises(ValueError, match="regime"):
            expansion_report(f, Fraction(1, 2), 2)

    def test_modes_recorded(self):
        f = sample_f(DistributionParams(30, 40, 3, 2))
        report = expansion_report(
            f, Fraction(1, 2), 3, exact_up_to=2, trials=200, seed=1,
            allow_beyond_regime=True,
        )
        assert [r.mode for r in report.rows] == ["exact", "exact", "sampled"]
        assert report.rows[2].trials == 200

    def test_zero_trials_for_a_sampled_size(self):
        f = sample_f(DistributionParams(30, 40, 3, 2))
        with pytest.raises(ValueError, match="trials"):
            expansion_report(
                f, Fraction(1, 2), 3, exact_up_to=2, trials=0,
                allow_beyond_regime=True,
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
            profile_distinctness(f, cap=20)

    def test_sampled_zero_trials(self):
        # zero sampled pairs must not report the profiles distinct
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        with pytest.raises(ValueError, match="trials"):
            profile_distinctness(f, mode="sampled", trials=0)


class TestEntropyAndBounds:
    def test_entropy_values(self):
        assert binary_entropy(Fraction(1, 2)) == pytest.approx(1.0)
        assert binary_entropy(Fraction(1, 4)) == pytest.approx(0.811278, abs=1e-6)
        assert binary_entropy(Fraction(1, 4)) == binary_entropy(Fraction(3, 4))

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
        # an odd variable count with zero balance slack rejects every trial
        f = sample_f(DistributionParams(20, 5, 2, 4))
        report = heavy_partition_search(
            f, Fraction(1, 4), max_trials=16, seed=2, balance_slack=0.0
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
