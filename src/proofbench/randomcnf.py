"""Seeded random CNF samplers and executable checks of their structural
properties: unsatisfiability rate, clause-set expansion, distinctness of
falsified-clause profiles, heavy/balanced partitions, and heavy-clause
satisfaction fractions.

All randomness flows from one master seed through ``derive_seed``: the
sub-seed for a purpose is a stable hash of (master seed, purpose tag, index),
so every report is a pure function of its inputs.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .cnf import (
    Clause,
    CnfFormula,
    DEFAULT_SOLVER_CAP,
    Literal,
    VariablePartition,
    brute_force_sat,
)
from .errors import CapExceededError


def derive_seed(master: int, tag: str, index: int = 0) -> int:
    """Stable 64-bit sub-seed; independent of interpreter hash randomization."""
    digest = hashlib.sha256(f"{master}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class DistributionParams:
    m: int
    n: int
    d: int
    seed: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one clause")
        if not 1 <= self.d <= self.n:
            raise ValueError(f"width d={self.d} must satisfy 1 <= d <= n={self.n}")


def _sample_clause(rng: random.Random, n: int, d: int, shift: int = 0) -> Clause:
    # Partial Fisher-Yates prefix gives d distinct variables; signs are
    # drawn in sampled order, then literals are stored sorted by variable.
    pool = list(range(1, n + 1))
    for t in range(d):
        j = rng.randrange(t, n)
        pool[t], pool[j] = pool[j], pool[t]
    lits = [Literal(v + shift, bool(rng.getrandbits(1))) for v in pool[:d]]
    lits.sort(key=lambda lit: lit.var)
    return Clause(tuple(lits))


def sample_f(params: DistributionParams) -> CnfFormula:
    """m clauses of d distinct variables each, uniform signs, sampled with
    replacement. Deterministic in the seed.
    """
    rng = random.Random(params.seed)
    clauses = tuple(
        _sample_clause(rng, params.n, params.d) for _ in range(params.m)
    )
    return CnfFormula(params.n, clauses)


def sample_tensor(params: DistributionParams) -> tuple[CnfFormula, VariablePartition]:
    """Two independent draws, one on X = 1..n and one on Y = n+1..2n, joined
    clause by clause into width-2d clauses.
    """
    rng_x = random.Random(derive_seed(params.seed, "tensor-x"))
    rng_y = random.Random(derive_seed(params.seed, "tensor-y"))
    n, d = params.n, params.d
    clauses = []
    for _ in range(params.m):
        left = _sample_clause(rng_x, n, d)
        right = _sample_clause(rng_y, n, d, shift=n)
        clauses.append(Clause(left.literals + right.literals))
    part = VariablePartition(tuple(range(1, n + 1)), tuple(range(n + 1, 2 * n + 1)))
    return CnfFormula(2 * n, tuple(clauses)), part


# --- unsatisfiability rate ---------------------------------------------------


@dataclass(frozen=True)
class UnsatSample:
    index: int
    seed: int
    unsat: bool


@dataclass(frozen=True)
class UnsatRateReport:
    params: DistributionParams
    tensor: bool
    samples: tuple[UnsatSample, ...]
    rate: Fraction

    def to_dict(self) -> dict:
        return {
            "m": self.params.m,
            "n": self.params.n,
            "d": self.params.d,
            "seed": self.params.seed,
            "tensor": self.tensor,
            "samples": [
                {"index": s.index, "seed": s.seed, "unsat": s.unsat}
                for s in self.samples
            ],
            "rate": str(self.rate),
        }


def unsat_rate(
    params: DistributionParams,
    tensor: bool,
    samples: int,
    cap: int = DEFAULT_SOLVER_CAP,
) -> UnsatRateReport:
    """Fraction of sampled formulas the brute-force oracle refutes."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    total_vars = 2 * params.n if tensor else params.n
    if total_vars > cap:
        raise CapExceededError(f"{total_vars} variables exceed solver cap {cap}")
    rows = []
    for i in range(samples):
        sub = DistributionParams(
            params.m, params.n, params.d, derive_seed(params.seed, "unsat-sample", i)
        )
        formula = sample_tensor(sub)[0] if tensor else sample_f(sub)
        rows.append(UnsatSample(i, sub.seed, brute_force_sat(formula, cap) is None))
    rate = Fraction(sum(r.unsat for r in rows), samples)
    return UnsatRateReport(params, tensor, tuple(rows), rate)


# --- expansion ---------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionRow:
    size: int
    min_vars: int
    threshold: Fraction
    mode: str
    trials: int | None
    passed: bool


@dataclass(frozen=True)
class ExpansionReport:
    epsilon: Fraction
    rows: tuple[ExpansionRow, ...]
    all_pass: bool
    regime_max_size: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "regime_max_size": self.regime_max_size,
            "seed": self.seed,
            "all_pass": self.all_pass,
            "rows": [
                {
                    "size": r.size,
                    "min_vars": r.min_vars,
                    "threshold": str(r.threshold),
                    "mode": r.mode,
                    "trials": r.trials,
                    "passed": r.passed,
                }
                for r in self.rows
            ],
        }


def expansion_regime_max_size(n: int, d: int) -> int:
    return int(n / (math.e * d * d))

def _min_union_exact(var_sets: list[frozenset[int]], size: int) -> int:
    m = len(var_sets)
    best = None
    # Depth-first over index combinations, keeping the running union.
    def rec(start: int, chosen: int, union: frozenset[int]) -> None:
        nonlocal best
        if chosen == size:
            if best is None or len(union) < best:
                best = len(union)
            return
        for i in range(start, m - (size - chosen) + 1):
            rec(i + 1, chosen + 1, union | var_sets[i])

    rec(0, 0, frozenset())
    return best if best is not None else 0


def expansion_report(
    formula: CnfFormula,
    epsilon: Fraction,
    s_max: int,
    exact_up_to: int = 2,
    trials: int = 10_000,
    seed: int = 0,
    exact_budget: int = 20_000_000,
    allow_beyond_regime: bool = False,
) -> ExpansionReport:
    """Minimum variable coverage of clause subsets of each size s <= s_max,
    against the threshold (1 - epsilon) * d * s. Small sizes are exhausted,
    larger ones sampled.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if min(s_max, formula.m) < 1:
        raise ValueError(
            f"no clause-set size to check: s_max={s_max} and m={formula.m} "
            "must both be at least 1"
        )
    d = formula.width
    regime = expansion_regime_max_size(formula.n, d) if d else 0
    if s_max > regime and not allow_beyond_regime:
        raise ValueError(
            f"s_max={s_max} is outside the checked regime (max {regime}); "
            "pass allow_beyond_regime=True to override"
        )
    var_sets = [c.vars for c in formula.clauses]
    m = len(var_sets)
    if trials < 1 and min(s_max, m) > exact_up_to:
        raise ValueError("sampled sizes need trials to be at least 1")
    rows = []
    for s in range(1, min(s_max, m) + 1):
        threshold = (1 - epsilon) * d * s
        if s <= exact_up_to:
            if math.comb(m, s) > exact_budget:
                raise CapExceededError(
                    f"exact mode for size {s} needs {math.comb(m, s)} subsets"
                )
            if s == 1:
                min_vars = min(len(vs) for vs in var_sets)
            elif s == 2:
                min_vars = min(
                    len(var_sets[i] | var_sets[j])
                    for i in range(m)
                    for j in range(i + 1, m)
                )
            else:
                min_vars = _min_union_exact(var_sets, s)
            mode, used = "exact", None
        else:
            rng = random.Random(derive_seed(seed, "expansion", s))
            min_vars = None
            for _ in range(trials):
                subset = rng.sample(range(m), s)
                count = len(frozenset().union(*(var_sets[i] for i in subset)))
                if min_vars is None or count < min_vars:
                    min_vars = count
            mode, used = "sampled", trials
        rows.append(
            ExpansionRow(s, min_vars, threshold, mode, used, min_vars >= threshold)
        )
    return ExpansionReport(
        epsilon, tuple(rows), all(r.passed for r in rows), regime, seed
    )


# --- profiles ----------------------------------------------------------------


@dataclass(frozen=True)
class ProfileReport:
    mode: str
    distinct: bool
    rows_checked: int
    collisions: int
    witness: tuple[int, int] | None
    seed: int

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "distinct": self.distinct,
            "rows_checked": self.rows_checked,
            "collisions": self.collisions,
            "witness": list(self.witness) if self.witness else None,
            "seed": self.seed,
        }


def _falsifying_pattern(
    literals: Iterable[Literal], position: Mapping[int, int]
) -> tuple[int, int]:
    """(mask, pattern) of the literals over assignment integers whose bit
    ``position[v]`` is variable v's value: the literals are all falsified
    exactly when the masked bits equal the pattern.
    """
    mask = pattern = 0
    for lit in literals:
        bit = 1 << position[lit.var]
        mask |= bit
        if lit.negated:
            pattern |= bit
    return mask, pattern


def _profile_of(alpha: int, masks: list[tuple[int, int]]) -> frozenset[int]:
    return frozenset(
        i for i, (mask, pattern) in enumerate(masks) if alpha & mask == pattern
    )


def profile_distinctness(
    formula: CnfFormula,
    mode: str = "exact",
    seed: int = 0,
    trials: int = 10_000,
    cap: int = 20,
) -> ProfileReport:
    """Whether distinct assignments falsify distinct clause sets.

    Exact mode enumerates all 2^n assignments, filling profiles clause by
    clause (each clause's falsifying set is a subcube); equality of the
    frozen index sets confirms collisions exactly. Sampled mode compares
    random assignment pairs.
    """
    n = formula.n
    position = {v: v - 1 for v in range(1, n + 1)}
    masks = [_falsifying_pattern(c.literals, position) for c in formula.clauses]
    if mode == "exact":
        if n > cap:
            raise CapExceededError(f"exact profiles need n <= {cap}, got {n}")
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
        return ProfileReport(
            "exact", collisions == 0, 1 << n, collisions, witness, seed
        )
    if mode == "sampled":
        if trials < 1:
            raise ValueError("sampled mode needs trials to be at least 1")
        rng = random.Random(derive_seed(seed, "profiles"))
        collisions = 0
        witness = None
        for _ in range(trials):
            a = rng.getrandbits(n)
            b = rng.getrandbits(n)
            if a == b:
                continue
            if _profile_of(a, masks) == _profile_of(b, masks):
                collisions += 1
                if witness is None:
                    witness = (a, b)
        return ProfileReport(
            "sampled", collisions == 0, trials, collisions, witness, seed
        )
    raise ValueError(f"unknown mode {mode!r}")


# --- heavy clauses and partitions ---------------------------------------------


def binary_entropy(epsilon: Fraction | float) -> float:
    e = float(epsilon)
    if not 0 < e < 1:
        raise ValueError("entropy argument must lie strictly between 0 and 1")
    return -(e * math.log2(e) + (1 - e) * math.log2(1 - e))


def heavy_clause_bound(m: int, d: int, epsilon: Fraction | float) -> float:
    """The per-side ceiling m * 2^(-(1 - H2(epsilon)) d + 1)."""
    return m * 2.0 ** (-(1 - binary_entropy(epsilon)) * d + 1)


def heavy_side_counts(
    formula: CnfFormula, part: VariablePartition, epsilon: Fraction
) -> tuple[int, int, int]:
    """(X-heavy count, Y-heavy count, max per-variable heavy incidence).

    A clause is side-heavy when more than (1 - epsilon) * d of its variables
    sit on that side, d being the formula width.
    """
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
    w_max = max(incidence.values(), default=0)
    return z_x, z_y, w_max


@dataclass(frozen=True)
class PartitionReport:
    epsilon: Fraction
    partition: VariablePartition
    z_x: int
    z_y: int
    w_max: int
    m_prime: float
    accepted: bool
    trials_used: int
    balance_slack: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "xvars": list(self.partition.xvars),
            "yvars": list(self.partition.yvars),
            "z_x": self.z_x,
            "z_y": self.z_y,
            "w_max": self.w_max,
            "m_prime": self.m_prime,
            "accepted": self.accepted,
            "trials_used": self.trials_used,
            "balance_slack": self.balance_slack,
            "seed": self.seed,
        }


def heavy_partition_search(
    formula: CnfFormula,
    epsilon: Fraction,
    max_trials: int = 1000,
    seed: int = 0,
    balance_slack: float | None = None,
) -> PartitionReport:
    """Fair-coin partitions until one keeps both heavy counts at or below
    m', the max heavy incidence at or below m' d / n, and the sides within
    the balance slack (default 2 * sqrt(n ln n)) of n/2. Returns the best
    trial, flagged unaccepted, if none qualifies.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if max_trials < 1:
        raise ValueError("the search needs trials to be at least 1")
    n, d = formula.n, formula.width
    if n < 2:
        raise ValueError(f"a partition with two nonempty sides needs n >= 2, got {n}")
    m_prime = heavy_clause_bound(formula.m, d, epsilon)
    w_bound = m_prime * d / n
    if balance_slack is None:
        balance_slack = 2 * math.sqrt(n * math.log(n)) if n > 1 else 1.0
    rng = random.Random(derive_seed(seed, "partition"))
    best: tuple[tuple[int, int, int], VariablePartition, int] | None = None
    for trial in range(1, max_trials + 1):
        xvars = tuple(v for v in range(1, n + 1) if rng.getrandbits(1))
        yvars = tuple(v for v in range(1, n + 1) if v not in set(xvars))
        if not xvars or not yvars:
            continue
        part = VariablePartition(xvars, yvars)
        z_x, z_y, w_max = heavy_side_counts(formula, part, epsilon)
        balanced = abs(len(xvars) - n / 2) <= balance_slack
        if z_x <= m_prime and z_y <= m_prime and w_max <= w_bound and balanced:
            return PartitionReport(
                epsilon, part, z_x, z_y, w_max, m_prime, True, trial,
                balance_slack, seed,
            )
        score = (max(z_x, z_y), w_max, abs(len(xvars) * 2 - n))
        if best is None or score < best[0]:
            best = (score, part, trial)
    if best is None:
        raise ValueError(f"all {max_trials} trials left a side empty")
    _, part, _ = best
    z_x, z_y, w_max = heavy_side_counts(formula, part, epsilon)
    return PartitionReport(
        epsilon, part, z_x, z_y, w_max, m_prime, False, max_trials,
        balance_slack, seed,
    )


@dataclass(frozen=True)
class HeavySatReport:
    side: str
    heavy_count: int
    fraction: Fraction | float
    mode: str
    trials: int | None
    lll_reference: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "side": self.side,
            "heavy_count": self.heavy_count,
            "fraction": str(self.fraction)
            if isinstance(self.fraction, Fraction)
            else self.fraction,
            "mode": self.mode,
            "trials": self.trials,
            "lll_reference": self.lll_reference,
            "seed": self.seed,
        }


def heavy_sat_fraction(
    formula: CnfFormula,
    part: VariablePartition,
    side: str,
    epsilon: Fraction,
    mode: str = "exact",
    seed: int = 0,
    trials: int = 10_000,
    cap: int = 20,
) -> HeavySatReport:
    """Fraction of side assignments whose literals satisfy every heavy clause
    of that side. The report carries exp(-n / (50 d)) as the existential
    reference bound for comparison in the intended regime.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")
    side_vars = part.xvars if side == "x" else part.yvars
    side_set = part.xset if side == "x" else part.yset
    d = formula.width
    cut = (1 - epsilon) * d
    heavy = [
        c for c in formula.clauses if len(c.vars & side_set) > cut
    ]
    # Least significant first, so sampled mode reads getrandbits(k) directly.
    position = {v: i for i, v in enumerate(side_vars)}
    checks = [
        _falsifying_pattern(c.side_literals(side_set), position) for c in heavy
    ]
    lll_reference = math.exp(-formula.n / (50 * d)) if d else 0.0
    k = len(side_vars)
    if mode == "exact":
        if k > cap:
            raise CapExceededError(f"exact mode needs side size <= {cap}, got {k}")
        good = sum(
            1
            for a in range(1 << k)
            if all(a & mask != pattern for mask, pattern in checks)
        )
        fraction: Fraction | float = Fraction(good, 1 << k)
        used = None
    elif mode == "sampled":
        if trials < 1:
            raise ValueError("sampled mode needs trials to be at least 1")
        rng = random.Random(derive_seed(seed, "heavy-sat"))
        good = 0
        for _ in range(trials):
            a = rng.getrandbits(k)
            if all(a & mask != pattern for mask, pattern in checks):
                good += 1
        fraction = good / trials
        used = trials
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return HeavySatReport(
        side, len(heavy), fraction, mode, used, lll_reference, seed
    )
