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
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import or_
from typing import Iterable, Mapping, Sequence

from .bitops import bit_plane, full_mask, spread
from .cnf import (
    SOLVER_CAP,
    Clause,
    CnfFormula,
    Literal,
    VariablePartition,
    brute_force_sat,
)
from .errors import CapExceededError
from .semantics import check_scope

# Exact profiles and exact heavy-sat enumerate at most 2^EXACT_CAP assignments.
EXACT_CAP = 20
# The expansion report exhausts clause-set sizes up to EXPANSION_EXACT_UP_TO
# (sizes 1 and 2 each have their own branch), each in at most
# EXPANSION_BUDGET subsets, and samples larger sizes.
EXPANSION_EXACT_UP_TO = 2
EXPANSION_BUDGET = 20_000_000


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


def _literal_table(n: int, shift: int = 0) -> list[Literal]:
    """Literal(v + shift, negated) at index 2 (v - 1) + negated, for v = 1..n."""
    return [
        Literal(v, negated)
        for v in range(shift + 1, shift + n + 1)
        for negated in (False, True)
    ]


def _sample_literals(
    rng: random.Random, pool: list[int], d: int, table: list[Literal]
) -> tuple[Literal, ...]:
    # Partial Fisher-Yates prefix gives d distinct pool entries (0-based
    # variables); signs are drawn in sampled order, then the literals are
    # stored sorted by variable, which is the order of their table indices.
    # Undoing the swaps in reverse order hands the next draw the same pool.
    swaps = [(t, rng.randrange(t, len(pool))) for t in range(d)]
    for t, j in swaps:
        pool[t], pool[j] = pool[j], pool[t]
    picks = sorted([2 * v + rng.getrandbits(1) for v in pool[:d]])
    for t, j in reversed(swaps):
        pool[t], pool[j] = pool[j], pool[t]
    return tuple(map(table.__getitem__, picks))


def sample_f(params: DistributionParams) -> CnfFormula:
    """m clauses of d distinct variables each, uniform signs, sampled with
    replacement. Deterministic in the seed.
    """
    rng = random.Random(params.seed)
    pool = list(range(params.n))
    table = _literal_table(params.n)
    clauses = tuple(
        Clause(_sample_literals(rng, pool, params.d, table)) for _ in range(params.m)
    )
    return CnfFormula(params.n, clauses)


def sample_tensor(params: DistributionParams) -> tuple[CnfFormula, VariablePartition]:
    """Two independent draws, one on X = 1..n and one on Y = n+1..2n, joined
    clause by clause into width-2d clauses.
    """
    rng_x = random.Random(derive_seed(params.seed, "tensor-x"))
    rng_y = random.Random(derive_seed(params.seed, "tensor-y"))
    n, d = params.n, params.d
    pool = list(range(n))
    x_table, y_table = _literal_table(n), _literal_table(n, shift=n)
    clauses = tuple(
        Clause(
            _sample_literals(rng_x, pool, d, x_table)
            + _sample_literals(rng_y, pool, d, y_table)
        )
        for _ in range(params.m)
    )
    part = VariablePartition(tuple(range(1, n + 1)), tuple(range(n + 1, 2 * n + 1)))
    return CnfFormula(2 * n, clauses), part


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


def unsat_rate(
    params: DistributionParams,
    tensor: bool,
    samples: int,
) -> UnsatRateReport:
    """Fraction of sampled formulas that DPLL (``brute_force_sat``) refutes."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    total_vars = 2 * params.n if tensor else params.n
    if total_vars > SOLVER_CAP:
        raise CapExceededError(f"{total_vars} variables exceed solver cap {SOLVER_CAP}")
    rows = []
    for i in range(samples):
        sub = DistributionParams(
            params.m, params.n, params.d, derive_seed(params.seed, "unsat-sample", i)
        )
        formula = sample_tensor(sub)[0] if tensor else sample_f(sub)
        rows.append(UnsatSample(i, sub.seed, brute_force_sat(formula) is None))
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


def expansion_regime_max_size(n: int, d: int) -> int:
    return int(n / (math.e * d * d))


def _min_pair_union(var_sets: list[frozenset[int]]) -> int:
    """The fewest variables any two of (at least two) clauses cover.

    A pair sharing c variables covers |A| + |B| - c; those pairs come from
    per-variable occurrence lists. A disjoint pair covers |A| + |B|, so for
    each clause the first disjoint partner in size order is the only one
    that can lower the minimum.
    """
    order = sorted(var_sets, key=len)
    widths = [len(vs) for vs in order]
    best = widths[-1] + widths[-2]
    later: dict[int, list[int]] = {}  # variable -> positions after p
    for p in range(len(order) - 1, -1, -1):
        w = widths[p]
        shared = Counter(chain.from_iterable(later.get(v, ()) for v in order[p]))
        if shared:
            best = min(best, min(w + widths[q] - c for q, c in shared.items()))
        for q in range(p + 1, len(order)):
            if w + widths[q] >= best:
                break
            if q not in shared:
                best = w + widths[q]  # and the next q breaks: widths ascend
        for v in order[p]:
            later.setdefault(v, []).append(p)
    return best


def expansion_report(
    formula: CnfFormula,
    epsilon: Fraction,
    s_max: int,
    trials: int = 10_000,
    seed: int = 0,
    allow_beyond_regime: bool = False,
) -> ExpansionReport:
    """Minimum variable coverage of clause subsets of each size s <= s_max,
    against the threshold (1 - epsilon) * d * s. Sizes up to
    ``EXPANSION_EXACT_UP_TO`` are exact, larger ones sampled. Size 2 is exact
    without visiting every pair: only pairs that share a variable, found
    through occurrence lists, can cover fewer than their widths' sum.
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
            "pass --beyond-regime (allow_beyond_regime=True) to override"
        )
    var_sets = [c.vars for c in formula.clauses]
    m = len(var_sets)
    if trials < 1 and min(s_max, m) > EXPANSION_EXACT_UP_TO:
        raise ValueError("sampled sizes need trials to be at least 1")
    var_masks = [sum(1 << v for v in vs) for vs in var_sets]
    rows = []
    for s in range(1, min(s_max, m) + 1):
        threshold = (1 - epsilon) * d * s
        if s <= EXPANSION_EXACT_UP_TO:
            if math.comb(m, s) > EXPANSION_BUDGET:
                raise CapExceededError(
                    f"exact mode for size {s} needs {math.comb(m, s)} subsets"
                )
            if s == 1:
                min_vars = min(len(vs) for vs in var_sets)
            else:
                min_vars = _min_pair_union(var_sets)
            mode, used = "exact", None
        else:
            # A draw's coverage is the popcount of its clauses' variable masks.
            pick = var_masks.__getitem__
            rng = random.Random(derive_seed(seed, "expansion", s))
            indices = range(m)
            min_vars = min(
                reduce(or_, map(pick, rng.sample(indices, s))).bit_count()
                for _ in range(trials)
            )
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


def _block_labels(
    clauses: Sequence[Clause], lanes: list[int], ones: int, size: int
) -> memoryview:
    """Per assignment a < ``size``, a 64-bit label whose bit i says whether a
    falsifies clause i of ``clauses`` (at most 64 of them).

    ``lanes[v - 1]`` holds variable v's value under a in byte a and ``ones``
    holds 1 in every byte, so a clause's falsifying subcube is the AND of its
    literals' lanes, a positive literal's complemented. Eight clauses,
    shifted to bits 0..7, share one byte per assignment, and eight such byte
    strings interleave into one label per 8 bytes. Labels are only compared
    for equality, so byte order is moot.
    """
    buf = bytearray(8 * size)
    for g in range(0, len(clauses), 8):
        byte = 0
        for j, clause in enumerate(clauses[g : g + 8]):
            cube = ones
            for lit in clause.literals:
                lane = lanes[lit.var - 1]
                cube &= lane if lit.negated else ones ^ lane
            byte |= cube << j
        buf[g >> 3 :: 8] = byte.to_bytes(size, "little")
    return memoryview(buf).cast("Q")


def _split_classes(classes: list[Sequence[int]], labels: memoryview) -> list[array]:
    """Each class split into its groups of equal label, groups of one
    dropped, every group in increasing order.

    Per class, one dict maps each label seen once so far to its assignment.
    A label's second assignment moves the pair to the dict of groups, where
    an array grows as the later members arrive in increasing order.
    """
    split = []
    for cls in classes:
        first: dict[int, int] = {}
        groups: dict[int, array] = {}
        for a in cls:
            label = labels[a]
            group = groups.get(label)
            if group is not None:
                group.append(a)
            elif label in first:
                groups[label] = array("L", (first.pop(label), a))
            else:
                first[label] = a
        split.extend(groups.values())
    return split


def profile_distinctness(
    formula: CnfFormula,
    mode: str = "exact",
    seed: int = 0,
    trials: int = 10_000,
) -> ProfileReport:
    """Whether distinct assignments falsify distinct clause sets.

    Exact mode covers all 2^n assignments. It splits them, 64 clauses at a
    time, into classes that falsify the same clauses so far, and drops a
    class as soon as it holds one assignment. Every pair in a final class
    collides: ``collisions`` is the sum of (class size - 1), and the witness
    is the lowest two assignments of the class whose second lowest is
    smallest, the first repeat in index order. Sampled mode compares random
    assignment pairs, clause by clause until one tells them apart.
    """
    n = formula.n
    if mode == "exact":
        if n > EXACT_CAP:
            raise CapExceededError(f"exact profiles need n <= {EXACT_CAP}, got {n}")
        size = 1 << n
        # Classes of assignments with equal profiles so far, each in
        # increasing order; a class of one can never collide and is dropped.
        classes: list[Sequence[int]] = [range(size)] if n else []
        ones = spread(full_mask(size), 8)
        lanes = [spread(bit_plane(p, n), 8) for p in range(n)]
        for start in range(0, formula.m, 64):
            if not classes:
                break
            block = formula.clauses[start : start + 64]
            classes = _split_classes(classes, _block_labels(block, lanes, ones, size))
        collisions = sum(len(cls) - 1 for cls in classes)
        witness = min(
            ((cls[0], cls[1]) for cls in classes), key=lambda w: w[1], default=None
        )
        return ProfileReport("exact", collisions == 0, size, collisions, witness, seed)
    if mode == "sampled":
        if trials < 1:
            raise ValueError("sampled mode needs trials to be at least 1")
        if n == 0:
            raise ValueError(
                "sampled mode needs a variable to draw: the formula has n=0"
            )
        position = {v: v - 1 for v in range(1, n + 1)}
        checks = [_falsifying_pattern(c.literals, position) for c in formula.clauses]
        rng = random.Random(derive_seed(seed, "profiles"))
        collisions = 0
        witness = None
        for _ in range(trials):
            a = rng.getrandbits(n)
            b = rng.getrandbits(n)
            if a == b:
                continue
            if all((a & m == p) == (b & m == p) for m, p in checks):
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
    # an integer count exceeds the cut exactly when it exceeds its floor
    cut = math.floor((1 - Fraction(epsilon)) * formula.width)
    z_x = z_y = 0
    incidence: dict[int, int] = {}
    for clause in formula.clauses:
        on_x = clause.vars & part.xset
        on_y = clause.vars & part.yset
        if len(on_x) > cut:
            z_x += 1
            for v in on_x:
                incidence[v] = incidence.get(v, 0) + 1
        if len(on_y) > cut:
            z_y += 1
            for v in on_y:
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


def heavy_partition_search(
    formula: CnfFormula,
    epsilon: Fraction,
    max_trials: int = 1000,
    seed: int = 0,
) -> PartitionReport:
    """Fair-coin partitions until one keeps both heavy counts at or below
    m', the max heavy incidence at or below m' d / n, and the sides within
    the balance slack 2 * sqrt(n ln n) of n/2. Returns the best trial,
    flagged unaccepted, if none qualifies.
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
    balance_slack = 2 * math.sqrt(n * math.log(n))
    rng = random.Random(derive_seed(seed, "partition"))
    best: tuple[tuple[int, int, int], VariablePartition, int] | None = None
    for trial in range(1, max_trials + 1):
        xvars = tuple(v for v in range(1, n + 1) if rng.getrandbits(1))
        xset = set(xvars)
        yvars = tuple(v for v in range(1, n + 1) if v not in xset)
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


def heavy_sat_fraction(
    formula: CnfFormula,
    part: VariablePartition,
    side: str,
    epsilon: Fraction,
    mode: str = "exact",
    seed: int = 0,
    trials: int = 10_000,
) -> HeavySatReport:
    """Fraction of side assignments whose literals satisfy every heavy clause
    of that side. The report carries exp(-n / (50 d)) as the existential
    reference bound for comparison in the intended regime.

    Exact mode counts the 2^k side points outside the union of the heavy
    clauses' falsifying subcubes, each a 2^k-bit mask built from
    ``bit_plane``s. Sampled mode tests random side points.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")
    check_scope((lit for c in formula.clauses for lit in c.literals), part)
    side_vars = part.xvars if side == "x" else part.yvars
    side_set = part.xset if side == "x" else part.yset
    d = formula.width
    cut = (1 - epsilon) * d
    heavy = [c for c in formula.clauses if len(c.vars & side_set) > cut]
    lll_reference = math.exp(-formula.n / (50 * d)) if d else 0.0
    k = len(side_vars)
    if mode == "exact":
        if k > EXACT_CAP:
            raise CapExceededError(
                f"exact mode needs side size <= {EXACT_CAP}, got {k}"
            )
        # Bit a of a side variable's plane is its value in side point a.
        planes = {v: bit_plane(i, k) for i, v in enumerate(side_vars)}
        full = full_mask(1 << k)
        falsified = 0
        for clause in heavy:
            cube = full
            for lit in clause.side_literals(side_set):
                plane = planes[lit.var]
                cube &= plane if lit.negated else full ^ plane
            falsified |= cube
        good = (1 << k) - falsified.bit_count()
        fraction: Fraction | float = Fraction(good, 1 << k)
        used = None
    elif mode == "sampled":
        if trials < 1:
            raise ValueError("sampled mode needs trials to be at least 1")
        # Least significant first, so a point is getrandbits(k) directly.
        position = {v: i for i, v in enumerate(side_vars)}
        checks = [
            _falsifying_pattern(c.side_literals(side_set), position) for c in heavy
        ]
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
    return HeavySatReport(side, len(heavy), fraction, mode, used, lll_reference, seed)
