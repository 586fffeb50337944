"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with ``pytest -s`` to watch them).

Shared master seed; all sampling goes through the library's seed-splitting
contract so reruns are bit-identical.
"""

import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import plain_walk_oracle, separator_bound_oracle
from proofbench.circuit import (
    cc_lines_from_resolution,
    compile_cc_refutation,
    eval_gates,
    extract_cc2_refutation,
    verify_separation,
)
from proofbench.cnf import (
    VariablePartition,
    brute_force_sat,
    formula_to_system,
    parse_dimacs,
)
from proofbench.cpproof import (
    Addition,
    CpProof,
    Division,
    Hypothesis,
    ProofLine,
    check_cp_proof,
    resolution_refutation_from_dpll,
)
from proofbench.cspsat import (
    ConstraintGraph,
    CspSatInstance,
    accepting_instance,
    agreement_count,
    build_constraint_graph,
    circuit_size_lower_bound,
    csp_sat_eval,
    rejecting_instance,
)
from proofbench.linear import LinearInequality
from proofbench.protocol import (
    full_history_masks,
    inequality_protocol,
    materialize_rectangle,
    real_protocol_eval,
    run_protocol,
)
from proofbench.randomcnf import (
    DistributionParams,
    derive_seed,
    expansion_report,
    heavy_partition_search,
    heavy_side_counts,
    profile_distinctness,
    sample_f,
    unsat_rate,
)
from proofbench.semantics import SemanticLine, rectangle_bits

MASTER_SEED = 20250809

COMPLETE_2CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
CONTRADICTION = "p cnf 1 2\n1 0\n-1 0\n"


def _report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


# --- criterion 1: CP checker soundness and mutation robustness ---------------


def _contradiction_proof():
    system = formula_to_system(parse_dimacs(CONTRADICTION))
    return CpProof(
        system,
        (
            ProofLine(LinearInequality((1,), 1), Hypothesis(1)),
            ProofLine(LinearInequality((-1,), 0), Hypothesis(2)),
            ProofLine(LinearInequality((0,), 1), Addition(1, 2)),
        ),
    )


def _division_proof():
    system = (LinearInequality((2, 2), 3),)
    return CpProof(
        system,
        (
            ProofLine(LinearInequality((2, 2), 3), Hypothesis(1)),
            ProofLine(LinearInequality((1, 1), 2), Division(1, 2)),
        ),
    )


def _single_field_mutants(proof):
    """Coefficient, constant, rounding direction, divisor, and reference
    mutations, one field at a time.
    """
    out = []

    def with_line(idx, line):
        lines = list(proof.lines)
        lines[idx] = line
        out.append(CpProof(proof.system, tuple(lines)))

    for idx, line in enumerate(proof.lines):
        ineq, just = line.ineq, line.justification
        for ci in range(len(ineq.coeffs)):
            for delta in (-1, 1):
                coeffs = list(ineq.coeffs)
                coeffs[ci] += delta
                with_line(
                    idx, replace(line, ineq=LinearInequality(tuple(coeffs), ineq.constant))
                )
        for delta in (-1, 1):
            with_line(
                idx,
                replace(line, ineq=LinearInequality(ineq.coeffs, ineq.constant + delta)),
            )
        if isinstance(just, Hypothesis):
            with_line(
                idx,
                replace(
                    line,
                    justification=Hypothesis(just.row % len(proof.system) + 1),
                ),
            )
        elif isinstance(just, Addition):
            with_line(idx, replace(line, justification=Addition(just.left, just.left)))
            with_line(idx, replace(line, justification=Addition(just.right, just.right)))
            with_line(idx, replace(line, justification=Addition(idx + 1, just.right)))
        elif isinstance(just, Division):
            with_line(
                idx, replace(line, justification=Division(just.source, just.divisor + 1))
            )
            with_line(
                idx, replace(line, justification=Division(just.source, just.divisor - 1))
            )
            with_line(idx, replace(line, justification=Division(idx + 1, just.divisor)))
    return [m for m in out if m != proof]


def test_criterion_01_checker_and_mutations():
    t0 = time.perf_counter()
    contra, divis = _contradiction_proof(), _division_proof()
    contra_report = check_cp_proof(contra)
    assert contra_report.all_valid and contra_report.is_refutation
    divis_report = check_cp_proof(divis)
    assert divis_report.all_valid
    assert divis.lines[1].ineq.constant == 2  # ceil(3/2), rounding up

    mutants = _single_field_mutants(contra) + _single_field_mutants(divis)
    assert len(mutants) >= 20
    for mutant in mutants:
        assert not check_cp_proof(mutant).all_valid
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"{len(mutants)} mutants all rejected in {elapsed:.2f}s")


# --- criteria 2-4: compiler end-to-end, claim invariant, extraction ----------


def _unsat_samples(count):
    samples = []
    index = 0
    while len(samples) < count:
        params = DistributionParams(
            60, 8, 3, derive_seed(MASTER_SEED, "criterion-2", index)
        )
        index += 1
        formula = sample_f(params)
        if brute_force_sat(formula) is None:
            samples.append(formula)
    return samples


@pytest.fixture(scope="module")
def compiled_batch():
    t0 = time.perf_counter()
    part = VariablePartition.alternating(8)
    batch = []
    for formula in _unsat_samples(100):
        refutation = resolution_refutation_from_dpll(formula)
        cc = cc_lines_from_resolution(refutation, part)
        result = compile_cc_refutation(cc, formula, part)
        batch.append((formula, part, cc, result))
    return batch, time.perf_counter() - t0


def test_criterion_02_compiler_end_to_end(compiled_batch):
    batch, build_time = compiled_batch
    t0 = time.perf_counter()
    f2 = parse_dimacs(COMPLETE_2CNF)
    part2 = VariablePartition((1,), (2,))
    refutation = resolution_refutation_from_dpll(f2)
    cc2 = cc_lines_from_resolution(refutation, part2)
    result2 = compile_cc_refutation(cc2, f2, part2)
    assert verify_separation(result2.circuit, f2, part2).passed
    assert result2.report.gate_count <= result2.report.line_count * 2**6

    passed = 0
    for formula, part, cc, result in batch:
        assert result.report.max_protocol_depth == 2
        assert result.report.gate_count <= result.report.line_count * 2**6
        assert verify_separation(result.circuit, formula, part).passed
        passed += 1
    elapsed = time.perf_counter() - t0 + build_time
    assert passed == 100
    assert elapsed < 120.0
    _report(2, f"complete 2-CNF plus {passed}/100 samples separate in {elapsed:.1f}s")


def test_criterion_03_claim_invariant():
    t0 = time.perf_counter()
    f = parse_dimacs(COMPLETE_2CNF)
    part = VariablePartition((1,), (2,))
    refutation = resolution_refutation_from_dpll(f)
    cc = cc_lines_from_resolution(refutation, part)
    result = compile_cc_refutation(cc, f, part)
    # the plain walk builds the same circuit and records every stacked node
    circuit, entries, _, records = plain_walk_oracle(cc, f, part)
    assert (circuit, entries) == (result.circuit, result.entries)
    graph = build_constraint_graph(f, part)
    u_vals = [
        eval_gates(result.circuit, accepting_instance(graph, part.x_assignment(x)))
        for x in range(1 << part.n1)
    ]
    v_vals = [
        eval_gates(result.circuit, rejecting_instance(graph, f, part, part.y_assignment(y)))
        for y in range(1 << part.n2)
    ]
    violations = 0
    pairs = 0
    for entry in result.entries:
        rect = materialize_rectangle(cc[entry.line_index].tree, entry.history)
        for x in rect.xset:
            for y in rect.yset:
                pairs += 1
                if u_vals[x][entry.gate] != 1 or v_vals[y][entry.gate] != 0:
                    violations += 1
    # the stronger per-node statement, enumerated over triple intersections
    for *_, gate, xmask, ymask in records:
        for x in range(1 << part.n1):
            for y in range(1 << part.n2):
                if (xmask >> x) & 1 and (ymask >> y) & 1:
                    if u_vals[x][gate] != 1 or v_vals[y][gate] != 0:
                        violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - t0
    _report(
        3,
        f"{len(result.entries)} line circuits, {pairs} rectangle pairs, "
        f"0 violations in {elapsed:.2f}s",
    )


def test_criterion_04_converse_extraction(compiled_batch):
    batch, _ = compiled_batch
    t0 = time.perf_counter()
    passed = 0
    for formula, part, cc, result in batch:
        extraction = extract_cc2_refutation(result.circuit, formula, part)
        assert extraction.report.line_count == result.circuit.gate_count
        assert extraction.report.leaf_entailments_ok
        assert extraction.report.internal_entailments_ok
        assert extraction.report.constant_lines_ok
        assert extraction.report.root_constant_zero
        gates = range(result.circuit.gate_count)
        assert all(extraction.tree(g).depth == 2 for g in gates)
        passed += 1
    elapsed = time.perf_counter() - t0
    assert passed == 100
    assert elapsed < 60.0
    _report(4, f"{passed}/100 extractions validate in {elapsed:.1f}s")


def test_criterion_04_extracted_trees_compute_their_lines(compiled_batch):
    # Each gate's two-bit tree computes the gate's line: every history's
    # rectangle is constant on the line, with the tree's output as value,
    # and the four rectangles tile the whole space.
    batch, _ = compiled_batch
    checked = 0
    for formula, part, _, result in batch:
        extraction = extract_cc2_refutation(result.circuit, formula, part)
        full = (1 << (1 << part.n)) - 1
        for g in range(result.circuit.gate_count):
            line, tree = extraction.line(g), extraction.tree(g)
            covered = 0
            for h, (xm, ym) in full_history_masks(tree).items():
                rect = rectangle_bits(xm, ym, part.n2)
                assert line.bits & rect == (rect if tree.output_at(h) else 0)
                assert covered & rect == 0
                covered |= rect
            assert covered == full
            checked += 1
    _report(4, f"{checked} extracted trees compute their lines")


@pytest.fixture(scope="module")
def unsat_n16():
    index = 0
    while True:
        formula = sample_f(
            DistributionParams(200, 16, 3, derive_seed(MASTER_SEED, "n16", index))
        )
        index += 1
        if brute_force_sat(formula) is None:
            return formula, resolution_refutation_from_dpll(formula)


def test_compile_wall_time(unsat_n16):
    # Every table, protocol and rectangle check goes through the side-index
    # kernel; building an Assignment per side index instead took 0.7-1.0 s
    # (Python 3.11, one core).
    formula, refutation = unsat_n16
    part = VariablePartition.alternating(16)
    t0 = time.perf_counter()
    cc = cc_lines_from_resolution(refutation, part)
    result = compile_cc_refutation(cc, formula, part)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5
    _report(
        "n16-compile",
        f"{len(cc)} lines, {result.circuit.gate_count} gates in {elapsed:.2f}s",
    )


def test_inequality_tables_and_protocols_wall_time():
    # The cutting-planes route builds a table and a protocol per proof line;
    # from per-index Assignments these 50 took about 3.3 s (Python 3.11).
    rng = random.Random(derive_seed(MASTER_SEED, "weight-3"))
    part = VariablePartition.alternating(16)
    ineqs = [
        LinearInequality(
            tuple(rng.randint(-3, 3) for _ in range(16)), rng.randint(-3, 3)
        )
        for _ in range(50)
    ]
    t0 = time.perf_counter()
    depth = 0
    for ineq in ineqs:
        SemanticLine.from_inequality(ineq, part)
        depth = max(depth, inequality_protocol(ineq, part).depth)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(
        "n16-inequalities",
        f"50 tables and protocols (depth <= {depth}) in {elapsed:.2f}s",
    )


def test_separation_and_extraction_wall_time(unsat_n16):
    # At n=16 every side has 2^8 instances; checking separation and
    # extracting by building each U(x) and V(y) took about 4.7 s (Python
    # 3.11, one core), the bit-parallel side masks about 0.3 s.
    formula, refutation = unsat_n16
    part = VariablePartition.alternating(16)
    cc = cc_lines_from_resolution(refutation, part)
    result = compile_cc_refutation(cc, formula, part)
    t0 = time.perf_counter()
    assert verify_separation(result.circuit, formula, part).passed
    extraction = extract_cc2_refutation(result.circuit, formula, part)
    elapsed = time.perf_counter() - t0
    assert extraction.report.all_ok
    assert elapsed < 2.0
    _report(
        "n16",
        f"{result.circuit.gate_count} gates separate and extract in {elapsed:.2f}s",
    )


# --- criterion 5: CSP-SAT structural properties -------------------------------


def test_criterion_05_cspsat_structure():
    t0 = time.perf_counter()
    rng = random.Random(derive_seed(MASTER_SEED, "criterion-5"))

    accepting_checked = 0
    for _ in range(500):
        n = rng.randint(4, 12)
        d = rng.randint(1, 3)
        formula = sample_f(DistributionParams(rng.randint(2, 3 * n), n, d, rng.getrandbits(48)))
        part = VariablePartition.alternating(n)
        graph = build_constraint_graph(formula, part)
        x = part.x_assignment(rng.randrange(1 << part.n1))
        assert csp_sat_eval(graph, accepting_instance(graph, x)) is True
        accepting_checked += 1

    rejecting_checked = 0
    while rejecting_checked < 500:
        n = rng.randint(4, 10)
        d = rng.randint(1, 3)
        m = int(n * 2 ** d * 1.5) + 8  # densely unsatisfiable most of the time
        formula = sample_f(DistributionParams(m, n, d, rng.getrandbits(48)))
        if brute_force_sat(formula) is not None:
            continue
        part = VariablePartition.alternating(n)
        graph = build_constraint_graph(formula, part)
        y = part.y_assignment(rng.randrange(1 << part.n2))
        assert csp_sat_eval(graph, rejecting_instance(graph, formula, part, y)) is False
        rejecting_checked += 1

    monotone_pairs = 0
    for _ in range(100):
        n = rng.randint(4, 8)
        formula = sample_f(DistributionParams(rng.randint(2, 8), n, rng.randint(1, 3), rng.getrandbits(48)))
        part = VariablePartition.alternating(n)
        graph = build_constraint_graph(formula, part)
        for _ in range(100):
            high = rng.getrandbits(graph.size)
            low = high & rng.getrandbits(graph.size)
            lo_val = csp_sat_eval(graph, CspSatInstance(graph, low))
            hi_val = csp_sat_eval(graph, CspSatInstance(graph, high))
            assert lo_val <= hi_val
            monotone_pairs += 1

    elapsed = time.perf_counter() - t0
    assert accepting_checked + rejecting_checked == 1000
    assert monotone_pairs == 10_000
    _report(
        5,
        f"{accepting_checked}+{rejecting_checked} instance checks, "
        f"{monotone_pairs} monotone pairs, 0 violations in {elapsed:.1f}s",
    )


# --- criterion 6: real-protocol equivalence -----------------------------------


def test_criterion_06_real_protocol_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(derive_seed(MASTER_SEED, "criterion-6"))
    mismatches = 0
    checked = 0
    for _ in range(500):
        n = rng.randint(2, 8)
        part = VariablePartition.alternating(n)
        ineq = LinearInequality(
            tuple(rng.randint(-8, 8) for _ in range(n)), rng.randint(-8, 8)
        )
        table = SemanticLine.from_inequality(ineq, part)
        tree = inequality_protocol(ineq, part)
        for x_idx in range(1 << part.n1):
            x = part.x_assignment(x_idx)
            for y_idx in range(1 << part.n2):
                y = part.y_assignment(y_idx)
                _, tree_out = run_protocol(tree, x, y)
                _, real_out = real_protocol_eval(ineq, part, x, y)
                truth = table.value(x_idx, y_idx)
                checked += 1
                if not (tree_out == truth == real_out):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    _report(6, f"500 inequalities, {checked} inputs, 0 mismatches in {elapsed:.1f}s")


# --- criterion 7: tensor unsatisfiability at desk scale ------------------------


def test_criterion_07_tensor_unsat_rate():
    t0 = time.perf_counter()
    params = DistributionParams(384, 8, 2, derive_seed(MASTER_SEED, "criterion-7"))
    report = unsat_rate(params, tensor=True, samples=20)
    elapsed = time.perf_counter() - t0
    assert report.rate >= Fraction(9, 10)
    assert elapsed < 60.0
    _report(7, f"rate {report.rate} over 20 samples in {elapsed:.1f}s")


# --- criterion 8: distinct profiles --------------------------------------------


def test_criterion_08_distinct_profiles():
    t0 = time.perf_counter()
    distinct_runs = 0
    for s in range(20):
        params = DistributionParams(
            1152, 12, 3, derive_seed(MASTER_SEED, "criterion-8", s)
        )
        report = profile_distinctness(sample_f(params), mode="exact")
        assert report.rows_checked == 1 << 12
        distinct_runs += report.distinct
    elapsed = time.perf_counter() - t0
    assert distinct_runs >= 19
    assert elapsed < 1.0
    _report(8, f"{distinct_runs}/20 runs distinct in {elapsed:.1f}s")


# --- criterion 9: expansion ----------------------------------------------------


def test_criterion_09_expansion():
    t0 = time.perf_counter()
    params = DistributionParams(4000, 1000, 6, derive_seed(MASTER_SEED, "criterion-9"))
    formula = sample_f(params)
    report = expansion_report(
        formula,
        Fraction(1, 2),
        s_max=10,
        trials=10_000,
        seed=derive_seed(MASTER_SEED, "criterion-9-subsets"),
    )
    elapsed = time.perf_counter() - t0
    assert report.all_pass
    assert [r.mode for r in report.rows] == ["exact"] * 2 + ["sampled"] * 8
    for row in report.rows:
        assert row.min_vars >= 3 * row.size  # (1 - 1/2) * 6 * s
    assert elapsed < 2.5
    _report(9, f"sizes 1..10 all pass in {elapsed:.1f}s")


# --- criterion 10: heavy partitions --------------------------------------------


def test_criterion_10_heavy_partition():
    t0 = time.perf_counter()
    params = DistributionParams(2048, 128, 16, derive_seed(MASTER_SEED, "criterion-10"))
    formula = sample_f(params)
    report = heavy_partition_search(
        formula, Fraction(1, 4), max_trials=1000,
        seed=derive_seed(MASTER_SEED, "criterion-10-partition"),
    )
    if not report.accepted:  # one rerun with a fresh seed is permitted
        report = heavy_partition_search(
            formula, Fraction(1, 4), max_trials=1000,
            seed=derive_seed(MASTER_SEED, "criterion-10-retry"),
        )
    elapsed = time.perf_counter() - t0
    assert report.accepted
    assert report.z_x <= report.m_prime and report.z_y <= report.m_prime
    assert report.w_max <= report.m_prime * 16 / 128
    recount = heavy_side_counts(formula, report.partition, Fraction(1, 4))
    assert recount == (report.z_x, report.z_y, report.w_max)
    assert elapsed < 30.0
    _report(
        10,
        f"accepted at trial {report.trials_used}: z_x={report.z_x}, "
        f"z_y={report.z_y}, w_max={report.w_max}, m'={report.m_prime:.1f} "
        f"in {elapsed:.1f}s",
    )


# --- criterion 11: size-bound arithmetic and the agreement oracle --------------


def test_criterion_11_bound_and_agreement_oracles():
    t0 = time.perf_counter()
    rng = random.Random(derive_seed(MASTER_SEED, "criterion-11"))
    for _ in range(100):
        r, s = rng.randint(1, 5), rng.randint(1, 5)
        u = rng.randint(0, 2**14)
        v = rng.randint(0, 2**14)
        a1_1 = rng.randint(0, 128)
        a1_r = rng.randint(1, 128)
        a0_s = rng.randint(1, 128)
        ours = circuit_size_lower_bound(u, v, a1_1, a1_r, a0_s, r, s)
        num, den = separator_bound_oracle(u, v, a1_1, a1_r, a0_s, r, s)
        assert ours == Fraction(num, den)

    sets_checked = 0
    for _ in range(30):
        nbits = rng.randint(2, 24)
        graph = ConstraintGraph(
            tuple(range(1, nbits + 1)), tuple((v,) for v in range(1, (nbits + 1) // 2 + 1))
        )
        size = graph.size
        assert size <= 24
        instances = [
            CspSatInstance(graph, rng.getrandbits(size))
            for _ in range(rng.randint(1, 16))
        ]
        for r in range(0, min(3, size) + 1):
            for b in (0, 1):
                got = agreement_count(instances, r, b).value
                best = 0
                for combo in itertools.combinations(range(size), r):
                    count = 0
                    for inst in instances:
                        if all(inst.bit(p) == b for p in combo):
                            count += 1
                    best = max(best, count)
                assert got == best
                sets_checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        11,
        f"100 bound tuples and {sets_checked} agreement queries match "
        f"their oracles in {elapsed:.1f}s",
    )
