import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_satisfying, random_formula
from proofbench.circuit import (
    CcLine,
    CircuitBuilder,
    SeparationReport,
    cc_lines_from_cp_proof,
    cc_lines_from_resolution,
    compile_cc_refutation,
    eval_circuit,
    eval_gates,
    extract_cc2_refutation,
    parse_circuit,
    serialize_circuit,
    side_values,
    verify_separation,
)
from proofbench.cnf import (
    Assignment,
    Clause,
    CnfFormula,
    Literal,
    VariablePartition,
    formula_to_system,
    parse_dimacs,
)
from proofbench.cpproof import (
    Addition,
    CpProof,
    Hypothesis,
    ProofLine,
    resolution_refutation_from_dpll,
)
from proofbench.cspsat import (
    accepting_instance,
    build_constraint_graph,
    rejecting_instance,
)
from proofbench.errors import CapExceededError, CircuitTextError, SoundnessError
from proofbench.gates import AndGate, ConstGate, InputGate, MonotoneCircuit, OrGate
from proofbench.linear import LinearInequality
from proofbench.protocol import clause_protocol, materialize_rectangle
from proofbench.semantics import SemanticLine

COMPLETE_2CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
CONTRADICTION = "p cnf 1 2\n1 0\n-1 0\n"


def compile_complete(record_nodes=False):
    f = parse_dimacs(COMPLETE_2CNF)
    part = VariablePartition((1,), (2,))
    refutation = resolution_refutation_from_dpll(f)
    cc = cc_lines_from_resolution(refutation, part)
    result = compile_cc_refutation(cc, f, part, record_nodes=record_nodes)
    return f, part, cc, result


def instance_gate_values(circuit, f, part):
    """Every gate's value on every U(x) and V(y), from the built instances."""
    graph = build_constraint_graph(f, part)
    u_vals = [
        eval_gates(circuit, accepting_instance(graph, part.x_assignment(x)))
        for x in range(1 << part.n1)
    ]
    v_vals = [
        eval_gates(circuit, rejecting_instance(graph, f, part, part.y_assignment(y)))
        for y in range(1 << part.n2)
    ]
    return u_vals, v_vals


class TestBuilderAndEval:
    def test_hash_consing_shares_gates(self):
        b = CircuitBuilder()
        g1 = b.input_gate(1, (0,))
        g2 = b.input_gate(1, (0,))
        assert g1 == g2
        a1 = b.gate_and(g1, b.const(1))
        a2 = b.gate_and(b.const(1), g1)  # operand order is canonicalized
        assert a1 == a2
        assert len(b.gates) == 3

    def test_eval_reference(self):
        f = parse_dimacs(COMPLETE_2CNF)
        part = VariablePartition((1,), (2,))
        g = build_constraint_graph(f, part)
        circuit = MonotoneCircuit((InputGate(1, (0,)),), 0)
        u0 = accepting_instance(g, Assignment.from_map({1: 0}))
        v0 = rejecting_instance(g, f, part, Assignment.from_map({2: 0}))
        assert eval_circuit(circuit, u0) == 1
        assert eval_circuit(circuit, v0) == 0
        assert eval_circuit(MonotoneCircuit((ConstGate(1),), 0), u0) == 1

    def test_gate_reference_validation(self):
        with pytest.raises(ValueError):
            MonotoneCircuit((AndGate(0, 1),), 0)
        with pytest.raises(ValueError):
            MonotoneCircuit((ConstGate(0),), 3)


class TestCompileComplete2Cnf:
    def test_separation(self):
        f, part, _, result = compile_complete()
        report = verify_separation(result.circuit, f, part)
        assert report.passed

    def test_axiom_entry_is_input_gate(self):
        f, part, cc, result = compile_complete()
        entry = next(
            e for e in result.entries if e.line_index == 0 and e.history == "00"
        )
        gate = result.circuit.gates[entry.gate]
        assert gate == InputGate(1, (0,))

    def test_gate_count_bound(self):
        _, _, cc, result = compile_complete()
        assert result.report.gate_count <= result.report.size_bound
        assert result.report.max_protocol_depth == 2
        assert result.report.line_count == 7

    def test_claim_invariant(self):
        f, part, cc, result = compile_complete()
        u_vals, v_vals = instance_gate_values(result.circuit, f, part)
        for entry in result.entries:
            rect = materialize_rectangle(cc[entry.line_index].tree, entry.history)
            for x in rect.xset:
                assert u_vals[x][entry.gate] == 1
            for y in rect.yset:
                assert v_vals[y][entry.gate] == 0

    def test_stronger_node_invariant(self):
        # every stacked-tree node is correct on its triple intersection
        f, part, cc, result = compile_complete(record_nodes=True)
        assert result.node_records
        u_vals, v_vals = instance_gate_values(result.circuit, f, part)
        for node in result.node_records:
            for x in range(1 << part.n1):
                if (node.xmask >> x) & 1:
                    assert u_vals[x][node.gate] == 1
            for y in range(1 << part.n2):
                if (node.ymask >> y) & 1:
                    assert v_vals[y][node.gate] == 0

    def test_monotone_spot_check(self):
        f, part, _, result = compile_complete()
        g = build_constraint_graph(f, part)
        rng = random.Random(5)
        from proofbench.cspsat import CspSatInstance

        for _ in range(200):
            high = rng.getrandbits(g.size)
            low = high & rng.getrandbits(g.size)
            assert eval_circuit(result.circuit, CspSatInstance(g, low)) <= eval_circuit(
                result.circuit, CspSatInstance(g, high)
            )


class TestCompileContradiction:
    def test_y_side_empty(self):
        f = parse_dimacs(CONTRADICTION)
        part = VariablePartition((1,), ())
        refutation = resolution_refutation_from_dpll(f)
        cc = cc_lines_from_resolution(refutation, part)
        result = compile_cc_refutation(cc, f, part)
        graph = build_constraint_graph(f, part)
        assert graph.size == 4
        assert verify_separation(result.circuit, f, part).passed

    def test_x_side_empty(self):
        f = parse_dimacs(CONTRADICTION)
        part = VariablePartition((), (1,))
        refutation = resolution_refutation_from_dpll(f)
        cc = cc_lines_from_resolution(refutation, part)
        result = compile_cc_refutation(cc, f, part)
        assert verify_separation(result.circuit, f, part).passed


class TestCompilePreconditions:
    def test_tampered_table_rejected(self):
        f, part, cc, _ = compile_complete()
        bad = list(cc)
        final = bad[-1]
        bad[-1] = CcLine(
            SemanticLine.constant(part, 1), final.tree, premises=final.premises
        )
        with pytest.raises(SoundnessError):
            compile_cc_refutation(bad, f, part)

    def test_axiom_order_enforced(self):
        f, part, cc, _ = compile_complete()
        bad = list(cc)
        bad[0], bad[1] = bad[1], bad[0]
        with pytest.raises(SoundnessError, match="axiom"):
            compile_cc_refutation(bad, f, part)

    def test_unsound_step_rejected(self):
        f, part, cc, _ = compile_complete()
        bad = list(cc)
        # line 4 claims to be derived from two axioms that do not entail it
        target = bad[4]
        bad[4] = CcLine(target.table, target.tree, premises=(0, 3))
        with pytest.raises(SoundnessError, match="entailed"):
            compile_cc_refutation(bad, f, part)

    def test_tree_table_disagreement_rejected(self):
        f, part, cc, _ = compile_complete()
        bad = list(cc)
        # swap line 4's tree for line 5's; the tables differ
        bad[4] = CcLine(bad[4].table, bad[5].tree, premises=bad[4].premises)
        with pytest.raises(SoundnessError, match="disagrees"):
            compile_cc_refutation(bad, f, part)

    @pytest.mark.parametrize("line, other", [(0, 1), (3, 2)])
    def test_axiom_with_another_clauses_protocol_rejected(self, line, other):
        # The table stays the clause's own, so only the tree-vs-table check
        # fails. Clause 4 under clause 3's protocol disagrees only at x = 1.
        f, part, cc, _ = compile_complete()
        bad = list(cc)
        tree = clause_protocol(f.clauses[other], part)
        bad[line] = CcLine(bad[line].table, tree, axiom=bad[line].axiom)
        with pytest.raises(
            SoundnessError, match=f"line {line}: protocol tree disagrees"
        ):
            compile_cc_refutation(bad, f, part)

    def test_final_line_must_be_silent(self):
        f, part, cc, _ = compile_complete()
        bad = list(cc)
        bad.append(
            CcLine(
                SemanticLine.constant(part, 0),
                cc[0].tree,  # depth-2 tree on the final line
                premises=(len(bad) - 1, len(bad) - 1),
            )
        )
        with pytest.raises(SoundnessError, match="depth-0"):
            compile_cc_refutation(bad, f, part)


class TestCpProofCompilation:
    def test_contradiction_proof_compiles(self):
        f = parse_dimacs(CONTRADICTION)
        system = formula_to_system(f)
        proof = CpProof(
            system,
            (
                ProofLine(LinearInequality((1,), 1), Hypothesis(1)),
                ProofLine(LinearInequality((-1,), 0), Hypothesis(2)),
                ProofLine(LinearInequality((0,), 1), Addition(1, 2)),
            ),
        )
        for part in (VariablePartition((1,), ()), VariablePartition((), (1,))):
            cc = cc_lines_from_cp_proof(f, part, proof)
            assert len(cc) == 5  # 2 clause axioms + 3 proof lines
            result = compile_cc_refutation(cc, f, part)
            assert verify_separation(result.circuit, f, part).passed


class TestHeterogeneousTrees:
    def test_resolvents_carried_by_sum_protocols(self):
        # swap the derived clause lines' trees for sum-announcing protocols
        # of their encodings; tables are unchanged, depths differ
        from proofbench.cnf import clause_to_inequality
        from proofbench.cnf import Clause as ClauseT
        from proofbench.protocol import inequality_protocol

        rng = random.Random(71)
        done = 0
        while done < 6:
            n = rng.randint(2, 5)
            f = random_formula(rng, n, rng.randint(6, 18))
            if count_satisfying(f):
                continue
            done += 1
            part = VariablePartition.alternating(n)
            refutation = resolution_refutation_from_dpll(f)
            cc = list(cc_lines_from_resolution(refutation, part))
            for i, (cc_line, res_line) in enumerate(zip(cc, refutation.lines)):
                if cc_line.premises is None or not res_line.literals:
                    continue
                lits = tuple(sorted(res_line.literals, key=lambda l: l.var))
                ineq = clause_to_inequality(ClauseT(lits), f.n)
                cc[i] = CcLine(
                    cc_line.table,
                    inequality_protocol(ineq, part),
                    premises=cc_line.premises,
                )
            result = compile_cc_refutation(cc, f, part)
            assert verify_separation(result.circuit, f, part).passed
            extraction = extract_cc2_refutation(result.circuit, f, part)
            assert extraction.report.all_ok


class TestCpDivisionPipeline:
    def test_division_refutation_compiles(self):
        # classic division use: double x1, halve with ceiling, contradict
        f = parse_dimacs("p cnf 2 3\n1 2 0\n1 -2 0\n-1 0\n")
        system = formula_to_system(f)
        from proofbench.cpproof import Division

        proof = CpProof(
            system,
            (
                ProofLine(system[0], Hypothesis(1)),      # x1 + y1 >= 1
                ProofLine(system[1], Hypothesis(2)),      # x1 - y1 >= 0
                ProofLine(LinearInequality((2, 0), 1), Addition(1, 2)),
                ProofLine(LinearInequality((1, 0), 1), Division(3, 2)),
                ProofLine(system[2], Hypothesis(3)),      # -x1 >= 0
                ProofLine(LinearInequality((0, 0), 1), Addition(4, 5)),
            ),
        )
        from proofbench.cpproof import check_cp_proof

        report = check_cp_proof(proof)
        assert report.all_valid and report.is_refutation
        part = VariablePartition((1,), (2,))
        cc = cc_lines_from_cp_proof(f, part, proof)
        # the doubled line announces sums in two bits: deeper stacked trees
        assert max(line.tree.depth for line in cc) == 3
        result = compile_cc_refutation(cc, f, part)
        assert verify_separation(result.circuit, f, part).passed
        extraction = extract_cc2_refutation(result.circuit, f, part)
        assert extraction.report.all_ok

    def test_boolean_axiom_line_compiles(self):
        f = parse_dimacs(CONTRADICTION)
        system = formula_to_system(f)
        from proofbench.cpproof import BooleanAxiom

        proof = CpProof(
            system,
            (
                ProofLine(LinearInequality((1,), 0), BooleanAxiom(1, "lo")),
                ProofLine(system[0], Hypothesis(1)),
                ProofLine(system[1], Hypothesis(2)),
                ProofLine(LinearInequality((0,), 1), Addition(2, 3)),
            ),
        )
        part = VariablePartition((1,), ())
        cc = cc_lines_from_cp_proof(f, part, proof)
        result = compile_cc_refutation(cc, f, part)
        assert verify_separation(result.circuit, f, part).passed


class TestVerifySeparation:
    def test_const_circuits_fail_with_witness(self):
        f = parse_dimacs(COMPLETE_2CNF)
        part = VariablePartition((1,), (2,))
        zero = MonotoneCircuit((ConstGate(0),), 0)
        report = verify_separation(zero, f, part)
        assert not report.passed and report.failing_x == 0 and report.failing_y is None
        one = MonotoneCircuit((ConstGate(1),), 0)
        report = verify_separation(one, f, part)
        assert not report.passed and report.failing_y == 0 and report.failing_x is None

    def test_const_witnesses_on_uneven_sides(self):
        f = parse_dimacs("p cnf 5 2\n1 -3 4 0\n-2 5 0\n")
        part = VariablePartition((1, 2), (3, 4, 5))
        one = verify_separation(MonotoneCircuit((ConstGate(1),), 0), f, part)
        assert one == SeparationReport(False, 4, 8, None, 0)
        zero = verify_separation(MonotoneCircuit((ConstGate(0),), 0), f, part)
        assert zero == SeparationReport(False, 4, 8, 0, None)

    def test_lowest_failing_indices(self):
        # in 1 0 accepts U(x) only at x=0 and V(y) only where y satisfies
        # clause 1's Y-literal, so both witnesses are index 1
        f = parse_dimacs(COMPLETE_2CNF)
        part = VariablePartition((1,), (2,))
        report = verify_separation(MonotoneCircuit((InputGate(1, (0,)),), 0), f, part)
        assert report == SeparationReport(False, 2, 2, 1, 1)


@st.composite
def layout_circuits(draw, max_n=8, max_m=6, max_gates=16):
    """A formula, a partition (either side may be empty), and a circuit of
    input gates (empty alpha for constraints with no X-side variable),
    constants, AND and OR gates.
    """
    n = draw(st.integers(1, max_n))
    on_x = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    part = VariablePartition(
        tuple(v for v in range(1, n + 1) if on_x[v - 1]),
        tuple(v for v in range(1, n + 1) if not on_x[v - 1]),
    )
    clauses = []
    for _ in range(draw(st.integers(1, max_m))):
        vs = draw(
            st.lists(st.integers(1, n), min_size=1, max_size=min(n, 4), unique=True)
        )
        signs = draw(st.lists(st.booleans(), min_size=len(vs), max_size=len(vs)))
        clauses.append(Clause(tuple(Literal(v, s) for v, s in zip(sorted(vs), signs))))
    gates = []
    for g in range(draw(st.integers(1, max_gates))):
        kind = draw(st.sampled_from(("in", "const", "and", "or") if g else ("in", "const")))
        if kind == "in":
            c = draw(st.integers(1, len(clauses)))
            width = len(clauses[c - 1].vars & part.xset)
            bits = draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
            gates.append(InputGate(c, tuple(bits)))
        elif kind == "const":
            gates.append(ConstGate(draw(st.integers(0, 1))))
        else:
            left, right = draw(st.integers(0, g - 1)), draw(st.integers(0, g - 1))
            gates.append((AndGate if kind == "and" else OrGate)(left, right))
    circuit = MonotoneCircuit(tuple(gates), draw(st.integers(0, len(gates) - 1)))
    return CnfFormula(n, tuple(clauses)), part, circuit


class TestSideValues:
    """The side masks against the instance-level oracle: building every
    U(x) and V(y) and evaluating the circuit on each.
    """

    @settings(max_examples=150, deadline=None)
    @given(layout_circuits())
    def test_masks_match_instance_evaluation(self, case):
        f, part, circuit = case
        val_u, val_v = side_values(circuit, f, part)
        u_vals, v_vals = instance_gate_values(circuit, f, part)
        for x, vals in enumerate(u_vals):
            assert [(vu >> x) & 1 for vu in val_u] == vals
        for y, vals in enumerate(v_vals):
            assert [(vv >> y) & 1 for vv in val_v] == vals

        out = circuit.output
        failing_x = next((x for x, vals in enumerate(u_vals) if vals[out] != 1), None)
        failing_y = next((y for y, vals in enumerate(v_vals) if vals[out] != 0), None)
        expected = SeparationReport(
            failing_x is None and failing_y is None,
            1 << part.n1,
            1 << part.n2,
            failing_x,
            failing_y,
        )
        assert verify_separation(circuit, f, part) == expected

        # extraction's line of gate g is 0 exactly where g accepts U(x) and
        # rejects V(y)
        extraction = extract_cc2_refutation(circuit, f, part, require_separation=False)
        for g, line in enumerate(extraction.lines):
            bits = 0
            for x, uv in enumerate(u_vals):
                for y, vv in enumerate(v_vals):
                    if not (uv[g] == 1 and vv[g] == 0):
                        bits |= 1 << ((x << part.n2) | y)
            assert line.bits == bits


    def test_side_cap(self):
        f = parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")
        part = VariablePartition.alternating(4)
        circuit = MonotoneCircuit((ConstGate(0),), 0)
        for run in (
            lambda: side_values(circuit, f, part, side_cap=1),
            lambda: verify_separation(circuit, f, part, side_cap=1),
            lambda: extract_cc2_refutation(
                circuit, f, part, side_cap=1, require_separation=False
            ),
        ):
            with pytest.raises(CapExceededError):
                run()


class TestInputLayout:
    @pytest.mark.parametrize(
        "gate",
        [InputGate(0, (1,)), InputGate(5, (0,)), InputGate(1, (0, 1)), InputGate(1, (2,))],
        ids=["constraint-0", "constraint-m+1", "alpha-length", "alpha-bit-2"],
    )
    def test_rejected_before_evaluation(self, gate):
        f = parse_dimacs(COMPLETE_2CNF)
        part = VariablePartition((1,), (2,))
        circuit = MonotoneCircuit((ConstGate(1), gate, AndGate(0, 1)), 2)
        for run in (
            lambda: side_values(circuit, f, part),
            lambda: verify_separation(circuit, f, part),
            lambda: extract_cc2_refutation(circuit, f, part, require_separation=False),
        ):
            with pytest.raises(ValueError, match="gate 1") as info:
                run()
            assert info.type is ValueError


class TestExtraction:
    def test_round_trip_from_compiled_circuit(self):
        f, part, _, result = compile_complete()
        extraction = extract_cc2_refutation(result.circuit, f, part)
        assert extraction.report.all_ok
        assert extraction.report.line_count == result.circuit.gate_count
        assert all(t.depth == 2 for t in extraction.trees)
        for g, gate in enumerate(result.circuit.gates):
            if isinstance(gate, InputGate):
                assert extraction.provenance[g] == (gate.constraint, gate.alpha)
        assert extraction.lines[result.circuit.output].is_constant(0)

    def test_single_input_gate_flagged(self):
        f = parse_dimacs(COMPLETE_2CNF)
        part = VariablePartition((1,), (2,))
        circuit = MonotoneCircuit((InputGate(1, (0,)),), 0)
        extraction = extract_cc2_refutation(
            circuit, f, part, require_separation=False
        )
        # the leaf line is 0 exactly when x matches alpha and clause 1 fails
        line = extraction.lines[0]
        for x in range(2):
            for y in range(2):
                expected = 0 if (x == 0 and (x, y) == (0, 0)) else 1
                assert line.value(x, y) == expected
        assert extraction.report.leaf_entailments_ok
        assert not extraction.report.root_constant_zero
        assert not extraction.report.all_ok

    def test_separation_precondition(self):
        f = parse_dimacs(COMPLETE_2CNF)
        part = VariablePartition((1,), (2,))
        zero = MonotoneCircuit((ConstGate(0),), 0)
        with pytest.raises(SoundnessError):
            extract_cc2_refutation(zero, f, part)

    def test_random_round_trips(self):
        rng = random.Random(61)
        done = 0
        while done < 10:
            n = rng.randint(2, 6)
            f = random_formula(rng, n, rng.randint(6, 20))
            if count_satisfying(f):
                continue
            done += 1
            part = VariablePartition.alternating(n)
            refutation = resolution_refutation_from_dpll(f)
            cc = cc_lines_from_resolution(refutation, part)
            result = compile_cc_refutation(cc, f, part)
            assert verify_separation(result.circuit, f, part).passed
            extraction = extract_cc2_refutation(result.circuit, f, part)
            assert extraction.report.all_ok
            assert extraction.report.line_count == result.circuit.gate_count


class TestCircuitText:
    def test_roundtrip(self):
        _, _, _, result = compile_complete()
        text = serialize_circuit(result.circuit)
        again = parse_circuit(text)
        assert again == result.circuit

    def test_empty_alpha_dash(self):
        circuit = MonotoneCircuit((InputGate(3, ()), ConstGate(0)), 0)
        text = serialize_circuit(circuit)
        assert "in 3 -" in text
        assert parse_circuit(text) == circuit

    def test_parse_errors(self):
        with pytest.raises(CircuitTextError):
            parse_circuit("g0 = xor g1 g2\noutput g0\n")
        with pytest.raises(CircuitTextError):
            parse_circuit("g0 = const0\n")
        with pytest.raises(CircuitTextError):
            parse_circuit("g1 = const0\noutput g1\n")
