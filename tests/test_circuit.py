import hashlib
import random
import runpy
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    count_satisfying,
    extraction_oracle,
    plain_walk_oracle,
    random_formula,
    unsat_3cnfs,
)
from proofbench.circuit import (
    CcLine,
    CircuitBuilder,
    SeparationReport,
    _extract_from_masks,
    cc_lines_from_cp_proof,
    cc_lines_from_resolution,
    compile_cc_refutation,
    eval_circuit,
    eval_gates,
    extract_cc2_refutation,
    parse_circuit,
    roundtrip,
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
    parse_cp_lines,
    resolution_refutation_from_dpll,
)
from proofbench.cspsat import (
    accepting_instance,
    build_constraint_graph,
    rejecting_instance,
)
from proofbench.errors import (
    CapExceededError,
    CircuitTextError,
    ScopeError,
    SoundnessError,
)
from proofbench.gates import AndGate, ConstGate, InputGate, MonotoneCircuit, OrGate
from proofbench.linear import LinearInequality
from proofbench.protocol import (
    ALICE,
    BOB,
    ProtocolTree,
    clause_protocol,
    constant_tree,
    full_history_masks,
    history_masks,
    materialize_rectangle,
)
from proofbench.randomcnf import DistributionParams, derive_seed, sample_f
from proofbench.semantics import SemanticLine, check_semantic_step, rectangle_bits

COMPLETE_2CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
CONTRADICTION = "p cnf 1 2\n1 0\n-1 0\n"
# The benchmark's cutting-planes generator, read with ``runpy`` (no bytecode
# written): Cook-Coullard-Turan proofs of DPLL resolution refutations.
CPGEN = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "cpgen.py"),
    run_name="perfbench_cpgen",
)
# sha256 over the serialized circuits of the CP-route batch below, recorded
# before the stacked-tree walk was memoized: the memo must build the same
# gates in the same order.
CP_ROUTE_DIGEST = "c96d55cc0a1eb5c925b64dd9263809909511b81caa4737709c5e21f71e3b313d"
# The complete 2-CNF and six unsatisfiable random 3-CNFs for the roundtrip.
ROUNDTRIP_BATCH = [("complete2", parse_dimacs(COMPLETE_2CNF)), *unsat_3cnfs()]


@pytest.fixture
def table_builds(monkeypatch):
    """Counts of ``rectangle_bits``, ``spread`` and ``SemanticLine.bits``
    calls, through every module that binds them.
    """
    from proofbench import bitops, circuit, cpproof, cspsat, protocol, randomcnf
    from proofbench import semantics

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = (bitops, circuit, cpproof, cspsat, protocol, randomcnf, semantics)
    for name, owner in (("rectangle_bits", semantics), ("spread", bitops)):
        wrapped = counted(name, getattr(owner, name))
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    bits = counted("bits", vars(SemanticLine)["bits"].func)
    monkeypatch.setattr(SemanticLine, "bits", property(bits))
    return calls


def compile_complete():
    f = parse_dimacs(COMPLETE_2CNF)
    part = VariablePartition((1,), (2,))
    refutation = resolution_refutation_from_dpll(f)
    cc = cc_lines_from_resolution(refutation, part)
    result = compile_cc_refutation(cc, f, part)
    return f, part, cc, result


def halves(n):
    """The first half of the variables on X, the rest on Y."""
    return VariablePartition(tuple(range(1, n // 2 + 1)), tuple(range(n // 2 + 1, n + 1)))


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
    def test_hash_consing_shares_gates(self, monkeypatch):
        made = Counter()

        def counted(cls):
            def make(*args):
                made[cls.__name__] += 1
                return cls(*args)

            return make

        for cls in (InputGate, ConstGate, AndGate, OrGate):
            monkeypatch.setattr(f"proofbench.circuit.{cls.__name__}", counted(cls))
        b = CircuitBuilder()
        g1 = b.input_gate(1, (0,))
        g2 = b.input_gate(1, (0,))
        assert g1 == g2
        a1 = b.gate_and(g1, b.const(1))
        a2 = b.gate_and(b.const(1), g1)  # operand order is canonicalized
        assert a1 == a2
        assert b.gate_or(a1, g1) == b.gate_or(g1, a1)
        assert len(b.gates) == 4
        # a hash-cons hit builds no gate object
        assert made == Counter(InputGate=1, ConstGate=1, AndGate=1, OrGate=1)

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
        with pytest.raises(ValueError) as info:
            MonotoneCircuit((ConstGate(2),), 0)
        assert str(info.value) == "gate 0 has a non-boolean constant"


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
        # every stacked-tree node of the plain walk, which builds the same
        # circuit, is correct on its triple intersection
        f, part, cc, result = compile_complete()
        circuit, entries, _, records = plain_walk_oracle(cc, f, part)
        assert (circuit, entries) == (result.circuit, result.entries)
        assert records
        u_vals, v_vals = instance_gate_values(result.circuit, f, part)
        for *_, gate, xmask, ymask in records:
            for x in range(1 << part.n1):
                if (xmask >> x) & 1:
                    assert u_vals[x][gate] == 1
            for y in range(1 << part.n2):
                if (ymask >> y) & 1:
                    assert v_vals[y][gate] == 0

    def test_compile_builds_no_table(self, table_builds):
        # Lines are row classes from the protocol stage to the circuit: the
        # resolution and CP routes build no 2^n-bit table on the way.
        compile_complete()
        assert table_builds == Counter()
        for f, part, cc in cp_route_batch(count=2):
            assert verify_separation(
                compile_cc_refutation(cc, f, part).circuit, f, part
            ).passed
        assert table_builds == Counter()

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


SWAPPED_SIDES = VariablePartition((2,), (1,))


def _with_cc_line(cc, index, line):
    lines = list(cc)
    lines[index] = line
    return lines


class TestCompilePreconditions:
    @pytest.mark.parametrize(
        "derivation", [{}, {"axiom": 1, "premises": (0, 0)}], ids=["neither", "both"]
    )
    def test_cc_line_is_axiom_xor_derived(self, derivation):
        _, _, cc, _ = compile_complete()
        with pytest.raises(ValueError) as info:
            CcLine(cc[0].table, cc[0].tree, **derivation)
        assert str(info.value) == "a line is either an axiom or derived, never both"

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

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda cc: cc[:4], "refutation must contain the clauses and a final line"),
            (lambda cc: _with_cc_line(cc, 4, CcLine(cc[4].table, cc[4].tree, axiom=5)),
             "line 4: axiom index 5 out of range"),
            (lambda cc: _with_cc_line(cc, 4, CcLine(cc[4].table, cc[4].tree, axiom=1)),
             "line 4: table differs from clause 1"),
            (lambda cc: _with_cc_line(cc, 4, replace(cc[4], premises=(4, 0))),
             "line 4: premises must be earlier lines"),
            (lambda cc: _with_cc_line(
                cc, 6, replace(cc[6], tree=constant_tree(SWAPPED_SIDES, 0))
            ), "line 6: protocol tree uses another partition"),
            (lambda cc: _with_cc_line(
                cc, 6, replace(cc[6], table=SemanticLine(1, 1, ()))
            ), "line 6: row classes do not partition x"),
            (lambda cc: _with_cc_line(
                cc, 6, replace(cc[6], table=SemanticLine(1, 1, ((3, 0), (1, 1))))
            ), "line 6: row classes do not partition x"),
        ],
        ids=[
            "short", "axiom-index", "axiom-table", "late-premise", "other-partition",
            "no-classes", "overlapping-classes",
        ],
    )
    def test_malformed_refutation_rejected(self, mutate, message):
        f, part, cc, _ = compile_complete()
        with pytest.raises(SoundnessError) as info:
            compile_cc_refutation(mutate(cc), f, part)
        assert str(info.value) == message

    def test_split_axiom_classes_accepted(self):
        # an axiom line built by hand with the clause's function split over
        # two classes is the clause's line
        f = parse_dimacs("p cnf 2 3\n2 0\n-2 1 0\n-1 0\n")
        part = VariablePartition((1,), (2,))
        cc = cc_lines_from_resolution(resolution_refutation_from_dpll(f), part)
        assert cc[0].table.rows == ((3, 2),)
        split = _with_cc_line(
            cc, 0, replace(cc[0], table=SemanticLine(1, 1, ((1, 2), (2, 2))))
        )
        assert split[0].table == cc[0].table
        result = compile_cc_refutation(split, f, part)
        assert result == compile_cc_refutation(cc, f, part)

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

    @pytest.mark.parametrize(
        "name, a, b, message",
        [
            ("complete2", 4, 5,
             "line 4, history '00': premises both reject stacked leaf '1011' "
             "on a nonempty rectangle"),
            ("n8-0", 60, 62,
             "line 60, history '00': premises both reject stacked leaf '0101' "
             "on a nonempty rectangle"),
        ],
        ids=["complete2", "n8-0"],
    )
    def test_premises_both_reject(self, monkeypatch, name, a, b, message):
        # Lines a and b trade premises, and the entailment check is told to
        # accept them: a stacked leaf that both premises reject then meets a
        # good history's rectangle, which validation otherwise rules out.
        f = dict(ROUNDTRIP_BATCH)[name]
        part = VariablePartition.alternating(f.n)
        cc = cc_lines_from_resolution(resolution_refutation_from_dpll(f), part)
        bad = list(cc)
        bad[a] = replace(cc[a], premises=cc[b].premises)
        bad[b] = replace(cc[b], premises=cc[a].premises)
        monkeypatch.setattr("proofbench.circuit.check_semantic_step", lambda *args: True)
        for compile_fn in (compile_cc_refutation, plain_walk_oracle):
            with pytest.raises(SoundnessError) as info:
                compile_fn(bad, f, part)
            assert str(info.value) == message


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

    @pytest.mark.parametrize(
        "proof, message",
        [
            (CpProof(formula_to_system(parse_dimacs(CONTRADICTION))[:1], ()),
             "system size differs from the clause count"),
            (CpProof(
                formula_to_system(parse_dimacs(CONTRADICTION)),
                (ProofLine(LinearInequality((1,), 1), Hypothesis(1)),),
            ), "the proof never reaches a refutation terminal"),
            (CpProof(formula_to_system(parse_dimacs(CONTRADICTION))[::-1], ()),
             "system row 1 is not the encoding of clause 1"),
            (CpProof(
                formula_to_system(parse_dimacs(CONTRADICTION)),
                (ProofLine(LinearInequality((0,), 1), "rup"),),
            ), "unknown justification 'rup'"),
        ],
        ids=["system-size", "no-terminal", "system-row", "unknown-justification"],
    )
    def test_proof_shape_rejected(self, proof, message):
        f = parse_dimacs(CONTRADICTION)
        with pytest.raises(ValueError) as info:
            cc_lines_from_cp_proof(f, VariablePartition((1,), ()), proof)
        assert str(info.value) == message


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
        # the second partition names variables 3 and 4, which no line uses
        for part in (VariablePartition((1,), (2,)), VariablePartition((1, 3), (2, 4))):
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
        extraction = _extract_from_masks(circuit, f, part, val_u, val_v)
        for g in range(circuit.gate_count):
            bits = 0
            for x, uv in enumerate(u_vals):
                for y, vv in enumerate(v_vals):
                    if not (uv[g] == 1 and vv[g] == 0):
                        bits |= 1 << ((x << part.n2) | y)
            assert extraction.line(g).bits == bits


    def test_side_cap(self):
        f = parse_dimacs("p cnf 26 1\n1 2 0\n")
        part = VariablePartition.alternating(26)  # 13 variables a side
        circuit = MonotoneCircuit((ConstGate(0),), 0)
        for run in (
            lambda: side_values(circuit, f, part),
            lambda: verify_separation(circuit, f, part),
            lambda: extract_cc2_refutation(circuit, f, part),
        ):
            with pytest.raises(CapExceededError):
                run()


class TestInputLayout:
    @pytest.mark.parametrize(
        "gate, message",
        [
            (InputGate(0, (1,)), "input gate constraint 0 outside the layout (1..4)"),
            (InputGate(5, (0,)), "input gate constraint 5 outside the layout (1..4)"),
            (InputGate(1, (0, 1)), "alpha has 2 bits, constraint 1 reads 1 variables"),
            (InputGate(1, (2,)), "alpha bits must be 0 or 1"),
        ],
        ids=["constraint-0", "constraint-m+1", "alpha-length", "alpha-bit-2"],
    )
    def test_rejected_before_evaluation(self, gate, message):
        f = parse_dimacs(COMPLETE_2CNF)
        part = VariablePartition((1,), (2,))
        circuit = MonotoneCircuit((ConstGate(1), gate, AndGate(0, 1)), 2)
        for run in (
            lambda: side_values(circuit, f, part),
            lambda: verify_separation(circuit, f, part),
            lambda: extract_cc2_refutation(circuit, f, part),
        ):
            with pytest.raises(ValueError, match="gate 1") as info:
                run()
            assert info.type is ValueError
            assert str(info.value) == f"gate 1: {message}"

    def test_first_bad_gate_in_gate_order_is_named(self):
        f = parse_dimacs(COMPLETE_2CNF)
        part = VariablePartition((1,), (2,))
        gates = (InputGate(1, (0,)), ConstGate(1), InputGate(1, (2,)), InputGate(9, ()))
        with pytest.raises(ValueError) as info:
            side_values(MonotoneCircuit(gates, 3), f, part)
        assert str(info.value) == "gate 2: alpha bits must be 0 or 1"

    def test_scope_error_comes_before_any_gate(self):
        f = parse_dimacs("p cnf 3 1\n1 3 0\n")
        part = VariablePartition((1,), (2,))
        circuit = MonotoneCircuit((InputGate(9, ()),), 0)
        with pytest.raises(ScopeError) as info:
            side_values(circuit, f, part)
        assert str(info.value) == "clause variable 3 is outside the partition"

    @pytest.mark.parametrize("constraint", [0, 5])
    def test_eval_gates_rejects_outside_the_layout(self, constraint):
        f = parse_dimacs(COMPLETE_2CNF)
        part = VariablePartition((1,), (2,))
        inst = accepting_instance(
            build_constraint_graph(f, part), Assignment.from_map({1: 0})
        )
        circuit = MonotoneCircuit((ConstGate(1), InputGate(constraint, ())), 1)
        with pytest.raises(ValueError) as info:
            eval_gates(circuit, inst)
        assert str(info.value) == (
            f"input gate constraint {constraint} outside the layout"
        )


class TestExtraction:
    def test_round_trip_from_compiled_circuit(self):
        f, part, _, result = compile_complete()
        extraction = extract_cc2_refutation(result.circuit, f, part)
        assert extraction.report.all_ok
        assert extraction.report.line_count == result.circuit.gate_count
        gates = range(result.circuit.gate_count)
        assert all(extraction.tree(g).depth == 2 for g in gates)
        assert extraction.line(result.circuit.output).is_constant(0)

    def test_single_input_gate_flagged(self):
        f = parse_dimacs(COMPLETE_2CNF)
        part = VariablePartition((1,), (2,))
        circuit = MonotoneCircuit((InputGate(1, (0,)),), 0)
        masks = side_values(circuit, f, part)
        extraction = _extract_from_masks(circuit, f, part, *masks)
        # the leaf line is 0 exactly when x matches alpha and clause 1 fails
        line = extraction.line(0)
        for x in range(2):
            for y in range(2):
                expected = 0 if (x == 0 and (x, y) == (0, 0)) else 1
                assert line.value(x, y) == expected
        assert extraction.report.leaf_entailments_ok
        assert not extraction.report.root_constant_zero
        assert not extraction.report.all_ok

    def test_no_table_in_roundtrip(self, table_builds, monkeypatch):
        # Compile checks row classes and extraction checks rectangle covers,
        # so no stage of a roundtrip builds a table, and extraction builds
        # no line and checks no semantic step. A table built on request is
        # counted.
        def counted(name, fn):
            def wrapper(*args, **kwargs):
                table_builds[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        step = counted("check_semantic_step", check_semantic_step)
        monkeypatch.setattr("proofbench.circuit.check_semantic_step", step)
        monkeypatch.setattr(
            SemanticLine, "__init__", counted("SemanticLine", SemanticLine.__init__)
        )
        for name, f in ROUNDTRIP_BATCH[:3]:
            part = VariablePartition.alternating(f.n)
            result = roundtrip(f, part)
            assert result.extraction.report.all_ok, name
            assert set(table_builds) == {"SemanticLine", "check_semantic_step"}, name
            table_builds.clear()
            circuit = result.compiled.circuit
            assert extract_cc2_refutation(circuit, f, part).report.all_ok
            assert table_builds == Counter(), name
            table = result.lines[0].table
            assert table.bits
            k = len(table.rows)
            assert table_builds == Counter(bits=1, rectangle_bits=k, spread=k)
            table_builds.clear()

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

    # Masks that side_values never produces, on the compiled complete 2-CNF
    # circuit: g0 = in 1 0 (x = 0), g6 = const1, g7 = and g0 g6.
    @pytest.mark.parametrize(
        "side, gate, mask, flag, problem",
        [
            ("u", 0, 0b11, "leaf_entailments_ok",
             "gate 0: line not entailed by clause axiom"),
            ("v", 6, 0b01, "constant_lines_ok",
             "gate 6: constant gate line is not constant 1"),
            ("u", 7, 0b11, "internal_entailments_ok",
             "gate 7: line not entailed by its children"),
        ],
        ids=["input-widened", "const-not-constant", "and-not-and"],
    )
    def test_inconsistent_masks_flagged(self, side, gate, mask, flag, problem):
        f, part, _, result = compile_complete()
        circuit = result.circuit
        val_u, val_v = side_values(circuit, f, part)
        assert _extract_from_masks(circuit, f, part, val_u, val_v).report.all_ok
        masks = {"u": val_u, "v": val_v}
        assert masks[side][gate] != mask
        masks[side][gate] = mask
        report = _extract_from_masks(circuit, f, part, val_u, val_v).report
        assert report.problems == (problem,)
        assert getattr(report, flag) is False
        assert report.root_constant_zero
        assert report.all_ok is False


class TestExtractionMatchesTables:
    """The rectangle-cover extraction against the table oracle it replaced,
    on ``side_values``' masks and on arbitrary masks put in their place for
    some gates, each within its side's range.
    """

    @settings(max_examples=150, deadline=None)
    @given(layout_circuits(), st.data())
    def test_report_lines_and_trees(self, case, data):
        f, part, circuit = case
        val_u, val_v = side_values(circuit, f, part)
        xfull, yfull = (1 << (1 << part.n1)) - 1, (1 << (1 << part.n2)) - 1
        gate_ids = st.integers(0, circuit.gate_count - 1)
        for g in data.draw(st.lists(gate_ids, max_size=4)):
            val_u[g] = data.draw(st.one_of(st.just(val_u[g]), st.integers(0, xfull)))
            val_v[g] = data.draw(st.one_of(st.just(val_v[g]), st.integers(0, yfull)))
        report, lines = extraction_oracle(circuit, f, part, val_u, val_v)
        extraction = _extract_from_masks(circuit, f, part, val_u, val_v)
        assert extraction.report == report
        for g, line in enumerate(lines):
            assert extraction.line(g) == line
            # the two-bit tree computes the line on every history's rectangle
            tree = extraction.tree(g)
            for h, (xm, ym) in full_history_masks(tree).items():
                rect = rectangle_bits(xm, ym, part.n2)
                assert line.bits & rect == (rect if tree.output_at(h) else 0)


class TestRoundtrip:
    """``roundtrip`` against the stages chained by hand, each computing its
    own side masks.
    """

    @pytest.mark.parametrize(
        "f", [f for _, f in ROUNDTRIP_BATCH], ids=[n for n, _ in ROUNDTRIP_BATCH]
    )
    def test_matches_hand_chained_stages(self, f):
        part = VariablePartition.alternating(f.n)
        rt = roundtrip(f, part)

        refutation = resolution_refutation_from_dpll(f)
        cc = cc_lines_from_resolution(refutation, part)
        result = compile_cc_refutation(cc, f, part)
        sep = verify_separation(result.circuit, f, part)
        assert sep.passed
        val_u, val_v = side_values(result.circuit, f, part)
        violations = 0
        for entry in result.entries:
            xm, ym = history_masks(cc[entry.line_index].tree, entry.history)
            violations += (xm & ~val_u[entry.gate]).bit_count()
            violations += (ym & val_v[entry.gate]).bit_count()
        extraction = extract_cc2_refutation(result.circuit, f, part)

        assert rt.refutation == refutation
        assert rt.lines == cc
        assert rt.compiled == result
        assert rt.separation == sep
        assert rt.claim_violations == violations == 0
        assert rt.extraction.report == extraction.report
        assert rt.extraction.report.all_ok
        assert rt.extraction == extraction
        assert (rt.extraction.val_u, rt.extraction.val_v) == (tuple(val_u), tuple(val_v))
        report, lines = extraction_oracle(result.circuit, f, part, val_u, val_v)
        assert rt.extraction.report == report
        assert [rt.extraction.line(g) for g in range(len(lines))] == list(lines)

    def test_no_extraction_without_separation(self, monkeypatch):
        f = parse_dimacs(COMPLETE_2CNF)
        part = VariablePartition((1,), (2,))
        one = MonotoneCircuit((ConstGate(1),), 0)
        monkeypatch.setattr(
            "proofbench.circuit.compile_cc_refutation",
            lambda *args: replace(compile_cc_refutation(*args), circuit=one),
        )
        rt = roundtrip(f, part)
        assert rt.separation == SeparationReport(False, 2, 2, None, 0)
        assert rt.claim_violations == 0
        assert rt.extraction is None


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

    def test_comments_blank_lines_and_tight_equals(self):
        text = "# a comment\n\ng0=const0\n  \ng1 = or g0 g0\noutput g1\n"
        assert parse_circuit(text) == MonotoneCircuit(
            (ConstGate(0), OrGate(0, 0)), 1
        )

    def test_parse_errors(self):
        with pytest.raises(CircuitTextError):
            parse_circuit("g0 = xor g1 g2\noutput g0\n")
        with pytest.raises(CircuitTextError):
            parse_circuit("g0 = const0\n")
        with pytest.raises(CircuitTextError):
            parse_circuit("g1 = const0\noutput g1\n")


def cp_route_batch(count=6, n=8, m=60, part=None):
    """Unsat random 3-CNFs, each with the compiler lines of its generated
    cutting-planes refutation, on the alternating partition by default.
    """
    part = part or VariablePartition.alternating(n)
    batch, index = [], 0
    while len(batch) < count:
        f = sample_f(DistributionParams(m, n, 3, derive_seed(7, "cp-memo", index)))
        index += 1
        if count_satisfying(f):
            continue
        cp = CPGEN["resolution_to_cp"](resolution_refutation_from_dpll(f), n)
        lines = parse_cp_lines(CPGEN["serialize"](cp), n)
        proof = CpProof(formula_to_system(f), lines)
        batch.append((f, part, cc_lines_from_cp_proof(f, part, proof)))
    return batch


def matches_plain_walk(cc, f, part):
    """Compile and the plain walk agree on circuit text, entries and report."""
    result = compile_cc_refutation(cc, f, part)
    circuit, entries, report, _ = plain_walk_oracle(cc, f, part)
    text = serialize_circuit(result.circuit)
    assert text == serialize_circuit(circuit)
    assert result.entries == entries
    assert result.report == report
    return result


def mixed_owner_tree(tree, pred):
    """A clause's two-bit tree in which Alice speaks again, sending bit x of
    ``pred``, under her "1": level 1 has a Bob and an Alice node. Her "1"
    satisfies the clause, so both leaves below it output 1, as "01" does.
    """
    owners = (None, ALICE, BOB, ALICE)
    return ProtocolTree(
        tree.part, 2, owners, (0, tree.preds[1], tree.preds[2], pred), tree.outputs
    )


class TestMemoizedWalk:
    """Compile's memoized walk against the plain walk it replaced."""

    def test_matches_plain_walk_on_mixed_owner_trees(self):
        # Every axiom line carries a mixed-owner tree, so derived lines walk
        # it as premise k both with masks and below a gate of premise j.
        for _, f in ROUNDTRIP_BATCH:
            refutation = resolution_refutation_from_dpll(f)
            for part in (VariablePartition.alternating(f.n), halves(f.n)):
                pred = part.var_masks[part.xvars[-1]]
                cc = [
                    replace(ln, tree=mixed_owner_tree(ln.tree, pred))
                    if ln.axiom is not None else ln
                    for ln in cc_lines_from_resolution(refutation, part)
                ]
                assert any(cc[ln.premises[1]].axiom for ln in cc if ln.premises)
                result = matches_plain_walk(cc, f, part)
                assert verify_separation(result.circuit, f, part).passed

    def test_matches_plain_walk_on_cp_proofs(self):
        texts = []
        for f, part, cc in cp_route_batch():
            result = matches_plain_walk(cc, f, part)
            assert verify_separation(result.circuit, f, part).passed
            texts.append(serialize_circuit(result.circuit))
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest == CP_ROUTE_DIGEST
        wider = cp_route_batch(count=2, n=10, m=90) + cp_route_batch(count=2, part=halves(8))
        for f, part, cc in wider:
            matches_plain_walk(cc, f, part)
        for _, f in ROUNDTRIP_BATCH:
            refutation = resolution_refutation_from_dpll(f)
            for part in (VariablePartition.alternating(f.n), halves(f.n)):
                matches_plain_walk(cc_lines_from_resolution(refutation, part), f, part)
