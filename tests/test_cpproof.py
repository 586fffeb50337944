import hashlib
import json
import random
from dataclasses import replace

import pytest

from helpers import count_satisfying, random_formula
from proofbench.cnf import (
    VariablePartition,
    brute_force_sat,
    eval_clause,
    formula_to_system,
    parse_dimacs,
)
from proofbench.cpproof import (
    Addition,
    BooleanAxiom,
    CpProof,
    Division,
    Hypothesis,
    LineVerdict,
    ProofLine,
    check_cp_proof,
    cp_lines_to_protocols,
    parse_cp_lines,
    proof_weight,
    resolution_refutation_from_dpll,
    resolution_problems,
    serialize_cp_lines,
)
from proofbench.errors import ProofTextError, SatisfiableError, ScopeError
from proofbench.linear import LinearInequality
from proofbench.protocol import run_protocol
from proofbench.randomcnf import DistributionParams, derive_seed, sample_f, sample_tensor
from proofbench.semantics import SemanticLine, check_semantic_step

CONTRADICTION = "p cnf 1 2\n1 0\n-1 0\n"
MASTER_SEED = 20250809  # the acceptance suite's master seed
# Refutation digests recorded before the two DPLL searches were merged: the
# merged search must reproduce the old refutations line for line.
CRITERION_2_DIGEST = "288606cf7b0bf6783376d9c2ee1e1eff8eb885075adff49d24c178dd8ffc9661"
TENSOR_DIGEST = "70c81605c18ddd65375402513e406d11f26a5da602365789ccea302a21490ab6"


def contradiction_proof() -> CpProof:
    system = formula_to_system(parse_dimacs(CONTRADICTION))
    lines = (
        ProofLine(LinearInequality((1,), 1), Hypothesis(1)),
        ProofLine(LinearInequality((-1,), 0), Hypothesis(2)),
        ProofLine(LinearInequality((0,), 1), Addition(1, 2)),
    )
    return CpProof(system, lines)


def division_proof() -> CpProof:
    system = (LinearInequality((2, 2), 3),)
    lines = (
        ProofLine(LinearInequality((2, 2), 3), Hypothesis(1)),
        ProofLine(LinearInequality((1, 1), 2), Division(1, 2)),
    )
    return CpProof(system, lines)


class TestChecker:
    def test_three_line_refutation(self):
        report = check_cp_proof(contradiction_proof())
        assert report.all_valid and report.is_refutation
        assert [v.valid for v in report.verdicts] == [True, True, True]

    def test_division_rounds_up(self):
        report = check_cp_proof(division_proof())
        assert report.all_valid

    def test_division_rounding_down_rejected(self):
        proof = division_proof()
        bad = CpProof(
            proof.system,
            (proof.lines[0], ProofLine(LinearInequality((1, 1), 1), Division(1, 2))),
        )
        report = check_cp_proof(bad)
        assert not report.verdicts[1].valid
        assert "rounds up" in report.verdicts[1].reason

    def test_division_needs_divisibility(self):
        system = (LinearInequality((1, 2), 2),)
        proof = CpProof(
            system,
            (
                ProofLine(LinearInequality((1, 2), 2), Hypothesis(1)),
                ProofLine(LinearInequality((0, 1), 1), Division(1, 2)),
            ),
        )
        report = check_cp_proof(proof)
        assert not report.verdicts[1].valid
        assert "does not divide" in report.verdicts[1].reason

    def test_boolean_axioms(self):
        system = (LinearInequality((1, 0), 1),)
        good = CpProof(
            system,
            (
                ProofLine(LinearInequality((0, 1), 0), BooleanAxiom(2, "lo")),
                ProofLine(LinearInequality((0, -1), -1), BooleanAxiom(2, "hi")),
            ),
        )
        assert check_cp_proof(good).all_valid
        bad = CpProof(
            system, (ProofLine(LinearInequality((0, 1), 1), BooleanAxiom(2, "lo")),)
        )
        assert not check_cp_proof(bad).all_valid

    def test_dangling_reference_is_verdict(self):
        system = (LinearInequality((1,), 1),)
        proof = CpProof(
            system, (ProofLine(LinearInequality((2,), 2), Addition(1, 5)),)
        )
        report = check_cp_proof(proof)
        assert not report.verdicts[0].valid
        assert "references" in report.verdicts[0].reason

    def test_hypothesis_must_match_exactly(self):
        system = (LinearInequality((1,), 1),)
        proof = CpProof(
            system, (ProofLine(LinearInequality((1,), 0), Hypothesis(1)),)
        )
        assert not check_cp_proof(proof).all_valid

    def test_zero_geq_two_is_refutation_terminal(self):
        system = (LinearInequality((0,), 1),)
        proof = CpProof(
            system,
            (
                ProofLine(LinearInequality((0,), 1), Hypothesis(1)),
                ProofLine(LinearInequality((0,), 2), Addition(1, 1)),
            ),
        )
        report = check_cp_proof(proof)
        assert report.all_valid and report.is_refutation

    @pytest.mark.parametrize(
        "line, reason",
        [
            (ProofLine(LinearInequality((1,), 1), Hypothesis(1)),
             "inequality arity 1 != n=2"),
            (ProofLine(LinearInequality((1, 1), 1), Hypothesis(2)),
             "hypothesis row 2 out of range"),
            (ProofLine(LinearInequality((1, 0), 0), BooleanAxiom(3, "lo")),
             "axiom variable 3 out of range"),
            (ProofLine(LinearInequality((1, 0), 0), BooleanAxiom(1, "mid")),
             "unknown axiom kind 'mid'"),
            (ProofLine(LinearInequality((1, 1), 1), Division(1, 0)),
             "divisor 0 is not positive"),
            (ProofLine(LinearInequality((1, 1), 1), "rup"),
             "unknown justification 'rup'"),
        ],
        ids=["arity", "hypothesis-row", "axiom-var", "axiom-kind", "divisor",
             "justification"],
    )
    def test_rejection_reasons(self, line, reason):
        system = (LinearInequality((1, 1), 1),)
        first = ProofLine(LinearInequality((1, 1), 1), Hypothesis(1))
        report = check_cp_proof(CpProof(system, (first, line)))
        assert report.verdicts == (LineVerdict(1, True), LineVerdict(2, False, reason))

    def test_arity_without_a_system(self):
        lines = contradiction_proof().lines
        assert CpProof((), lines).n == 1
        assert CpProof((), ()).n == 0

    def test_division_by_one_is_legal(self):
        system = (LinearInequality((3,), 2),)
        proof = CpProof(
            system,
            (
                ProofLine(LinearInequality((3,), 2), Hypothesis(1)),
                ProofLine(LinearInequality((3,), 2), Division(1, 1)),
            ),
        )
        assert check_cp_proof(proof).all_valid


class TestWeight:
    def test_three_line_weight(self):
        assert proof_weight(contradiction_proof()) == 1

    def test_constant_dominates(self):
        assert proof_weight(division_proof()) == 3

    def test_empty_lines_use_system(self):
        proof = CpProof((LinearInequality((5, 0), 1),), ())
        assert proof_weight(proof) == 5

    def test_low_weight_flag(self):
        report = check_cp_proof(division_proof(), weight_bound=2)
        assert report.low_weight is False
        report = check_cp_proof(division_proof(), weight_bound=3)
        assert report.low_weight is True


def _mutations(proof: CpProof):
    """At least 20 single-field mutants of a valid proof."""
    for li, line in enumerate(proof.lines):
        for ci in range(len(line.ineq.coeffs)):
            coeffs = list(line.ineq.coeffs)
            coeffs[ci] += 1
            yield _with_line(proof, li, replace(line, ineq=LinearInequality(tuple(coeffs), line.ineq.constant)))
        for delta in (-1, 1):
            yield _with_line(
                proof,
                li,
                replace(
                    line,
                    ineq=LinearInequality(
                        line.ineq.coeffs, line.ineq.constant + delta
                    ),
                ),
            )
        just = line.justification
        if isinstance(just, Hypothesis):
            yield _with_line(proof, li, replace(line, justification=Hypothesis(just.row % len(proof.system) + 1)))
        elif isinstance(just, Addition):
            yield _with_line(proof, li, replace(line, justification=Addition(just.right, just.right)))
        elif isinstance(just, Division):
            yield _with_line(proof, li, replace(line, justification=Division(just.source, just.divisor + 1)))


def _with_line(proof: CpProof, idx: int, line: ProofLine) -> CpProof:
    lines = list(proof.lines)
    lines[idx] = line
    return CpProof(proof.system, tuple(lines))


class TestMutationRobustness:
    @pytest.mark.parametrize("make", [contradiction_proof, division_proof])
    def test_every_mutation_rejected(self, make):
        proof = make()
        assert check_cp_proof(proof).all_valid
        count = 0
        for mutant in _mutations(proof):
            if mutant == proof:
                continue
            count += 1
            assert not check_cp_proof(mutant).all_valid
        assert count >= 8  # both fixtures together clear twenty


class TestSoundnessProperties:
    def _random_valid_proof(self, rng: random.Random) -> CpProof:
        n = rng.randint(1, 4)
        f = random_formula(rng, n, rng.randint(1, 4))
        system = formula_to_system(f)
        lines = [ProofLine(ineq, Hypothesis(i + 1)) for i, ineq in enumerate(system)]
        for _ in range(rng.randint(1, 6)):
            move = rng.random()
            if move < 0.5 or len(lines) < 2:
                j, k = rng.randint(1, len(lines)), rng.randint(1, len(lines))
                ineq = lines[j - 1].ineq.plus(lines[k - 1].ineq)
                lines.append(ProofLine(ineq, Addition(j, k)))
            else:
                j = rng.randint(1, len(lines))
                src = lines[j - 1].ineq
                divisors = [
                    d
                    for d in (2, 3)
                    if all(c % d == 0 for c in src.coeffs)
                ] or [1]
                d = rng.choice(divisors)
                lines.append(ProofLine(src.divided_by(d), Division(j, d)))
        if rng.random() < 0.5:
            v = rng.randint(1, n)
            kind = rng.choice(["lo", "hi"])
            coeffs = [0] * n
            coeffs[v - 1] = 1 if kind == "lo" else -1
            const = 0 if kind == "lo" else -1
            lines.append(
                ProofLine(LinearInequality(tuple(coeffs), const), BooleanAxiom(v, kind))
            )
        return CpProof(system, tuple(lines))

    def test_accepted_proofs_are_sound_on_cube(self):
        rng = random.Random(4242)
        for _ in range(40):
            proof = self._random_valid_proof(rng)
            assert check_cp_proof(proof).all_valid
            n = proof.n
            for idx in range(1 << n):
                bits = {v + 1: (idx >> v) & 1 for v in range(n)}
                if all(row.holds(bits) for row in proof.system):
                    assert all(line.ineq.holds(bits) for line in proof.lines)

    def test_division_sound_on_integer_box(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(1, 3)
            d = rng.randint(1, 4)
            coeffs = tuple(d * rng.randint(-2, 2) for _ in range(n))
            const = rng.randint(-6, 6)
            premise = LinearInequality(coeffs, const)
            conclusion = premise.divided_by(d)
            B = 4
            for idx in range((2 * B + 1) ** n):
                point = []
                k = idx
                for _ in range(n):
                    point.append(k % (2 * B + 1) - B)
                    k //= 2 * B + 1
                bits = {v + 1: point[v] for v in range(n)}
                if premise.holds(bits):
                    assert conclusion.holds(bits)


class TestSemanticStep:
    def test_examples(self):
        part = VariablePartition((1,), (2,))
        f = SemanticLine.from_function(part, lambda a: a.bit(1) == 1)
        g = SemanticLine.from_function(part, lambda a: a.bit(1) == 0)
        zero = SemanticLine.constant(part, 0)
        one = SemanticLine.constant(part, 1)
        assert check_semantic_step(f, g, zero) is True
        assert check_semantic_step(one, one, zero) is False
        fx = SemanticLine.from_function(part, lambda a: a.bit(1) or a.bit(2))
        gx = SemanticLine.from_function(part, lambda a: (not a.bit(1)) or a.bit(2))
        hx = SemanticLine.from_function(part, lambda a: bool(a.bit(2)))
        assert check_semantic_step(fx, gx, hx) is True

    def test_dimension_mismatch(self):
        a = SemanticLine.constant(VariablePartition((1,), (2,)), 0)
        b = SemanticLine.constant(VariablePartition((1, 2), ()), 0)
        with pytest.raises(ValueError):
            check_semantic_step(a, a, b)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: LinearInequality((1,), 0).lhs_value({}),
            ScopeError,
            "variable 1 has a nonzero coefficient but no value",
        ),
        (
            lambda: LinearInequality((1,), 0).plus(LinearInequality((1, 1), 0)),
            ValueError,
            "cannot add inequalities of different arity",
        ),
        (
            lambda: LinearInequality((2,), 1).divided_by(0),
            ValueError,
            "divisor must be a positive integer",
        ),
        (
            lambda: SemanticLine.from_inequality(
                LinearInequality((1,), 1), VariablePartition((1,), (2,))
            ),
            ValueError,
            "inequality arity does not match the partition",
        ),
    ],
    ids=["lhs-value-missing", "plus-arity", "divisor-zero", "from-inequality-arity"],
)
def test_line_arguments_rejected_with_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert info.type is error
    assert str(info.value) == message


def refutation_digest(formulas) -> str:
    """sha256 over every refutation line: literals, axiom, premises, pivot."""
    rows = [
        [
            [sorted(lit.signed for lit in ln.literals), ln.axiom, ln.premises, ln.pivot]
            for ln in resolution_refutation_from_dpll(f).lines
        ]
        for f in formulas
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def first_unsat(count: int, sample, tag: str) -> list:
    formulas, index = [], 0
    while len(formulas) < count:
        formula = sample(derive_seed(MASTER_SEED, tag, index))
        index += 1
        if brute_force_sat(formula) is None:
            formulas.append(formula)
    return formulas


def _with_resolution_line(refutation, index: int, **changes):
    lines = list(refutation.lines)
    lines[index] = replace(lines[index], **changes)
    return replace(refutation, lines=tuple(lines))


class TestResolutionFromDpll:
    def test_criterion_2_refutations_pinned(self):
        # the first 20 formulas of the acceptance suite's criterion-2 batch
        formulas = first_unsat(
            20, lambda seed: sample_f(DistributionParams(60, 8, 3, seed)), "criterion-2"
        )
        assert refutation_digest(formulas) == CRITERION_2_DIGEST

    def test_tensor_refutations_pinned(self):
        formulas = first_unsat(
            6,
            lambda seed: sample_tensor(DistributionParams(384, 8, 2, seed))[0],
            "tensor-digest",
        )
        assert refutation_digest(formulas) == TENSOR_DIGEST

    def test_satisfiable_witness_is_brute_force_witness(self):
        rng = random.Random(77)
        done = 0
        while done < 40:
            f = random_formula(rng, rng.randint(2, 10), rng.randint(2, 30))
            expected = brute_force_sat(f)
            if expected is None:
                continue
            done += 1
            with pytest.raises(SatisfiableError) as exc:
                resolution_refutation_from_dpll(f)
            assert exc.value.witness == expected

    def test_contradiction(self):
        r = resolution_refutation_from_dpll(parse_dimacs(CONTRADICTION))
        assert r.length == 3
        assert not r.lines[-1].literals
        assert resolution_problems(r) == []

    def test_complete_2cnf_length_seven(self):
        f = parse_dimacs("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
        r = resolution_refutation_from_dpll(f)
        assert r.length == 7
        derived = [sorted(l.signed for l in ln.literals) for ln in r.lines[4:]]
        assert derived == [[1], [-1], []]
        assert resolution_problems(r) == []

    def test_satisfiable_raises_with_witness(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        with pytest.raises(SatisfiableError) as exc:
            resolution_refutation_from_dpll(f)
        witness = exc.value.witness
        assert all(eval_clause(c, witness) for c in f.clauses)

    def test_random_refutations_validate(self):
        rng = random.Random(2024)
        done = 0
        while done < 25:
            f = random_formula(rng, rng.randint(2, 6), rng.randint(6, 24))
            if count_satisfying(f):
                continue
            done += 1
            r = resolution_refutation_from_dpll(f)
            assert resolution_problems(r) == []

    @pytest.mark.parametrize(
        "mutate, problems",
        [
            (lambda r: replace(r, lines=r.lines[:3]),
             ["refutation shorter than the clause list"]),
            (lambda r: _with_resolution_line(r, 0, axiom=2), ["line 0 is not axiom 1"]),
            (lambda r: _with_resolution_line(r, 0, literals=r.lines[1].literals),
             ["line 0 differs from clause 1", "line 4: premises clash on [], pivot 2"]),
            (lambda r: _with_resolution_line(r, 4, premises=None),
             ["line 4 has no resolvent justification"]),
            (lambda r: _with_resolution_line(r, 4, premises=(4, 0)),
             ["line 4 references out-of-order premises"]),
            (lambda r: _with_resolution_line(r, 4, pivot=1),
             ["line 4: premises clash on [2], pivot 1"]),
            (lambda r: _with_resolution_line(r, 5, literals=r.lines[3].literals),
             ["line 5 is not the resolvent of its premises",
              "line 6 is not the resolvent of its premises"]),
            (lambda r: replace(r, lines=r.lines[:-1]),
             ["final line is not the empty clause"]),
        ],
        ids=["short", "axiom-index", "axiom-clause", "no-premises", "late-premise",
             "pivot", "resolvent", "final-line"],
    )
    def test_resolution_problems_names_each_defect(self, mutate, problems):
        f = parse_dimacs("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
        r = resolution_refutation_from_dpll(f)
        assert resolution_problems(r) == []
        assert resolution_problems(mutate(r)) == problems

    def test_lines_pass_semantic_steps(self):
        f = parse_dimacs("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
        part = VariablePartition.alternating(2)
        r = resolution_refutation_from_dpll(f)
        tables = [SemanticLine.from_literals(ln.literals, part) for ln in r.lines]
        for i, ln in enumerate(r.lines):
            if ln.premises is not None:
                j, k = ln.premises
                assert check_semantic_step(tables[j], tables[k], tables[i])
        assert tables[-1].is_constant(0)


class TestProofText:
    def test_roundtrip(self):
        proof = contradiction_proof()
        text = serialize_cp_lines(proof)
        again = parse_cp_lines(text, proof.n)
        assert again == proof.lines

    def test_parse_reference(self):
        text = "1: 1 >= 1 ; hyp 1\n2: -1 >= 0 ; hyp 2\n3: 0 >= 1 ; add 1 2\n"
        lines = parse_cp_lines(text, 1)
        assert lines == contradiction_proof().lines

    def test_bad_index(self):
        with pytest.raises(ProofTextError, match="expected line index"):
            parse_cp_lines("2: 1 >= 1 ; hyp 1\n", 1)

    def test_bad_justification(self):
        with pytest.raises(ProofTextError):
            parse_cp_lines("1: 1 >= 1 ; resolve 1 2\n", 1)

    def test_wrong_arity(self):
        with pytest.raises(ProofTextError, match="coefficients"):
            parse_cp_lines("1: 1 1 >= 1 ; hyp 1\n", 1)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1: 1 >= 1 hyp 1\n", "line 1: missing ';' before the justification"),
            ("# c\nx: 1 >= 1 ; hyp 1\n", "line 2: bad line index 'x'"),
            ("1: a >= 1 ; hyp 1\n", "line 1: coefficients must be integers"),
            ("1: 1 >= b ; hyp 1\n", "line 1: coefficients must be integers"),
        ],
        ids=["no-semicolon", "line-index", "coefficient", "constant"],
    )
    def test_rejected_with_message(self, text, message):
        with pytest.raises(ProofTextError) as info:
            parse_cp_lines(text, 1)
        assert str(info.value) == message

    def test_comment_and_blank_lines_skipped(self):
        text = "# a comment\n\n1: 1 >= 1 ; hyp 1\n  # indented\n"
        assert parse_cp_lines(text, 1) == contradiction_proof().lines[:1]

    def test_roundtrip_boolean_and_division(self):
        system = (LinearInequality((2, 2), 3),)
        proof = CpProof(
            system,
            (
                ProofLine(LinearInequality((2, 2), 3), Hypothesis(1)),
                ProofLine(LinearInequality((1, 0), 0), BooleanAxiom(1, "lo")),
                ProofLine(LinearInequality((0, -1), -1), BooleanAxiom(2, "hi")),
                ProofLine(LinearInequality((1, 1), 2), Division(1, 2)),
            ),
        )
        text = serialize_cp_lines(proof)
        assert text == (
            "1: 2 2 >= 3 ; hyp 1\n2: 1 0 >= 0 ; bool 1 lo\n"
            "3: 0 -1 >= -1 ; bool 2 hi\n4: 1 1 >= 2 ; div 1 2\n"
        )
        assert parse_cp_lines(text, 2) == proof.lines
        assert check_cp_proof(proof).all_valid


class TestLineProtocols:
    def test_protocols_compute_each_line(self):
        proof = contradiction_proof()
        part = VariablePartition((1,), ())
        trees = cp_lines_to_protocols(proof, part)
        assert len(trees) == 3
        for line, tree in zip(proof.lines, trees):
            table = SemanticLine.from_inequality(line.ineq, part)
            for x_idx in range(1 << part.n1):
                x = part.x_assignment(x_idx)
                y = part.y_assignment(0)
                _, out = run_protocol(tree, x, y)
                assert out == table.value(x_idx, 0)

    def test_refutation_line_is_depth_zero(self):
        proof = contradiction_proof()
        part = VariablePartition((1,), ())
        trees = cp_lines_to_protocols(proof, part)
        assert trees[-1].depth == 0 and trees[-1].output_at("") == 0


def test_semantic_table_cap():
    import pytest as _pytest

    from proofbench.errors import CapExceededError

    part = VariablePartition.alternating(26)
    with _pytest.raises(CapExceededError):
        SemanticLine.constant(part, 0)
    with _pytest.raises(CapExceededError):
        SemanticLine.from_literals((), part)


def test_cp_lines_to_protocols_depth_cap():
    import pytest as _pytest

    from proofbench.errors import CapExceededError

    # Alice's sum spans 2^16, a 17-bit message plus Bob's bit
    ineq = LinearInequality((1 << 16, 1 << 16), 3)
    proof = CpProof((ineq,), (ProofLine(ineq, Hypothesis(1)),))
    part = VariablePartition((1,), (2,))
    with _pytest.raises(CapExceededError, match="line 1"):
        cp_lines_to_protocols(proof, part)


def test_entailed_by_premise_helper():
    part = VariablePartition((1,), (2,))
    clause_line = SemanticLine.from_function(part, lambda a: a.bit(1) or a.bit(2))
    weaker = SemanticLine.constant(part, 1)
    # single-premise entailment is the two-premise step with the premise twice
    assert check_semantic_step(clause_line, clause_line, weaker)
    assert not check_semantic_step(weaker, weaker, clause_line)
