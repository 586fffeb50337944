import json

import pytest

from proofbench.cli import main
from proofbench.cnf import parse_dimacs

COMPLETE_2CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
CONTRADICTION = "p cnf 1 2\n1 0\n-1 0\n"
CONTRADICTION_PROOF = "1: 1 >= 1 ; hyp 1\n2: -1 >= 0 ; hyp 2\n3: 0 >= 1 ; add 1 2\n"


@pytest.fixture
def complete2(tmp_path):
    path = tmp_path / "complete2.cnf"
    path.write_text(COMPLETE_2CNF)
    return path


@pytest.fixture
def contra(tmp_path):
    cnf = tmp_path / "contra.cnf"
    cnf.write_text(CONTRADICTION)
    proof = tmp_path / "contra.cpp"
    proof.write_text(CONTRADICTION_PROOF)
    return cnf, proof


def read_report(path):
    return json.loads(path.read_text())


class TestGen:
    def test_writes_dimacs_and_report(self, tmp_path):
        out = tmp_path / "f.cnf"
        report = tmp_path / "gen.json"
        code = main(
            [
                "gen", "--dist", "tensor", "--n", "3", "--d", "2", "--m", "4",
                "--seed", "5", "--out", str(out), "--report", str(report),
            ]
        )
        assert code == 0
        f = parse_dimacs(out.read_text())
        assert f.n == 6 and f.m == 4
        data = read_report(report)
        assert data["config"]["seed"] == 5
        assert data["results"]["partition"]["xvars"] == [1, 2, 3]

    def test_reports_reproduce_byte_for_byte(self, tmp_path):
        args = [
            "gen", "--dist", "f", "--n", "5", "--d", "2", "--m", "7",
            "--seed", "9", "--out", str(tmp_path / "a.cnf"),
            "--report", str(tmp_path / "a.json"),
        ]
        assert main(args) == 0
        first = (tmp_path / "a.json").read_bytes()
        cnf_first = (tmp_path / "a.cnf").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "a.json").read_bytes() == first
        assert (tmp_path / "a.cnf").read_bytes() == cnf_first


class TestCheckProof:
    def test_valid_refutation(self, contra, tmp_path):
        cnf, proof = contra
        report = tmp_path / "check.json"
        code = main(
            ["check-proof", "--cnf", str(cnf), "--proof", str(proof),
             "--report", str(report)]
        )
        assert code == 0
        data = read_report(report)
        assert data["results"]["refutation"] is True
        assert data["results"]["all_valid"] is True

    def test_invalid_proof_exits_one(self, contra, tmp_path):
        cnf, _ = contra
        bad = tmp_path / "bad.cpp"
        bad.write_text("1: 1 >= 2 ; hyp 1\n")
        code = main(["check-proof", "--cnf", str(cnf), "--proof", str(bad)])
        assert code == 1

    def test_non_refutation_flag(self, contra, tmp_path):
        cnf, _ = contra
        partial = tmp_path / "partial.cpp"
        partial.write_text("1: 1 >= 1 ; hyp 1\n")
        assert main(["check-proof", "--cnf", str(cnf), "--proof", str(partial)]) == 1
        assert (
            main(
                ["check-proof", "--cnf", str(cnf), "--proof", str(partial),
                 "--no-require-refutation"]
            )
            == 0
        )


class TestCompileChain:
    def test_compile_verify_extract(self, complete2, tmp_path):
        circuit = tmp_path / "c.mct"
        report = tmp_path / "compile.json"
        code = main(
            ["compile", "--cnf", str(complete2), "--partition", "x:1", "y:2",
             "--out", str(circuit), "--report", str(report)]
        )
        assert code == 0
        data = read_report(report)
        assert data["results"]["refutation"]["length"] == 7
        assert data["results"]["gate_count"] >= 1
        assert (
            main(
                ["verify-sep", "--cnf", str(complete2), "--circuit", str(circuit),
                 "--partition", "x:1", "y:2"]
            )
            == 0
        )
        assert (
            main(
                ["extract", "--cnf", str(complete2), "--circuit", str(circuit),
                 "--partition", "x:1", "y:2"]
            )
            == 0
        )

    def test_compile_from_cp_proof(self, contra, tmp_path):
        cnf, proof = contra
        circuit = tmp_path / "c.mct"
        code = main(
            ["compile", "--cnf", str(cnf), "--proof", str(proof),
             "--partition", "x:1", "y:", "--out", str(circuit)]
        )
        assert code == 0
        assert (
            main(
                ["verify-sep", "--cnf", str(cnf), "--circuit", str(circuit),
                 "--partition", "x:1", "y:"]
            )
            == 0
        )

    def test_verify_sep_failure_exits_one(self, complete2, tmp_path):
        circuit = tmp_path / "bad.mct"
        circuit.write_text("g0 = const0\noutput g0\n")
        report = tmp_path / "sep.json"
        code = main(
            ["verify-sep", "--cnf", str(complete2), "--circuit", str(circuit),
             "--partition", "x:1", "y:2", "--report", str(report)]
        )
        assert code == 1
        data = read_report(report)
        assert data["results"]["passed"] is False
        assert data["results"]["failing_x"] == 0

    def test_satisfiable_formula_exits_one(self, tmp_path):
        cnf = tmp_path / "sat.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n")
        code = main(
            ["compile", "--cnf", str(cnf), "--out", str(tmp_path / "c.mct")]
        )
        assert code == 1


class TestRoundtrip:
    def test_complete_2cnf(self, complete2, tmp_path):
        report = tmp_path / "round.json"
        code = main(
            ["roundtrip", "--cnf", str(complete2), "--partition", "x:1", "y:2",
             "--report", str(report)]
        )
        assert code == 0
        data = read_report(report)
        assert data["results"]["refutation_length"] == 7
        assert data["results"]["separation"]["passed"] is True
        assert data["results"]["claim_violations"] == 0
        assert data["results"]["extraction"]["all_ok"] is True

    def test_reports_reproduce(self, complete2, tmp_path):
        args = [
            "roundtrip", "--cnf", str(complete2), "--partition", "alternating",
            "--report", str(tmp_path / "r.json"),
        ]
        assert main(args) == 0
        first = (tmp_path / "r.json").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "r.json").read_bytes() == first


class TestSearchPartition:
    def test_roundtrip_with_search(self, tmp_path):
        from proofbench.randomcnf import DistributionParams, sample_f
        from proofbench.cnf import serialize_dimacs, brute_force_sat

        seed = 0
        while True:
            f = sample_f(DistributionParams(40, 6, 2, seed))
            if brute_force_sat(f) is None:
                break
            seed += 1
        cnf = tmp_path / "search.cnf"
        cnf.write_text(serialize_dimacs(f))
        report = tmp_path / "search.json"
        code = main(
            ["roundtrip", "--cnf", str(cnf), "--partition", "search:1/4:64",
             "--seed", "3", "--report", str(report)]
        )
        assert code == 0
        data = read_report(report)
        assert data["config"]["partition"]["mode"] == "search"
        assert data["results"]["separation"]["passed"] is True


class TestStats:
    def test_unsat_rate(self, tmp_path):
        report = tmp_path / "stats.json"
        code = main(
            ["stats", "--stat", "unsat-rate", "--dist", "tensor", "--n", "2",
             "--d", "1", "--m", "64", "--samples", "10", "--seed", "1",
             "--report", str(report)]
        )
        assert code == 0
        data = read_report(report)
        assert data["results"]["rate_float"] >= 0.9
        assert data["config"]["samples"] == 10

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_unsat_rate_without_samples_exits_2(self, tmp_path, capsys, samples):
        report = tmp_path / "stats.json"
        code = main(
            ["stats", "--stat", "unsat-rate", "--n", "4", "--d", "2", "--m", "3",
             "--samples", samples, "--seed", "1", "--report", str(report)]
        )
        assert code == 2
        assert not report.exists()
        assert "samples must be at least 1" in capsys.readouterr().err

    def test_heavy_partition(self, tmp_path):
        report = tmp_path / "hp.json"
        code = main(
            ["stats", "--stat", "heavy-partition", "--n", "24", "--d", "6",
             "--m", "100", "--epsilon", "1/4", "--trials", "200",
             "--seed", "2", "--report", str(report)]
        )
        assert code == 0
        data = read_report(report)
        assert "z_x" in data["results"]

    def test_profiles(self, tmp_path):
        report = tmp_path / "pr.json"
        code = main(
            ["stats", "--stat", "profiles", "--n", "8", "--d", "3", "--m", "200",
             "--seed", "3", "--report", str(report)]
        )
        assert code == 0
        assert "distinct" in read_report(report)["results"]


    @pytest.mark.parametrize(
        "args",
        [
            ["--stat", "expansion", "--n", "1000", "--d", "6", "--m", "4000",
             "--s-max", "3"],
            ["--stat", "heavy-partition", "--n", "24", "--d", "6", "--m", "100"],
            ["--stat", "heavy-sat", "--mode", "sampled", "--n", "32", "--d", "6",
             "--m", "400"],
            ["--stat", "profiles", "--mode", "sampled", "--n", "8", "--d", "3",
             "--m", "20"],
        ],
        ids=["expansion", "heavy-partition", "heavy-sat", "profiles"],
    )
    def test_zero_trials_exit_2(self, tmp_path, capsys, args):
        report = tmp_path / "stats.json"
        code = main(["stats", *args, "--trials", "0", "--report", str(report)])
        assert code == 2
        assert not report.exists()
        assert "trials" in capsys.readouterr().err

    def test_heavy_partition_one_variable_exits_2(self, tmp_path, capsys):
        report = tmp_path / "hp.json"
        code = main(
            ["stats", "--stat", "heavy-partition", "--n", "1", "--d", "1",
             "--m", "2", "--report", str(report)]
        )
        assert code == 2
        assert not report.exists()
        assert "n >= 2" in capsys.readouterr().err


class TestErrors:
    def test_unknown_command_exits_two(self):
        assert main(["frobnicate"]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert (
            main(
                ["check-proof", "--cnf", str(tmp_path / "nope.cnf"),
                 "--proof", str(tmp_path / "nope.cpp")]
            )
            == 2
        )

    def test_bad_partition_exits_two(self, complete2, tmp_path):
        assert (
            main(
                ["roundtrip", "--cnf", str(complete2), "--partition", "q:1"]
            )
            == 2
        )

    def test_malformed_cnf_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 1 1\n1 -1 0\n")
        assert main(["roundtrip", "--cnf", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["verify-sep", "extract"])
    @pytest.mark.parametrize(
        "gate, message",
        [("in 0 1", "outside the layout"), ("in 5 0", "outside the layout"),
         ("in 1 01", "alpha has 2 bits")],
    )
    def test_input_gate_outside_layout_exits_2(
        self, complete2, tmp_path, capsys, command, gate, message
    ):
        circuit = tmp_path / "bad.mct"
        circuit.write_text(f"g0 = {gate}\noutput g0\n")
        report = tmp_path / "r.json"
        code = main(
            [command, "--cnf", str(complete2), "--circuit", str(circuit),
             "--partition", "x:1", "y:2", "--report", str(report)]
        )
        assert code == 2
        assert not report.exists()
        err = capsys.readouterr().err
        assert err.startswith("proofbench: error:") and message in err
