import contextlib
import hashlib
import io
import json
import re
from itertools import count, islice
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import unsat_3cnfs
from proofbench.circuit import roundtrip
from proofbench.cli import _jsonable, main
from proofbench.cnf import brute_force_sat, parse_dimacs, serialize_dimacs
from proofbench.randomcnf import DistributionParams, derive_seed, sample_tensor

COMPLETE_2CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
CONTRADICTION = "p cnf 1 2\n1 0\n-1 0\n"
CONTRADICTION_PROOF = "1: 1 >= 1 ; hyp 1\n2: -1 >= 0 ; hyp 2\n3: 0 >= 1 ; add 1 2\n"
UNSAT3 = (
    "p cnf 3 8\n1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n"
    "-1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n-1 -2 -3 0\n"
)

# A hand-written cutting-planes refutation of UNSAT3: resolve on x3 and then
# on x2 by addition and division, once for each sign of x1, then add.
UNSAT3_PROOF = """\
1: 1 1 1 >= 1 ; hyp 1
2: 1 1 -1 >= 0 ; hyp 2
3: 2 2 0 >= 1 ; add 1 2
4: 1 1 0 >= 1 ; div 3 2
5: 1 -1 1 >= 0 ; hyp 3
6: 1 -1 -1 >= -1 ; hyp 4
7: 2 -2 0 >= -1 ; add 5 6
8: 1 -1 0 >= 0 ; div 7 2
9: 2 0 0 >= 1 ; add 4 8
10: 1 0 0 >= 1 ; div 9 2
11: -1 1 1 >= 0 ; hyp 5
12: -1 1 -1 >= -1 ; hyp 6
13: -2 2 0 >= -1 ; add 11 12
14: -1 1 0 >= 0 ; div 13 2
15: -1 -1 1 >= -1 ; hyp 7
16: -1 -1 -1 >= -2 ; hyp 8
17: -2 -2 0 >= -3 ; add 15 16
18: -1 -1 0 >= -1 ; div 17 2
19: -2 0 0 >= -1 ; add 14 18
20: -1 0 0 >= 0 ; div 19 2
21: 0 0 0 >= 1 ; add 10 20
"""


@pytest.fixture
def unsat3(tmp_path):
    cnf = tmp_path / "unsat3.cnf"
    cnf.write_text(UNSAT3)
    proof = tmp_path / "unsat3.cpp"
    proof.write_text(UNSAT3_PROOF)
    return cnf, proof


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


# The complete 2-CNF and six unsatisfiable random 3-CNFs, and the sha256 of
# their roundtrip reports in this order, recorded before the roundtrip moved
# into the library: the reports must not change by a byte.
ROUNDTRIP_BATCH = [("complete2", parse_dimacs(COMPLETE_2CNF)), *unsat_3cnfs()]
ROUNDTRIP_DIGEST = "8047e332fba49ae6c3e75865415106759293e4d86edc516a5f02a3447ebf2ecd"


def _sides(n):
    """The tensor partition of 2n variables, X = 1..n and Y = n+1..2n."""
    return ["--partition", "x:" + ",".join(map(str, range(1, n + 1))),
            "y:" + ",".join(map(str, range(n + 1, 2 * n + 1)))]


# The profiles and heavy-sat kernels, exact and sampled, on both
# distributions, and the sha256 of their stats reports in this order,
# recorded before the profile kernels were rewritten in plain Python: the
# reports must not change by a byte. The second case runs three 64-clause
# blocks with classes still alive; the fourth draws equal pairs and collides.
STATS_BATCH = [
    ["--stat", "profiles", "--n", "10", "--d", "3", "--m", "40", "--seed", "1"],
    ["--stat", "profiles", "--n", "12", "--d", "6", "--m", "150", "--seed", "2"],
    ["--stat", "profiles", "--dist", "tensor", "--n", "5", "--d", "2", "--m", "30",
     "--seed", "3"],
    ["--stat", "profiles", "--mode", "sampled", "--n", "4", "--d", "2", "--m", "3",
     "--trials", "300", "--seed", "4"],
    ["--stat", "profiles", "--mode", "sampled", "--n", "60", "--d", "3",
     "--m", "300", "--trials", "2000", "--seed", "5"],
    ["--stat", "profiles", "--mode", "sampled", "--dist", "tensor", "--n", "6",
     "--d", "2", "--m", "20", "--trials", "1000", "--seed", "6"],
    *(["--stat", "heavy-sat", "--side", side, "--n", "12", "--d", "3", "--m", "60",
       "--epsilon", "1/4", "--seed", "7"] for side in "xy"),
    *(["--stat", "heavy-sat", "--side", side, "--dist", "tensor", "--n", "8",
       "--d", "2", "--m", "8", "--epsilon", "3/4", "--seed", "8", *_sides(8)]
      for side in "xy"),
    *(["--stat", "heavy-sat", "--side", side, "--mode", "sampled", "--n", "40",
       "--d", "4", "--m", "200", "--epsilon", "1/4", "--trials", "2000",
       "--seed", "9"] for side in "xy"),
    *(["--stat", "heavy-sat", "--side", side, "--mode", "sampled", "--dist",
       "tensor", "--n", "20", "--d", "3", "--m", "20", "--epsilon", "3/4",
       "--trials", "1000", "--seed", "10", *_sides(20)] for side in "xy"),
]
STATS_DIGEST = "bcdf6559d2346e84e8474d58382a086aea727f90e262a92b9fbb18f569e2d564"


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

    def test_compile_from_cp_proof_on_a_wider_partition(self, unsat3, tmp_path):
        # variable 4 is in no clause, so it gets a zero coefficient on every
        # proof line, as it gets no literal on the DPLL route
        cnf, proof = unsat3
        circuit, report = tmp_path / "c.mct", tmp_path / "r.json"
        part = ["--partition", "x:1,3", "y:2,4"]
        code = main(
            ["compile", "--cnf", str(cnf), "--proof", str(proof), *part,
             "--out", str(circuit), "--report", str(report)]
        )
        assert code == 0
        data = read_report(report)
        assert data["config"]["partition"] == {
            "mode": "explicit", "xvars": [1, 3], "yvars": [2, 4]
        }
        assert data["results"]["refutation"] == {
            "kind": "cp-proof", "path": str(proof), "length": 21
        }
        for command in ["verify-sep", "extract"]:
            argv = [command, "--cnf", str(cnf), "--circuit", str(circuit), *part]
            assert main(argv) == 0

    def test_compile_cap_error_names_proof_line(self, contra, tmp_path, capsys):
        # lines 3.. double x1 >= 1 up to 2^17 x1 >= 2^17; line 17 is the
        # first whose sum, 2^15, needs a 16-bit message plus Bob's bit
        cnf, _ = contra
        lines = ["1: 1 >= 1 ; hyp 1", "2: -1 >= 0 ; hyp 2"]
        for k in range(1, 18):
            prev = 1 if k == 1 else k + 1
            lines.append(f"{k + 2}: {1 << k} >= {1 << k} ; add {prev} {prev}")
        lines += [f"20: 1 >= 1 ; div 19 {1 << 17}", "21: 0 >= 1 ; add 20 2"]
        proof = tmp_path / "doubling.cpp"
        proof.write_text("\n".join(lines) + "\n")
        report = tmp_path / "r.json"
        code = main(
            ["compile", "--cnf", str(cnf), "--proof", str(proof),
             "--out", str(tmp_path / "c.mct"), "--report", str(report)]
        )
        assert code == 2
        assert not report.exists()
        assert capsys.readouterr().err == (
            "proofbench: error: line 17: message width 16+1 exceeds protocol "
            "depth cap 16\n"
        )

    @pytest.mark.parametrize(
        "text, why",
        [("1: 1 >= 2 ; hyp 1\n", "line 1: line differs from system row 1"),
         ("1: 1 >= 1 ; hyp 1\n", "no line reaches a refutation terminal")],
        ids=["invalid-line", "no-terminal"],
    )
    def test_compile_invalid_proof_names_witness(
        self, contra, tmp_path, capsys, text, why
    ):
        cnf, _ = contra
        proof = tmp_path / "bad.cpp"
        proof.write_text(text)
        out, report = tmp_path / "c.mct", tmp_path / "r.json"
        code = main(
            ["compile", "--cnf", str(cnf), "--proof", str(proof),
             "--out", str(out), "--report", str(report)]
        )
        assert code == 1
        assert not out.exists() and not report.exists()
        assert capsys.readouterr().err == (
            "proofbench: check failed: the supplied proof is not a valid "
            f"refutation: {why}\n"
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


    def test_reports_pinned_with_one_mask_pass(self, tmp_path, monkeypatch):
        import proofbench.circuit as circuit_mod

        side_values = circuit_mod.side_values
        calls = []

        def counted(*args):
            calls.append(args)
            return side_values(*args)

        monkeypatch.setattr(circuit_mod, "side_values", counted)
        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha256()
        for name, formula in ROUNDTRIP_BATCH:
            Path(f"{name}.cnf").write_text(serialize_dimacs(formula))
            calls.clear()
            argv = ["roundtrip", "--cnf", f"{name}.cnf", "--report", f"{name}.json"]
            assert main(argv) == 0
            assert len(calls) == 1, name
            digest.update(Path(f"{name}.json").read_bytes())
        assert digest.hexdigest() == ROUNDTRIP_DIGEST


class TestTensorRoundtrip:
    """Two-sided formulas end to end on their own partition, X = 1..6 and
    Y = 7..12: the first three unsatisfiable draws of a seeded stream.
    """

    def test_library_and_cli(self, tmp_path):
        draws = (
            sample_tensor(DistributionParams(160, 6, 2, derive_seed(0, "tensor", i)))
            for i in count()
        )
        unsat = islice(((f, p) for f, p in draws if brute_force_sat(f) is None), 3)
        for i, (formula, part) in enumerate(unsat):
            rt = roundtrip(formula, part)
            assert rt.separation.passed
            assert rt.claim_violations == 0
            assert rt.extraction.report.all_ok

            cnf, report = tmp_path / f"t{i}.cnf", tmp_path / f"t{i}.json"
            cnf.write_text(serialize_dimacs(formula))
            argv = ["roundtrip", "--cnf", str(cnf), "--partition",
                    "x:1,2,3,4,5,6", "y:7,8,9,10,11,12", "--report", str(report)]
            assert main(argv) == 0
            data = read_report(report)
            assert data["config"]["partition"] == {
                "xvars": list(part.xvars), "yvars": list(part.yvars), "mode": "explicit"
            }
            results = data["results"]
            assert results["refutation_length"] == rt.refutation.length
            assert results["compile"] == _jsonable(rt.compiled.report)
            assert results["separation"] == _jsonable(rt.separation)
            assert results["separation"]["passed"] is True
            assert results["claim_violations"] == 0
            assert results["extraction"] == _jsonable(rt.extraction.report)
            assert results["extraction"]["all_ok"] is True


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

    def test_unsat_rate_with_cnf_exits_2(self, tmp_path, capsys):
        # the rate is over sampled formulas, so a --cnf file would go unread
        report = tmp_path / "stats.json"
        code = main(
            ["stats", "--stat", "unsat-rate", "--cnf", str(tmp_path / "none.cnf"),
             "--n", "3", "--d", "2", "--m", "5", "--samples", "2",
             "--report", str(report)]
        )
        assert code == 2
        assert not report.exists()
        assert capsys.readouterr().err == (
            "proofbench: error: unsat-rate always samples its formulas and "
            "takes no --cnf\n"
        )

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

    @pytest.mark.parametrize("stat", ["profiles", "heavy-sat", "heavy-partition"])
    def test_tensor_without_cnf_matches_gen(self, tmp_path, stat):
        # stats samples the tensor formula itself; the same draw written by
        # gen and read back with --cnf gives the same results
        sizes = ["--n", "5", "--d", "2", "--m", "40", "--seed", "3"]
        extra = ["--stat", stat, "--trials", "200"]
        cnf = tmp_path / "tensor.cnf"
        assert main(["gen", "--dist", "tensor", *sizes, "--out", str(cnf),
                     "--report", str(tmp_path / "gen.json")]) == 0
        sampled, loaded = tmp_path / "sampled.json", tmp_path / "loaded.json"
        assert main(["stats", *extra, "--dist", "tensor", *sizes,
                     "--report", str(sampled)]) == 0
        assert main(["stats", *extra, "--cnf", str(cnf), *sizes,
                     "--report", str(loaded)]) == 0
        results = read_report(sampled)["results"]
        assert results == read_report(loaded)["results"]
        if stat == "profiles":
            assert (results["rows_checked"], results["collisions"]) == (1024, 521)

    def test_reports_pinned(self, tmp_path):
        report = tmp_path / "stats.json"
        digest = hashlib.sha256()
        for args in STATS_BATCH:
            assert main(["stats", *args, "--report", str(report)]) == 0, args
            digest.update(report.read_bytes())
        assert digest.hexdigest() == STATS_DIGEST

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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--stat", "expansion", "--s-max", "0"], "no clause-set size"),
            (["--stat", "expansion", "--s-max", "-2"], "no clause-set size"),
            (["--stat", "heavy-sat", "--epsilon", "2"], "strictly between"),
            (["--stat", "heavy-sat", "--epsilon", "0"], "strictly between"),
            (["--stat", "heavy-sat", "--epsilon", "-1"], "strictly between"),
            (["--stat", "expansion", "--epsilon", "1/0"], "zero denominator"),
            (["--stat", "heavy-sat", "--epsilon", "1/0"], "zero denominator"),
            (["--stat", "heavy-partition", "--epsilon", "1/0"], "zero denominator"),
        ],
        ids=["s-max-0", "s-max-neg", "epsilon-2", "epsilon-0", "epsilon-neg",
             "expansion-epsilon-1/0", "heavy-sat-epsilon-1/0",
             "heavy-partition-epsilon-1/0"],
    )
    def test_nothing_to_report_exits_2(self, tmp_path, capsys, args, message):
        report = tmp_path / "stats.json"
        code = main(
            ["stats", *args, "--n", "5", "--d", "3", "--m", "10",
             "--report", str(report)]
        )
        assert code == 2
        assert not report.exists()
        assert message in capsys.readouterr().err

    def test_expansion_beyond_regime_names_the_flag(self, tmp_path, capsys):
        report = tmp_path / "stats.json"
        code = main(
            ["stats", "--stat", "expansion", "--n", "8", "--d", "3", "--m", "40",
             "--s-max", "3", "--trials", "50", "--report", str(report)]
        )
        assert code == 2
        assert not report.exists()
        assert "--beyond-regime" in capsys.readouterr().err

    def test_heavy_partition_one_variable_exits_2(self, tmp_path, capsys):
        report = tmp_path / "hp.json"
        code = main(
            ["stats", "--stat", "heavy-partition", "--n", "1", "--d", "1",
             "--m", "2", "--report", str(report)]
        )
        assert code == 2
        assert not report.exists()
        assert "n >= 2" in capsys.readouterr().err

    def test_cnf_profiles_ignore_the_sampling_m(self, tmp_path):
        # --m is not checked when --cnf supplies the formula
        cnf = tmp_path / "e.cnf"
        cnf.write_text("p cnf 20 0\n")
        reports = []
        for m in ("0", "1"):
            report = tmp_path / f"m{m}.json"
            code = main(
                ["stats", "--stat", "profiles", "--cnf", str(cnf), "--n", "20",
                 "--d", "3", "--m", m, "--mode", "sampled", "--trials", "5",
                 "--report", str(report)]
            )
            assert code == 0
            reports.append(read_report(report))
        assert [r["config"]["m"] for r in reports] == [0, 1]
        assert reports[0]["results"] == reports[1]["results"]

    def test_cnf_expansion_ignores_the_sampling_width(self, tmp_path, capsys):
        # d > n among the flags: the loaded formula is checked instead
        empty, two = tmp_path / "e.cnf", tmp_path / "two.cnf"
        empty.write_text("p cnf 20 0\n")
        two.write_text("p cnf 20 2\n1 2 0\n3 4 0\n")
        flags = ["--n", "1", "--d", "3", "--m", "5"]
        assert main(["stats", "--stat", "expansion", "--cnf", str(empty), *flags]) == 2
        assert capsys.readouterr().err == (
            "proofbench: error: no clause-set size to check: s_max=10 and m=0 "
            "must both be at least 1\n"
        )
        report = tmp_path / "two.json"
        code = main(
            ["stats", "--stat", "expansion", "--cnf", str(two), *flags,
             "--s-max", "1", "--report", str(report)]
        )
        assert code == 0
        data = read_report(report)
        assert [data["config"][k] for k in "ndm"] == [1, 3, 5]
        assert data["results"]["rows"][0]["min_vars"] == 2

    def test_sampled_profiles_without_variables_exits_2(self, tmp_path, capsys):
        # every draw is the empty assignment, so no pair would be compared
        cnf = tmp_path / "empty.cnf"
        cnf.write_text("p cnf 0 0\n")
        report = tmp_path / "pr.json"
        code = main(
            ["stats", "--stat", "profiles", "--mode", "sampled", "--trials", "5",
             "--cnf", str(cnf), "--n", "1", "--d", "1", "--m", "1",
             "--report", str(report)]
        )
        assert code == 2
        assert not report.exists()
        assert capsys.readouterr().err == (
            "proofbench: error: sampled mode needs a variable to draw: "
            "the formula has n=0\n"
        )


class TestParserReuse:
    def test_one_parser_serves_every_call(
        self, complete2, contra, tmp_path, capsys, monkeypatch
    ):
        # Calls that share the cached parser, with a usage error and help
        # pages among them, give what a fresh parser gives for each call.
        import proofbench.cli as cli

        circuit, report = tmp_path / "c.txt", tmp_path / "r.json"
        cnf, circ, to_report = str(complete2), str(circuit), ["--report", str(report)]
        contra_cnf, contra_proof = str(contra[0]), str(contra[1])
        swapped = ["--partition", "x:2", "y:1"]
        argvs = [
            ["roundtrip", "--cnf", cnf, *to_report],
            ["compile", "--cnf", cnf, "--out", circ, *swapped],
            ["roundtrip", "--cnf", cnf, "--bogus"],
            ["verify-sep", "--cnf", cnf, "--circuit", circ, *swapped],
            ["--help"],
            ["check-proof", "--cnf", contra_cnf, "--proof", contra_proof],
            ["roundtrip", "--help"],
            ["extract", "--cnf", cnf, "--circuit", circ, *swapped, *to_report],
            ["compile", "--cnf", contra_cnf, "--proof", contra_proof, "--out", circ],
            ["roundtrip", "--cnf", cnf],
        ]

        def run_all(fresh):
            runs = []
            circuit.unlink(missing_ok=True)
            for argv in argvs:
                if fresh:
                    cli._parser.cache_clear()
                code = cli.main(argv)
                out, err = capsys.readouterr()
                written = report.read_text() if report.exists() else None
                report.unlink(missing_ok=True)
                drawn = circuit.read_text() if circuit.exists() else None
                runs.append((code, out, err, written, drawn))
            return runs

        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        reused = run_all(fresh=False)
        assert len(builds) == 1
        assert [run[0] for run in reused] == [0, 0, 2, 0, 0, 0, 0, 0, 0, 0]
        args = cli._parser().parse_args(["roundtrip", "--cnf", cnf])
        assert args.partition == ["alternating"]
        assert run_all(fresh=True) == reused
        assert len(builds) == 1 + len(argvs)


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

    def test_one_sided_partition_exits_2(self, complete2, capsys):
        code = main(["roundtrip", "--cnf", str(complete2), "--partition", "x:1,2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "proofbench: error: explicit partitions need both x: and y: pieces\n"
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

    def test_search_epsilon_zero_denominator_exits_2(
        self, complete2, tmp_path, capsys
    ):
        report = tmp_path / "r.json"
        code = main(
            ["compile", "--cnf", str(complete2), "--out", str(tmp_path / "c.mct"),
             "--partition", "search:1/0", "--report", str(report)]
        )
        assert code == 2
        assert not report.exists()
        assert capsys.readouterr().err == (
            "proofbench: error: fraction '1/0' has a zero denominator\n"
        )

    @pytest.mark.parametrize(
        "command",
        ["compile", "compile --proof", "verify-sep", "extract", "roundtrip", "stats"],
    )
    def test_partition_missing_a_variable_exits_2(
        self, unsat3, tmp_path, capsys, command
    ):
        cnf, proof = unsat3
        circuit = tmp_path / "c.mct"
        circuit.write_text("g0 = const0\noutput g0\n")
        out, report = tmp_path / "out.mct", tmp_path / "r.json"
        argv = {
            "compile": ["--out", str(out)],
            "compile --proof": ["--out", str(out), "--proof", str(proof)],
            "verify-sep": ["--circuit", str(circuit)],
            "extract": ["--circuit", str(circuit)],
            "roundtrip": [],
            "stats": ["--stat", "heavy-sat", "--n", "3", "--d", "3", "--m", "8"],
        }[command]
        code = main(
            [command.split()[0], "--cnf", str(cnf), *argv, "--partition", "x:1", "y:2",
             "--report", str(report)]
        )
        assert code == 2
        assert not out.exists() and not report.exists()
        assert capsys.readouterr().err == (
            "proofbench: error: clause variable 3 is outside the partition\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("g0 = const0\noutput g0 g0\n", "line 2: malformed output line"),
            ("g0 = const0\noutput 0\n", "line 2: expected a gate reference, got '0'"),
            ("g0 = const0\noutput gx\n", "line 2: bad gate reference 'gx'"),
            ("g0 const0\noutput g0\n", "line 1: malformed gate line 'g0 const0'"),
            ("h0 = const0\noutput g0\n", "line 1: malformed gate line 'h0 = const0'"),
            ("g0 = const0\ng2 = const1\n", "line 2: expected gate index 1"),
            ("g0 = in x 0\noutput g0\n", "line 1: bad constraint 'x'"),
            ("g0 = in 1 02\noutput g0\n", "line 1: bad alpha bits '02'"),
            ("g0 = const0\noutput g1\n", "line 1: output gate index out of range"),
            ("g0 = const0\ng1 = or g0 g1\noutput g1\n",
             "line 1: gate 1 references a later gate"),
            ("gx = const0\noutput g0\n", "line 1: bad gate reference 'gx'"),
            ("g0 = const0\ng1 = and g0 0\noutput g1\n",
             "line 2: expected a gate reference, got '0'"),
            ("g0 = const0\ng1 = and g0 gy\noutput g1\n",
             "line 2: bad gate reference 'gy'"),
        ],
        ids=["output-arity", "output-not-g", "output-bad-ref", "no-equals",
             "head-not-g", "gate-index", "constraint", "alpha", "output-range",
             "later-gate", "head-bad-ref", "operand-not-g", "operand-bad-ref"],
    )
    def test_malformed_circuit_exits_2(
        self, complete2, tmp_path, capsys, text, message
    ):
        circuit = tmp_path / "bad.mct"
        circuit.write_text(text)
        report = tmp_path / "r.json"
        code = main(
            ["verify-sep", "--cnf", str(complete2), "--circuit", str(circuit),
             "--report", str(report)]
        )
        assert code == 2
        assert not report.exists()
        assert capsys.readouterr().err == f"proofbench: error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf 1 1\np cnf 1 1\n1 0\n", "line 2: duplicate header"),
            ("p cnf 1\n1 0\n", "line 1: malformed header 'p cnf 1'"),
            ("p cnf a 1\n1 0\n", "line 1: malformed header 'p cnf a 1'"),
            ("p cnf -1 1\n1 0\n", "line 1: header counts must be nonnegative"),
            ("p cnf 1 1\n1 x 0\n", "line 2: bad token 'x'"),
            ("p cnf 1 1\n0\n", "line 2: empty clause"),
            ("", "line 1: missing header"),
        ],
        ids=["duplicate-header", "header-arity", "header-not-int", "negative-count",
             "bad-token", "empty-clause", "empty-input"],
    )
    def test_malformed_dimacs_exits_2(self, tmp_path, capsys, text, message):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text(text)
        report = tmp_path / "r.json"
        code = main(["roundtrip", "--cnf", str(cnf), "--report", str(report)])
        assert code == 2
        assert not report.exists()
        assert capsys.readouterr().err == f"proofbench: error: {message}\n"

    @pytest.mark.parametrize("command", ["verify-sep", "extract"])
    def test_side_cap_exits_2(self, tmp_path, capsys, command):
        cnf = tmp_path / "wide.cnf"
        cnf.write_text("p cnf 26 1\n1 2 0\n")
        circuit = tmp_path / "c.mct"
        circuit.write_text("g0 = const0\noutput g0\n")
        report = tmp_path / "r.json"
        code = main(
            [command, "--cnf", str(cnf), "--circuit", str(circuit),
             "--report", str(report)]
        )
        assert code == 2
        assert not report.exists()
        assert capsys.readouterr().err == (
            "proofbench: error: side sizes (13, 13) exceed enumeration cap 12\n"
        )


# --- fuzzing the whole command line ---------------------------------------------

FUZZ_CNFS = {
    "complete2": COMPLETE_2CNF,
    "contra": CONTRADICTION,
    "unsat3": UNSAT3,
    "sat": "p cnf 2 1\n1 2 0\n",
    "empty": "p cnf 2 0\n",
    "tautology": "p cnf 1 1\n1 -1 0\n",
    "count": "p cnf 2 3\n1 0\n",
    "junk": "hello\n",
    "blank": "",
}
FUZZ_CIRCUITS = {
    "const0": "g0 = const0\noutput g0\n",
    "const1": "g0 = const1\noutput g0\n",
    "in": "g0 = in 1 0\ng1 = in 2 1\ng2 = or g0 g1\noutput g2\n",
    "layout": "g0 = in 0 1\noutput g0\n",
    "forward": "g0 = and g1 g1\noutput g0\n",
    "junk": "g0 = nand\n",
    "blank": "",
}
FUZZ_PROOFS = {
    "contra": CONTRADICTION_PROOF,
    "wrong": "1: 1 >= 2 ; hyp 1\n",
    "arity": "1: 1 1 1 >= 1 ; hyp 1\n",
    "junk": "1: >= ; add\n",
    "blank": "",
}
FUZZ_PARTITIONS = [
    ["alternating"], ["x:1", "y:2"], ["x:2", "y:1,3"], ["x:1,2,3", "y:"],
    ["x:", "y:1"], ["search"], ["search:1/4:8"], ["search:2"], ["search:x"],
    ["search:1/2:0"], ["search:1/0"], ["q:1"], ["x:1", "y:1"], ["x:0"], ["x:a"],
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for kind, files in (
        ("cnf", FUZZ_CNFS), ("mct", FUZZ_CIRCUITS), ("cpp", FUZZ_PROOFS)
    ):
        for name, text in files.items():
            (root / f"{name}.{kind}").write_text(text)
    # a circuit that really separates, for verify-sep and extract to pass
    assert main(
        ["compile", "--cnf", str(root / "complete2.cnf"), "--partition",
         "x:1", "y:2", "--out", str(root / "good.mct")]
    ) == 0
    return root


def _num(low, high, *bad):
    """A count in [low, high], or sometimes one of the out-of-range ``bad``."""
    values = st.integers(low, high)
    if bad:
        values = st.one_of(values, values, values, st.sampled_from(bad))
    return values.map(str)


@st.composite
def fuzz_argv(draw, root):
    def pick(files, kind, good):
        # half the time the file that lets the command succeed
        names = list(files) + (["good"] if kind == "mct" else []) + ["missing"]
        name = draw(st.one_of(st.just(good), st.sampled_from(names)))
        return str(root / f"{name}.{kind}")

    def option(flag, values):
        return [flag, draw(values)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(
        ["gen", "check-proof", "compile", "verify-sep", "extract", "stats",
         "roundtrip"]
    ))
    argv = [command]
    spec = st.one_of(st.just(["alternating"]), st.sampled_from(FUZZ_PARTITIONS))
    partition = ["--partition", *draw(spec)]
    if command == "gen":
        argv += ["--dist", draw(st.sampled_from(["f", "tensor"]))]
        argv += ["--n", draw(_num(1, 6, 0, -1)), "--d", draw(_num(1, 3, 0, 7))]
        argv += ["--m", draw(_num(1, 8, 0)), "--seed", draw(_num(0, 9))]
        out = draw(st.sampled_from(["out.cnf", "no/out.cnf"]))
        argv += ["--out", str(root / out)]
    elif command == "check-proof":
        argv += ["--cnf", pick(FUZZ_CNFS, "cnf", "contra")]
        argv += ["--proof", pick(FUZZ_PROOFS, "cpp", "contra")]
        argv += option("--weight-bound", _num(1, 4, 0, -1))
        if draw(st.booleans()):
            argv.append("--no-require-refutation")
    elif command == "compile":
        argv += ["--cnf", pick(FUZZ_CNFS, "cnf", "complete2")]
        argv += ["--out", str(root / "out.mct")] + partition
        if draw(st.booleans()):
            argv += ["--proof", pick(FUZZ_PROOFS, "cpp", "contra")]
    elif command in ("verify-sep", "extract"):
        argv += ["--cnf", pick(FUZZ_CNFS, "cnf", "complete2")]
        argv += ["--circuit", pick(FUZZ_CIRCUITS, "mct", "good")]
        argv += partition
    elif command == "stats":
        stat = draw(st.sampled_from(
            ["unsat-rate", "expansion", "profiles", "heavy-partition", "heavy-sat"]
        ))
        argv += ["--stat", stat, "--n", draw(_num(2, 8, 0, 1))]
        argv += ["--d", draw(_num(1, 3, 0, 9)), "--m", draw(_num(1, 30, 0))]
        argv += ["--trials", draw(_num(1, 20, 0, -1))]
        argv += option("--dist", st.sampled_from(["f", "tensor"]))
        if draw(st.booleans()):
            argv += ["--cnf", pick(FUZZ_CNFS, "cnf", "unsat3")]
        argv += option("--samples", _num(1, 3, 0, -1))
        epsilons = ["1/2", "1/4", "2", "0", "-1", "x", "1/0"]
        argv += option("--epsilon", st.sampled_from(epsilons))
        argv += ["--s-max", draw(_num(1, 3, 0, -2))]
        argv += option("--mode", st.sampled_from(["exact", "sampled"]))
        argv += option("--side", st.sampled_from(["x", "y"]))
        if draw(st.booleans()):
            argv.append("--beyond-regime")
        if draw(st.booleans()):
            argv += partition
    else:
        argv += ["--cnf", pick(FUZZ_CNFS, "cnf", "unsat3")] + partition
    if command not in ("gen", "check-proof"):
        argv += option("--seed", _num(0, 5))
    if draw(st.booleans()):
        argv += ["--report", str(root / "report.json")]
    if draw(st.sampled_from([False] * 9 + [True])):  # a stray token
        stray = draw(st.sampled_from(["--n", "-x", "0"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


class TestFuzz:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_exit_codes_and_reports(self, fuzz_dir, data):
        argv = data.draw(fuzz_argv(fuzz_dir))
        report = fuzz_dir / "report.json"
        report.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        if code == 0:
            text = report.read_text() if "--report" in argv else out.getvalue()
            assert "results" in json.loads(text), argv
        if code == 1:
            # a satisfiable compile or an invalid --proof writes no report
            text = report.read_text() if report.exists() else out.getvalue()
            data = json.loads(text) if text else None
            assert has_witness(argv[0], data, err.getvalue()), argv

    # every exit-1 path the fuzz can reach, each taken on every run
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-sep", "--cnf", "complete2.cnf", "--circuit", "const0.mct"],
            ["verify-sep", "--cnf", "complete2.cnf", "--circuit", "in.mct"],
            ["check-proof", "--cnf", "contra.cnf", "--proof", "wrong.cpp"],
            ["check-proof", "--cnf", "contra.cnf", "--proof", "blank.cpp"],
            ["extract", "--cnf", "complete2.cnf", "--circuit", "const1.mct"],
            ["compile", "--cnf", "sat.cnf", "--out", "out.mct"],
            ["compile", "--cnf", "contra.cnf", "--proof", "wrong.cpp",
             "--out", "out.mct"],
            ["compile", "--cnf", "contra.cnf", "--proof", "blank.cpp",
             "--out", "out.mct"],
            ["roundtrip", "--cnf", "sat.cnf"],
        ],
        ids=lambda argv: " ".join(a.split(".")[0] for a in argv[::2]),
    )
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "report"])
    def test_exit_one_carries_witness(self, fuzz_dir, capsys, argv, to_file):
        argv = [str(fuzz_dir / a) if "." in a else a for a in argv]
        report = fuzz_dir / "report.json"
        report.unlink(missing_ok=True)
        assert main(argv + (["--report", str(report)] if to_file else [])) == 1
        out, err = capsys.readouterr()
        text = report.read_text() if report.exists() else out
        assert has_witness(argv[0], json.loads(text) if text else None, err)


STDERR_WITNESSES = re.compile(
    r"proofbench: formula is satisfiable: Assignment\(.*\)\n"
    r"|proofbench: check failed: .*(line \d+|no line reaches|failing x=)"
)


def has_witness(command, data, err):
    """An exit 1 names what failed: in the report when one is written, else
    on stderr (a satisfying assignment, or the failing line or index).
    """
    if data is None:
        return STDERR_WITNESSES.match(err) is not None
    results = data["results"]
    if command == "verify-sep":
        return results["failing_x"] is not None or results["failing_y"] is not None
    if command == "check-proof":
        return (
            any(not line["valid"] for line in results["lines"])
            or results["refutation"] is False
        )
    if command == "extract":
        return bool(results["problems"])
    if command == "roundtrip":
        sep, extraction = results["separation"], results["extraction"]
        return (
            sep["failing_x"] is not None
            or sep["failing_y"] is not None
            or results["claim_violations"] > 0
            or bool(extraction and extraction["problems"])
        )
    return False
