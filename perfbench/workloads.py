"""The four workloads: inputs made from a seed, operations, and their checks.

A workload's ``choose`` picks its inputs from the seed: it draws samples
until each has the wanted property (unsatisfiable, a proof of typical length,
a given sat/unsat verdict), so how much it does depends on the seed. Its
``setup`` then builds exactly the chosen inputs, confirms them with the
oracle and builds a ``Plan``: the warm-up operations and a pool of cycles.
Only ``setup`` counts as set-up time, so the work timed there is the same
kind and amount on every seed. The timed phase runs whole cycles of the
pool in order, wrapping around, so every run sees the same mix of operation
kinds. Each operation returns its answer fields (exit codes and verdict
fields) and is checked three ways: against the independent oracle and
invariants on every seed, and against the recorded answers on the recorded
seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from proofbench import cli, cnf, cpproof, randomcnf
from proofbench.randomcnf import DistributionParams

import cpgen
import oracle

# Unwrapped reference, so that checks made outside an operation never show up
# in a trace. Set-up calls go through the module and are traced.
_sample_f = randomcnf.sample_f


def sub_seed(seed: int, tag: str, index: int) -> int:
    digest = hashlib.sha256(f"perfbench:{seed}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def signed_clauses(formula) -> list[tuple[int, ...]]:
    return [c.signed() for c in formula.clauses]


@dataclass
class Op:
    kind: str
    key: str  # names the input, for the recorded answers
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]
    instances: int = 0  # 2^n1 + 2^n2 when the operation builds every instance


@dataclass
class Plan:
    """``min_cycles`` whole cycles always leave at least ten samples above
    the tail percentile, so every run reports the same percentile.
    """

    warmup: list[Op]
    cycles: list[list[Op]]
    min_cycles: int


def _cli(argv: list[str], report: Path) -> tuple[int, dict | None]:
    if report.exists():
        report.unlink()
    code = cli.main(argv + ["--report", str(report)])
    results = json.loads(report.read_text())["results"] if report.exists() else None
    return code, results


def _expect(fields: dict, **want) -> list[str]:
    return [
        f"{k}: got {fields.get(k)!r}, want {v!r}"
        for k, v in want.items()
        if fields.get(k) != v
    ]


def _unsat_draws(seed: int, tag: str, n: int, m: int, draws: int = 200):
    """Parameters and formulas of the unsatisfiable samples of the tagged
    stream, by the oracle.
    """
    for i in range(draws):
        params = DistributionParams(m, n, 3, sub_seed(seed, tag, i))
        formula = randomcnf.sample_f(params)
        if not oracle.satisfying_mask(n, signed_clauses(formula)):
            yield params, formula
    raise RuntimeError(f"ran out of unsatisfiable samples for {tag} in {draws} draws")


def _confirmed_unsat(params: DistributionParams):
    """The chosen sample, drawn again and confirmed unsatisfiable."""
    formula = randomcnf.sample_f(params)
    if oracle.satisfying_mask(params.n, signed_clauses(formula)):
        raise RuntimeError(f"chosen sample {params} is satisfiable")
    return formula


# --- roundtrip -----------------------------------------------------------------

RT_SIZES = ((8, 60), (10, 90), (12, 120))
# Formulas of each n per cycle, besides one const1 control: the control and
# n = 8 fill the lowest third of the latencies, n = 10 the middle third and
# n = 12 the top third, so the median falls in the middle of the n = 10
# latencies and p75 inside the n = 12 ones, away from the edges between kinds
# where a quantile jumps from run to run.
RT_MIX = {8: 1, 10: 2, 12: 2}
RT_POOL = 7  # cycles of distinct inputs; 42 operations leave 10 beyond p75


def _roundtrip_op(path: Path, n: int, m: int, work: Path) -> Op:
    part = cnf.VariablePartition.alternating(n)
    report = work / "roundtrip.json"

    def run() -> dict:
        code, r = _cli(["roundtrip", "--cnf", str(path)], report)
        if r is None:
            return {"exit": code}
        ext = r["extraction"] or {}
        return {
            "exit": code,
            "separation.passed": r["separation"]["passed"],
            "separation.accepting_checked": r["separation"]["accepting_checked"],
            "separation.rejecting_checked": r["separation"]["rejecting_checked"],
            "claim_violations": r["claim_violations"],
            "extraction.all_ok": ext.get("all_ok"),
            "extraction.line_count": ext.get("line_count"),
            "refutation_length": r["refutation_length"],
            "line_count": r["compile"]["line_count"],
            "gate_count": r["compile"]["gate_count"],
        }

    def check(f: dict) -> list[str]:
        problems = _expect(
            f,
            exit=0,
            **{
                "separation.passed": True,
                "separation.accepting_checked": 1 << part.n1,
                "separation.rejecting_checked": 1 << part.n2,
                "claim_violations": 0,
                "extraction.all_ok": True,
                "extraction.line_count": f.get("gate_count"),
                "line_count": f.get("refutation_length"),
            },
        )
        if not (f.get("refutation_length") or 0) > m:
            problems.append("refutation shorter than the clauses plus a final line")
        return problems

    return Op("roundtrip", path.stem, run, check, (1 << part.n1) + (1 << part.n2))


def _const1_control(cnf_path: Path, circuit_path: Path, work: Path) -> Op:
    report = work / "control.json"

    def run() -> dict:
        code, r = _cli(
            ["verify-sep", "--cnf", str(cnf_path), "--circuit", str(circuit_path)],
            report,
        )
        if r is None:
            return {"exit": code}
        return {
            "exit": code,
            "passed": r["passed"],
            "failing_x": r["failing_x"],
            "failing_y": r["failing_y"],
        }

    def check(f: dict) -> list[str]:
        # A constant-1 output accepts every U(x) and first fails at V(y = 0).
        return _expect(f, exit=1, passed=False, failing_x=None, failing_y=0)

    return Op("control-const1", circuit_path.stem, run, check)


def choose_roundtrip(seed: int) -> dict:
    return {
        (n, i): next(_unsat_draws(seed, f"roundtrip-{n}-{i}", n, m))[0]
        for (n, m) in RT_SIZES
        for i in range(RT_MIX[n] * RT_POOL)
    }


def setup_roundtrip(chosen: dict, work: Path) -> Plan:
    paths: dict[tuple[int, int], Path] = {}
    for (n, i), params in chosen.items():
        path = work / f"rt-n{n}-{i}.cnf"
        path.write_text(cnf.serialize_dimacs(_confirmed_unsat(params)))
        paths[(n, i)] = path
    controls = {}
    for (n, m) in RT_SIZES:
        good = work / f"rt-n{n}.mct"
        code, _ = _cli(
            ["compile", "--cnf", str(paths[(n, 0)]), "--out", str(good)],
            work / "compile.json",
        )
        if code != 0:
            raise RuntimeError(f"set-up compile failed with exit {code}")
        text = good.read_text().splitlines()
        gates = sum(1 for line in text if line.startswith("g"))
        bad = [line for line in text if not line.startswith("output")]
        bad += [f"g{gates} = const1", f"output g{gates}"]
        bad_path = work / f"const1-n{n}.mct"
        bad_path.write_text("\n".join(bad) + "\n")
        controls[n] = _const1_control(paths[(n, 0)], bad_path, work)
    cycles = []
    for c in range(RT_POOL):
        ops = [
            _roundtrip_op(paths[(n, RT_MIX[n] * c + j)], n, m, work)
            for j in range(max(RT_MIX.values()))
            for (n, m) in RT_SIZES
            if j < RT_MIX[n]
        ]
        ops.append(controls[RT_SIZES[c % len(RT_SIZES)][0]])
        cycles.append(ops)
    warmup = [_roundtrip_op(paths[(8, 0)], 8, 60, work), controls[8]]
    return Plan(warmup, cycles, min_cycles=RT_POOL)


# --- cp-route ------------------------------------------------------------------

CP_SIZES = ((8, 60), (10, 90))
# Proof lengths vary widely (coefficient of variation near 0.3), and the cost
# of an operation follows them, so each size keeps proofs within 15% of its
# typical length.
CP_LENGTH = {8: 90, 10: 120}
CP_BAND = 0.15
# One cycle is an n = 8 proof, an n = 10 proof and one mutated-proof control:
# the cheap controls fill the lowest third of the latencies, so the median
# falls in the middle of the n = 8 latencies and p75 inside the n = 10 ones.
CP_POOL = 16  # cycles of distinct inputs
CP_MIN_CYCLES = 14  # 42 operations leave 10 beyond p75


def _cp_op(cnf_path: Path, proof_path: Path, n: int, weight: int, depth: int, work: Path) -> Op:
    part = cnf.VariablePartition.alternating(n)
    circuit_path = work / f"{proof_path.stem}.mct"
    check_json, compile_json, verify_json = (
        work / "cp-check.json",
        work / "cp-compile.json",
        work / "cp-verify.json",
    )

    def run() -> dict:
        fields: dict = {}
        code, r = _cli(
            ["check-proof", "--cnf", str(cnf_path), "--proof", str(proof_path)], check_json
        )
        fields["check.exit"] = code
        if r is not None:
            fields["check.all_valid"] = r["all_valid"]
            fields["check.refutation"] = r["refutation"]
            fields["check.max_weight"] = r["max_weight"]
        code, r = _cli(
            [
                "compile", "--cnf", str(cnf_path), "--proof", str(proof_path),
                "--out", str(circuit_path),
            ],
            compile_json,
        )
        fields["compile.exit"] = code
        if r is not None:
            fields["gate_count"] = r["gate_count"]
            fields["line_count"] = r["line_count"]
            fields["max_protocol_depth"] = r["max_protocol_depth"]
        code, r = _cli(
            ["verify-sep", "--cnf", str(cnf_path), "--circuit", str(circuit_path)],
            verify_json,
        )
        fields["verify.exit"] = code
        if r is not None:
            fields["separation.passed"] = r["passed"]
            fields["separation.accepting_checked"] = r["accepting_checked"]
            fields["separation.rejecting_checked"] = r["rejecting_checked"]
        return fields

    def check(f: dict) -> list[str]:
        return _expect(
            f,
            **{
                "check.exit": 0,
                "check.all_valid": True,
                "check.refutation": True,
                "check.max_weight": weight,
                "compile.exit": 0,
                "max_protocol_depth": max(2, depth),
                "verify.exit": 0,
                "separation.passed": True,
                "separation.accepting_checked": 1 << part.n1,
                "separation.rejecting_checked": 1 << part.n2,
            },
        )

    return Op("cp-route", proof_path.stem, run, check, (1 << part.n1) + (1 << part.n2))


def _mutated_control(cnf_path: Path, proof_path: Path, bad_line: int, work: Path) -> Op:
    report = work / "cp-control.json"

    def run() -> dict:
        code, r = _cli(
            ["check-proof", "--cnf", str(cnf_path), "--proof", str(proof_path)], report
        )
        if r is None:
            return {"exit": code}
        invalid = [v["index"] for v in r["lines"] if not v["valid"]]
        return {
            "exit": code,
            "all_valid": r["all_valid"],
            "refutation": r["refutation"],
            "first_invalid": invalid[0] if invalid else None,
        }

    def check(f: dict) -> list[str]:
        return _expect(f, exit=1, all_valid=False, refutation=False, first_invalid=bad_line)

    return Op("control-mutated", proof_path.stem, run, check)


def _cp_lines(formula, n: int):
    return cpgen.resolution_to_cp(cpproof.resolution_refutation_from_dpll(formula), n)


def choose_cp_route(seed: int) -> dict:
    chosen = {}
    for (n, m) in CP_SIZES:
        for i in range(CP_POOL):
            for params, formula in _unsat_draws(seed, f"cp-{n}-{i}", n, m):
                if abs(len(_cp_lines(formula, n)) - CP_LENGTH[n]) <= CP_BAND * CP_LENGTH[n]:
                    chosen[(n, i)] = params
                    break
    return chosen


def setup_cp_route(chosen: dict, work: Path) -> Plan:
    ops: dict[tuple[int, int], Op] = {}
    controls: dict[tuple[int, int], Op] = {}
    for (n, i), params in chosen.items():
        xvars = cnf.VariablePartition.alternating(n).xvars
        formula = _confirmed_unsat(params)
        lines = _cp_lines(formula, n)
        stem = work / f"cp-n{n}-{i}"
        cnf_path, proof_path = stem.with_suffix(".cnf"), stem.with_suffix(".cpp")
        cnf_path.write_text(cnf.serialize_dimacs(formula))
        proof_path.write_text(cpgen.serialize(lines))
        weight, depth = cpgen.weight(lines), cpgen.protocol_depth(lines, xvars)
        code, r = _cli(
            ["check-proof", "--cnf", str(cnf_path), "--proof", str(proof_path)],
            work / "cp-setup.json",
        )
        if code != 0 or not r["refutation"] or r["max_weight"] != weight:
            raise RuntimeError(f"generated proof {proof_path.name} failed check-proof")
        ops[(n, i)] = _cp_op(cnf_path, proof_path, n, weight, depth, work)
        mutated, bad_line = cpgen.mutate(lines)
        bad_path = work / f"cp-n{n}-{i}-mutated.cpp"
        bad_path.write_text(cpgen.serialize(mutated))
        controls[(n, i)] = _mutated_control(cnf_path, bad_path, bad_line, work)
    cycles = []
    for c in range(CP_POOL):
        cycle = [ops[(n, c)] for (n, _) in CP_SIZES]
        cycle.append(controls[(CP_SIZES[c % len(CP_SIZES)][0], c)])
        cycles.append(cycle)
    warmup = [ops[(8, 0)], controls[(8, 0)]]
    return Plan(warmup, cycles, min_cycles=CP_MIN_CYCLES)


# --- refute --------------------------------------------------------------------

REFUTE_N, REFUTE_D = 8, 2  # tensor formulas over 2n = 16 variables, width 2d
# One cycle: m=160 satisfiable, 384, 384, 160 unsatisfiable, 384, 384. Two
# thirds of the operations are m=384, so the median and p75 both fall inside
# that kind, whose latency varies least from formula to formula; the m=160
# unsatisfiable latencies spread widely with the formula.
REFUTE_SLOTS = ((160, True), (384, False), (384, False), (160, False), (384, False), (384, False))
REFUTE_POOL = 12


def _refute_op(path: Path, n: int, m: int, witness) -> Op:
    def run() -> dict:
        formula = cnf.parse_dimacs(path.read_text())
        found = cnf.brute_force_sat(formula)
        if found is not None:
            bits = [found.bit(v) for v in range(1, formula.n + 1)]
            return {"sat": True, "witness": bits}
        refutation = cpproof.resolution_refutation_from_dpll(formula)
        lines = refutation.lines
        return {
            "sat": False,
            "refutation_length": len(lines),
            "axioms_first": all(ln.axiom == i + 1 for i, ln in enumerate(lines[:m])),
            "ends_empty": not lines[-1].literals,
        }

    def check(f: dict) -> list[str]:
        if witness is not None:
            return _expect(f, sat=True, witness=list(witness))
        return _expect(f, sat=False, axioms_first=True, ends_empty=True)

    return Op(f"refute-m{m}", path.stem, run, check)


def choose_refute(seed: int) -> list[list[DistributionParams]]:
    """Per cycle, the sample of each slot: the next draw at that m whose
    oracle verdict is the slot's.
    """
    n = 2 * REFUTE_N
    draws = {160: 0, 384: 0}
    chosen = []
    for _ in range(REFUTE_POOL):
        cycle = []
        for m, want_sat in REFUTE_SLOTS:
            for _ in range(200):
                params = DistributionParams(m, REFUTE_N, REFUTE_D, sub_seed(seed, f"refute-{m}", draws[m]))
                draws[m] += 1
                formula, _ = randomcnf.sample_tensor(params)
                if bool(oracle.satisfying_mask(n, signed_clauses(formula))) == want_sat:
                    cycle.append(params)
                    break
            else:
                raise RuntimeError(f"no {'sat' if want_sat else 'unsat'} sample at m={m}")
        chosen.append(cycle)
    return chosen


def setup_refute(chosen: list, work: Path) -> Plan:
    n = 2 * REFUTE_N
    cycles = []
    for c, slots in enumerate(chosen):
        cycle = []
        for s, (params, (m, want_sat)) in enumerate(zip(slots, REFUTE_SLOTS)):
            formula, _ = randomcnf.sample_tensor(params)
            witness = oracle.least_witness(n, signed_clauses(formula))
            if (witness is not None) != want_sat:
                raise RuntimeError(f"chosen sample {params} changed its verdict")
            path = work / f"refute-c{c}-s{s}.cnf"
            path.write_text(cnf.serialize_dimacs(formula))
            cycle.append(_refute_op(path, n, m, witness))
        cycles.append(cycle)
    warmup = [cycles[0][0], cycles[0][3]]
    return Plan(warmup, cycles, min_cycles=8)


# --- reports -------------------------------------------------------------------

REPORTS = {
    "profiles": ["--stat", "profiles", "--n", "14", "--m", "1500", "--d", "3"],
    "expansion": ["--stat", "expansion", "--n", "300", "--m", "1200", "--d", "6", "--s-max", "3"],
    "heavy-partition": [
        "--stat", "heavy-partition", "--n", "128", "--m", "2048", "--d", "16", "--epsilon", "1/4",
    ],
    "heavy-sat": ["--stat", "heavy-sat", "--n", "32", "--d", "6", "--m", "400", "--epsilon", "1/2"],
}
# The two cheap reports fill the lowest third of the latencies, expansion the
# middle third and profiles the top third, so the median falls in the middle
# of the expansion latencies and p75 inside the profiles ones.
REPORT_CYCLE = ("heavy-partition", "heavy-sat", "expansion", "expansion", "profiles", "profiles")
REPORT_POOL = 12


def _argv_int(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _heavy_recount(formula, part, epsilon: Fraction) -> tuple[int, int, int]:
    cut = (1 - epsilon) * formula.width
    heavy = [0, 0]
    incidence: dict[int, int] = {}
    for clause in formula.clauses:
        for s, side in enumerate((part.xvars, part.yvars)):
            on_side = [v for v in side if v in clause.vars]
            if len(on_side) > cut:
                heavy[s] += 1
                for v in on_side:
                    incidence[v] = incidence.get(v, 0) + 1
    return heavy[0], heavy[1], max(incidence.values(), default=0)


def _heavy_sat_recount(formula, epsilon: Fraction) -> tuple[int, Fraction]:
    """Heavy X-side clauses of the alternating partition and the fraction of
    X assignments satisfying all of them, by truth-table bitsets.
    """
    xvars = cnf.VariablePartition.alternating(formula.n).xvars
    cut = (1 - epsilon) * formula.width
    local = {v: i + 1 for i, v in enumerate(xvars)}
    heavy = [
        tuple(
            (local[abs(lit)] if lit > 0 else -local[abs(lit)])
            for lit in clause.signed()
            if abs(lit) in local
        )
        for clause in formula.clauses
        if len(clause.vars & set(xvars)) > cut
    ]
    good = bin(oracle.satisfying_mask(len(xvars), heavy)).count("1")
    return len(heavy), Fraction(good, 1 << len(xvars))


def _stats_op(kind: str, seed: int, work: Path) -> Op:
    argv = ["stats", *REPORTS[kind], "--seed", str(seed)]
    report = work / "stats.json"
    n, m, d = (_argv_int(argv, f) for f in ("--n", "--m", "--d"))
    epsilon = Fraction(argv[argv.index("--epsilon") + 1]) if "--epsilon" in argv else None

    def run() -> dict:
        code, r = _cli(argv, report)
        return {"exit": code, **(r or {})}

    def check(f: dict) -> list[str]:
        problems = _expect(f, exit=0)
        if problems:
            return problems
        if kind == "profiles":
            problems += _expect(
                f, rows_checked=1 << n, distinct=f["collisions"] == 0, mode="exact"
            )
        elif kind == "expansion":
            rows = f["rows"]
            if [r["size"] for r in rows] != [1, 2, 3] or rows[0]["min_vars"] != d:
                problems.append(f"unexpected expansion rows {rows}")
            for r in rows:
                if r["passed"] != (r["min_vars"] >= Fraction(r["threshold"])):
                    problems.append(f"size {r['size']}: passed flag disagrees")
            problems += _expect(f, all_pass=all(r["passed"] for r in rows))
        elif kind == "heavy-partition":
            formula = _sample_f(DistributionParams(m, n, d, seed))
            part = cnf.VariablePartition(tuple(f["xvars"]), tuple(f["yvars"]))
            z_x, z_y, w_max = _heavy_recount(formula, part, epsilon)
            problems += _expect(f, z_x=z_x, z_y=z_y, w_max=w_max)
            if f["accepted"] and max(z_x, z_y) > f["m_prime"]:
                problems.append("accepted a partition above the heavy-clause bound")
        else:
            formula = _sample_f(DistributionParams(m, n, d, seed))
            count, fraction = _heavy_sat_recount(formula, epsilon)
            problems += _expect(f, heavy_count=count, fraction=str(fraction))
        return problems

    return Op(f"stats-{kind}", f"{kind}-{seed}", run, check)


def choose_reports(seed: int) -> list[list[int]]:
    """Per cycle, the ``stats --seed`` of each report."""
    return [
        [sub_seed(seed, f"reports-{slot}", c) % 100_000 for slot in range(len(REPORT_CYCLE))]
        for c in range(REPORT_POOL)
    ]


def setup_reports(chosen: list, work: Path) -> Plan:
    cycles = [
        [_stats_op(kind, seed, work) for kind, seed in zip(REPORT_CYCLE, seeds)]
        for seeds in chosen
    ]
    warmup = [cycles[0][0]]
    return Plan(warmup, cycles, min_cycles=7)  # 42 operations leave 10 beyond p75


# name -> (choose, setup)
WORKLOADS = {
    "roundtrip": (choose_roundtrip, setup_roundtrip),
    "cp-route": (choose_cp_route, setup_cp_route),
    "refute": (choose_refute, setup_refute),
    "reports": (choose_reports, setup_reports),
}
