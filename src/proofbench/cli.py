"""Command-line front end wiring the modules into reproducible experiments.

Every report embeds its fully resolved configuration, including the seed and
the explicit partition, so re-running the embedded config reproduces the
report byte for byte. Exit codes: 0 all checks passed, 1 a check failed (the
report carries a witness), 2 usage or cap errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import circuit as circuit_mod
from . import cpproof as cpproof_mod
from . import randomcnf
from .cnf import (
    CnfFormula,
    VariablePartition,
    formula_to_system,
    parse_dimacs,
    serialize_dimacs,
)
from .errors import CapExceededError, SatisfiableError, SoundnessError, TextFormatError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _write_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_formula(path: str) -> CnfFormula:
    return parse_dimacs(Path(path).read_text())


def _fraction(text: str) -> Fraction:
    """Parse a fraction such as ``1/4``; a malformed one or a zero
    denominator raises ``ValueError``.
    """
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"fraction {text!r} has a zero denominator") from None


def parse_partition_spec(
    tokens: list[str], formula: CnfFormula, seed: int
) -> tuple[VariablePartition, dict]:
    """Accepts ``alternating``, ``search[:epsilon[:trials]]``, or explicit
    ``x:1,3 y:2,4`` pieces. Returns the partition and how it was resolved.
    """
    joined = " ".join(tokens).strip() if tokens else "alternating"
    if joined == "alternating":
        part = VariablePartition.alternating(formula.n)
        return part, {"mode": "alternating"}
    if joined.startswith("search"):
        pieces = joined.split(":")
        epsilon = _fraction(pieces[1]) if len(pieces) > 1 else Fraction(1, 4)
        trials = int(pieces[2]) if len(pieces) > 2 else 1000
        report = randomcnf.heavy_partition_search(
            formula, epsilon, max_trials=trials, seed=seed
        )
        mode = {
            "mode": "search",
            "epsilon": str(epsilon),
            "trials": trials,
            "accepted": report.accepted,
        }
        return report.partition, mode
    xvars: tuple[int, ...] | None = None
    yvars: tuple[int, ...] | None = None
    for piece in joined.split():
        side, _, body = piece.partition(":")
        values = tuple(int(v) for v in body.split(",") if v)
        if side == "x":
            xvars = values
        elif side == "y":
            yvars = values
        else:
            raise ValueError(f"bad partition piece {piece!r}")
    if xvars is None or yvars is None:
        raise ValueError("explicit partitions need both x: and y: pieces")
    return VariablePartition(xvars, yvars), {"mode": "explicit"}


def _partition_dict(part: VariablePartition) -> dict:
    return {"xvars": list(part.xvars), "yvars": list(part.yvars)}


def _resolve_partition(args, formula: CnfFormula) -> tuple[VariablePartition, dict]:
    """The ``--partition`` choice and its config entry, spelled out."""
    part, mode = parse_partition_spec(args.partition, formula, args.seed)
    return part, _partition_dict(part) | mode


def _formula_inputs(args) -> tuple[CnfFormula, VariablePartition, dict]:
    """Load ``--cnf``, resolve ``--partition``, and start the config block
    that every formula-and-partition command shares.
    """
    formula = _load_formula(args.cnf)
    part, partition = _resolve_partition(args, formula)
    config = {
        "command": args.command,
        "cnf": args.cnf,
        "partition": partition,
        "seed": args.seed,
    }
    return formula, part, config


def _jsonable(value):
    """JSON data of a result: a dataclass becomes the dict of its fields, a
    tuple or list a list, a ``Fraction`` its string; anything else is kept.

    Dispatch is on the exact type: ``dataclasses.asdict`` deep-copies every
    leaf and ``isinstance`` against ``Fraction`` is an ABC check, both
    several times slower on a long check report.
    """
    kind = type(value)
    if kind is tuple or kind is list:
        return [_jsonable(v) for v in value]
    if kind is Fraction:
        return str(value)
    fields = getattr(kind, "__dataclass_fields__", None)
    if fields is not None:
        return {name: _jsonable(getattr(value, name)) for name in fields}
    return value


# --- subcommands ---------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    params = randomcnf.DistributionParams(args.m, args.n, args.d, args.seed)
    if args.dist == "tensor":
        formula, part = randomcnf.sample_tensor(params)
        partition = _partition_dict(part)
    else:
        formula = randomcnf.sample_f(params)
        partition = None
    Path(args.out).write_text(serialize_dimacs(formula))
    report = {
        "config": {
            "command": "gen",
            "dist": args.dist,
            "m": args.m,
            "n": args.n,
            "d": args.d,
            "seed": args.seed,
            "out": args.out,
        },
        "results": {
            "clauses": formula.m,
            "variables": formula.n,
            "width": formula.width,
            "partition": partition,
        },
    }
    _write_report(report, args.report)
    return EXIT_PASS


def _cmd_check_proof(args: argparse.Namespace) -> int:
    formula = _load_formula(args.cnf)
    system = formula_to_system(formula)
    lines = cpproof_mod.parse_cp_lines(Path(args.proof).read_text(), formula.n)
    proof = cpproof_mod.CpProof(system, lines)
    bound = args.weight_bound
    if bound is None:
        bound = cpproof_mod.default_weight_bound(formula.n)
    check = cpproof_mod.check_cp_proof(proof, weight_bound=bound)
    results = _jsonable(check)
    results["lines"] = results.pop("verdicts")
    results["refutation"] = results.pop("is_refutation")
    report = {
        "config": {
            "command": "check-proof",
            "cnf": args.cnf,
            "proof": args.proof,
            "weight_bound": bound,
            "require_refutation": args.require_refutation,
        },
        "results": results,
    }
    _write_report(report, args.report)
    ok = check.all_valid and (check.is_refutation or not args.require_refutation)
    return EXIT_PASS if ok else EXIT_FAIL


def _build_compile_inputs(args, formula, part):
    if args.proof:
        lines = cpproof_mod.parse_cp_lines(Path(args.proof).read_text(), formula.n)
        proof = cpproof_mod.CpProof(formula_to_system(formula), lines)
        check = cpproof_mod.check_cp_proof(proof)
        if not (check.all_valid and check.is_refutation):
            bad = next((v for v in check.verdicts if not v.valid), None)
            why = (
                f"line {bad.index}: {bad.reason}"
                if bad
                else "no line reaches a refutation terminal"
            )
            raise SoundnessError(f"the supplied proof is not a valid refutation: {why}")
        cc = circuit_mod.cc_lines_from_cp_proof(formula, part, proof)
        source = {"kind": "cp-proof", "path": args.proof, "length": proof.length}
    else:
        refutation = cpproof_mod.resolution_refutation_from_dpll(formula)
        cc = circuit_mod.cc_lines_from_resolution(refutation, part)
        source = {"kind": "dpll-resolution", "length": refutation.length}
    return cc, source


def _cmd_compile(args: argparse.Namespace) -> int:
    formula, part, config = _formula_inputs(args)
    cc, source = _build_compile_inputs(args, formula, part)
    result = circuit_mod.compile_cc_refutation(cc, formula, part)
    Path(args.out).write_text(circuit_mod.serialize_circuit(result.circuit))
    report = {
        "config": config | {"proof": args.proof, "out": args.out},
        "results": {"refutation": source} | _jsonable(result.report),
    }
    _write_report(report, args.report)
    return EXIT_PASS


def _cmd_verify_sep(args: argparse.Namespace) -> int:
    formula, part, config = _formula_inputs(args)
    circ = circuit_mod.parse_circuit(Path(args.circuit).read_text())
    sep = circuit_mod.verify_separation(circ, formula, part)
    report = {"config": config | {"circuit": args.circuit}, "results": _jsonable(sep)}
    _write_report(report, args.report)
    return EXIT_PASS if sep.passed else EXIT_FAIL


def _cmd_extract(args: argparse.Namespace) -> int:
    formula, part, config = _formula_inputs(args)
    circ = circuit_mod.parse_circuit(Path(args.circuit).read_text())
    extraction = circuit_mod.extract_cc2_refutation(circ, formula, part)
    report = {
        "config": config | {"circuit": args.circuit},
        "results": _jsonable(extraction.report),
    }
    _write_report(report, args.report)
    return EXIT_PASS if extraction.report.all_ok else EXIT_FAIL


def _cmd_stats(args: argparse.Namespace) -> int:
    config = {
        "command": "stats",
        "stat": args.stat,
        "dist": args.dist,
        "m": args.m,
        "n": args.n,
        "d": args.d,
        "seed": args.seed,
    }
    if args.stat == "unsat-rate":
        if args.cnf:
            raise ValueError(
                "unsat-rate always samples its formulas and takes no --cnf"
            )
        config["samples"] = args.samples
        params = randomcnf.DistributionParams(args.m, args.n, args.d, args.seed)
        report = randomcnf.unsat_rate(
            params, tensor=args.dist == "tensor", samples=args.samples
        )
    elif args.stat == "expansion":
        formula = _sampled_formula(args)
        config |= {"epsilon": args.epsilon, "s_max": args.s_max, "trials": args.trials}
        report = randomcnf.expansion_report(
            formula,
            _fraction(args.epsilon),
            args.s_max,
            trials=args.trials,
            seed=args.seed,
            allow_beyond_regime=args.beyond_regime,
        )
    elif args.stat == "profiles":
        formula = _sampled_formula(args)
        config |= {"mode": args.mode, "trials": args.trials}
        report = randomcnf.profile_distinctness(
            formula, mode=args.mode, seed=args.seed, trials=args.trials
        )
    elif args.stat == "heavy-partition":
        formula = _sampled_formula(args)
        config |= {"epsilon": args.epsilon, "trials": args.trials}
        report = randomcnf.heavy_partition_search(
            formula, _fraction(args.epsilon), max_trials=args.trials, seed=args.seed
        )
    else:  # heavy-sat; argparse's choices admit no other stat
        formula = _sampled_formula(args)
        part, partition = _resolve_partition(args, formula)
        config |= {
            "epsilon": args.epsilon,
            "mode": args.mode,
            "trials": args.trials,
            "side": args.side,
            "partition": partition,
        }
        report = randomcnf.heavy_sat_fraction(
            formula,
            part,
            args.side,
            _fraction(args.epsilon),
            mode=args.mode,
            seed=args.seed,
            trials=args.trials,
        )
    results = _jsonable(report)
    if args.stat == "unsat-rate":
        results |= results.pop("params")
        results["rate_float"] = float(report.rate)
    elif args.stat == "heavy-partition":
        results |= results.pop("partition")
    _write_report({"config": config, "results": results}, args.report)
    return EXIT_PASS


def _sampled_formula(args) -> CnfFormula:
    """The ``--cnf`` formula, which leaves ``--m``, ``--n`` and ``--d``
    unchecked and unused, or else a draw of those parameters.
    """
    if args.cnf:
        return _load_formula(args.cnf)
    params = randomcnf.DistributionParams(args.m, args.n, args.d, args.seed)
    if args.dist == "tensor":
        return randomcnf.sample_tensor(params)[0]
    return randomcnf.sample_f(params)


def _cmd_roundtrip(args: argparse.Namespace) -> int:
    formula, part, config = _formula_inputs(args)
    rt = circuit_mod.roundtrip(formula, part)
    extraction = rt.extraction.report if rt.extraction else None
    report = {
        "config": config,
        "results": {
            "refutation_length": rt.refutation.length,
            "compile": _jsonable(rt.compiled.report),
            "separation": _jsonable(rt.separation),
            "claim_violations": rt.claim_violations,
            "extraction": _jsonable(extraction),
        },
    }
    _write_report(report, args.report)
    ok = rt.separation.passed and rt.claim_violations == 0 and extraction.all_ok
    return EXIT_PASS if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofbench",
        description="proof, protocol, and circuit workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_partition(p):
        p.add_argument(
            "--partition",
            nargs="+",
            default=["alternating"],
            help="'alternating', 'search[:eps[:trials]]', or 'x:1,3 y:2,4'",
        )

    def add_report(p):
        p.add_argument("--report", help="write the JSON report here (default stdout)")

    def add_formula_tail(p):
        # After the command's own arguments, so the usage line keeps its order.
        p.add_argument("--seed", type=int, default=0)
        add_partition(p)
        add_report(p)

    p = sub.add_parser("gen", help="sample a random formula to DIMACS")
    p.add_argument("--dist", choices=["f", "tensor"], default="f")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    add_report(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check-proof", help="verify a cutting-planes proof file")
    p.add_argument("--cnf", required=True)
    p.add_argument("--proof", required=True)
    p.add_argument("--weight-bound", type=int, default=None)
    p.add_argument(
        "--no-require-refutation",
        dest="require_refutation",
        action="store_false",
        help="accept valid proofs that do not reach a refutation terminal",
    )
    add_report(p)
    p.set_defaults(func=_cmd_check_proof)

    p = sub.add_parser("compile", help="refutation to monotone circuit")
    p.add_argument("--cnf", required=True)
    p.add_argument("--proof", help="cutting-planes proof to ingest (default: DPLL)")
    p.add_argument("--out", required=True)
    add_formula_tail(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("verify-sep", help="check a circuit separates U from V")
    p.add_argument("--cnf", required=True)
    p.add_argument("--circuit", required=True)
    add_formula_tail(p)
    p.set_defaults(func=_cmd_verify_sep)

    p = sub.add_parser("extract", help="pull a two-bit refutation out of a circuit")
    p.add_argument("--cnf", required=True)
    p.add_argument("--circuit", required=True)
    add_formula_tail(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("stats", help="random-formula structural reports")
    p.add_argument(
        "--stat",
        choices=["unsat-rate", "expansion", "profiles", "heavy-partition", "heavy-sat"],
        default="unsat-rate",
    )
    p.add_argument("--dist", choices=["f", "tensor"], default="f")
    p.add_argument(
        "--cnf", help="use this formula instead of sampling (not with unsat-rate)"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--epsilon", default="1/2")
    p.add_argument("--s-max", type=int, default=10)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--side", choices=["x", "y"], default="x")
    p.add_argument("--beyond-regime", action="store_true")
    add_partition(p)
    add_report(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("roundtrip", help="compile, verify, and extract in one go")
    p.add_argument("--cnf", required=True)
    add_formula_tail(p)
    p.set_defaults(func=_cmd_roundtrip)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: each ``add_argument`` reads the terminal size."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        return args.func(args)
    except SatisfiableError as exc:
        print(f"proofbench: formula is satisfiable: {exc.witness}", file=sys.stderr)
        return EXIT_FAIL
    except SoundnessError as exc:
        print(f"proofbench: check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OSError, TextFormatError, CapExceededError, ValueError) as exc:
        print(f"proofbench: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
