"""Every enumeration bound is a module constant, each check raises
``CapExceededError`` on a real over-cap input at today's value, and an
input at the cap gets a correct report.
"""

import importlib
import inspect
import json
import pkgutil
from fractions import Fraction

import pytest

import proofbench
from proofbench.circuit import compile_cc_refutation
from proofbench.cli import main
from proofbench.cnf import (
    Clause,
    CnfFormula,
    VariablePartition,
    brute_force_sat,
    eval_clause,
)
from proofbench.cpproof import resolution_problems, resolution_refutation_from_dpll
from proofbench.cspsat import (
    ConstraintGraph,
    CspSatInstance,
    build_constraint_graph,
    csp_sat_eval,
    rejecting_images_distinct,
    rejecting_instance,
)
from proofbench.errors import CapExceededError
from proofbench.linear import LinearInequality
from proofbench.protocol import (
    clause_protocol,
    constant_tree,
    good_histories,
    inequality_protocol,
    materialize_rectangle,
)
from proofbench.randomcnf import (
    DistributionParams,
    expansion_report,
    heavy_sat_fraction,
    profile_distinctness,
    sample_f,
    sample_tensor,
    unsat_rate,
)
from proofbench.semantics import SemanticLine

SIDES_13 = VariablePartition.alternating(26)  # one variable past the side cap
FORMULA_26 = CnfFormula(26, (Clause.from_signed([1, 2]),))
# 21 variables on one side: one past the exact-enumeration caps of 20
WIDE_Y = VariablePartition((1,), tuple(range(2, 23)))
WIDE_X = VariablePartition(tuple(range(1, 22)), (22,))
FORMULA_22 = CnfFormula(22, (Clause.from_signed([1, 2, 22]),))


def csp_graph(k):
    """CSP variables 1..k; constraint 1 reads variable 1, constraint 2
    variables 1 and k.
    """
    return ConstraintGraph(tuple(range(1, k + 1)), ((1,), (1, k)))


def _expansion_past_budget():
    # 6400 clauses have 20,476,800 pairs, past the exhaustive budget
    f = sample_f(DistributionParams(6400, 30, 3, 0))
    expansion_report(f, Fraction(1, 2), 2, allow_beyond_regime=True)


OVER_CAP = {
    "clause_protocol": lambda: clause_protocol(Clause.from_signed([1, 2]), SIDES_13),
    "inequality_protocol": lambda: inequality_protocol(
        LinearInequality((1,) * 26, 1), SIDES_13
    ),
    "good_histories": lambda: good_histories(
        constant_tree(SIDES_13, 0), SemanticLine(13, 13, (((1 << (1 << 13)) - 1, 0),))
    ),
    "materialize_rectangle": lambda: materialize_rectangle(
        constant_tree(SIDES_13, 0), ""
    ),
    "compile_cc_refutation": lambda: compile_cc_refutation((), FORMULA_26, SIDES_13),
    "unsat_rate": lambda: unsat_rate(
        DistributionParams(60, 25, 3, 1), tensor=False, samples=1
    ),
    "unsat_rate-tensor": lambda: unsat_rate(
        DistributionParams(30, 13, 1, 1), tensor=True, samples=1
    ),
    "csp_sat_eval": lambda: csp_sat_eval(
        csp_graph(21), CspSatInstance(csp_graph(21), 1 << 1 | 1 << 4)
    ),
    "rejecting_images_distinct": lambda: rejecting_images_distinct(
        build_constraint_graph(FORMULA_22, WIDE_Y), FORMULA_22, WIDE_Y
    ),
    "profile_distinctness": lambda: profile_distinctness(CnfFormula(21, ())),
    "heavy_sat_fraction": lambda: heavy_sat_fraction(
        FORMULA_22, WIDE_X, "x", Fraction(1, 4)
    ),
    "expansion_report": _expansion_past_budget,
}


@pytest.mark.parametrize("run", OVER_CAP.values(), ids=OVER_CAP.keys())
def test_over_cap_input_raises(run):
    with pytest.raises(CapExceededError):
        run()


# A valid input of exactly a cap's size gets a correct report, through the
# CLI where a stats command reaches the cap; each case in the order of its
# over-cap twin above.


def _stats(tmp_path, *argv):
    report = tmp_path / "stats.json"
    assert main(["stats", *argv, "--report", str(report)]) == 0
    return json.loads(report.read_text())["results"]


@pytest.mark.parametrize(
    "dist, n, d, m, rate",
    [("f", 24, 3, 60, "0"), ("f", 24, 3, 200, "1"), ("tensor", 12, 1, 30, "1/2")],
    ids=["f-sat", "f-unsat", "tensor"],
)
def test_unsat_rate_at_the_solver_cap(tmp_path, dist, n, d, m, rate):
    results = _stats(
        tmp_path, "--stat", "unsat-rate", "--dist", dist, "--n", str(n),
        "--d", str(d), "--m", str(m), "--samples", "2", "--seed", "1",
    )
    assert results["rate"] == rate
    for row in results["samples"]:
        params = DistributionParams(m, n, d, row["seed"])
        f = sample_tensor(params)[0] if dist == "tensor" else sample_f(params)
        assert f.n == 24
        if row["unsat"]:
            assert resolution_problems(resolution_refutation_from_dpll(f)) == []
        else:
            model = brute_force_sat(f)
            assert all(eval_clause(c, model) for c in f.clauses)


def test_csp_sat_eval_at_the_eval_cap():
    g = csp_graph(20)
    # constraint 1 accepts x1 = 1 (bit 1), constraint 2 (x1, x20) = (1, 0)
    # (bit 2 + 2): x1 = 1, the rest 0, hits both blocks
    assert csp_sat_eval(g, CspSatInstance(g, 1 << 1 | 1 << 4))
    assert not csp_sat_eval(g, CspSatInstance(g, 1 << 4))


def test_rejecting_images_at_the_eval_cap():
    # 20 Bob variables; the clause reads only y2 and y21, so y = 0 and
    # y = 2, which differ only in y20, have one image
    f = CnfFormula(21, (Clause.from_signed([1, 2, 21]),))
    part = VariablePartition((1,), tuple(range(2, 22)))
    graph = build_constraint_graph(f, part)
    assert not rejecting_images_distinct(graph, f, part)
    images = [rejecting_instance(graph, f, part, part.y_assignment(y)) for y in (0, 2)]
    assert images[0] == images[1]


def test_exact_profiles_at_the_exact_cap(tmp_path):
    # no clauses: every one of the 2^20 assignments has the empty profile
    cnf = tmp_path / "empty.cnf"
    cnf.write_text("p cnf 20 0\n")
    results = _stats(
        tmp_path, "--stat", "profiles", "--cnf", str(cnf), "--n", "20", "--d", "3",
        "--m", "1",
    )
    assert (results["distinct"], results["rows_checked"]) == (False, 1 << 20)
    assert (results["collisions"], results["witness"]) == ((1 << 20) - 1, [0, 1])


def test_exact_heavy_sat_at_the_exact_cap(tmp_path):
    # 20 Alice variables; only clause 1 is heavy, and 1 in 8 of the side's
    # points falsifies it
    cnf = tmp_path / "heavy.cnf"
    cnf.write_text("p cnf 21 2\n1 2 3 0\n-4 5 21 0\n")
    xs = ",".join(str(v) for v in range(1, 21))
    results = _stats(
        tmp_path, "--stat", "heavy-sat", "--cnf", str(cnf), "--n", "21", "--d", "3",
        "--m", "2", "--epsilon", "1/4", "--partition", f"x:{xs}", "y:21",
    )
    assert (results["heavy_count"], results["fraction"]) == (1, "7/8")


def _is_knob(name: str) -> bool:
    return (
        name == "cap"
        or name.endswith("_cap")
        or name in ("exact_up_to", "exact_budget", "balance_slack")
    )


def _public_callables():
    for info in pkgutil.iter_modules(proofbench.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"proofbench.{info.name}")
        for name, obj in vars(module).items():
            owned = getattr(obj, "__module__", None) == module.__name__
            if name.startswith("_") or not owned:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_function_takes_a_cap_parameter():
    walked = dict(_public_callables())
    assert "proofbench.protocol.inequality_protocol" in walked
    assert "proofbench.semantics.SemanticLine.from_inequality" in walked
    knobs = [
        f"{where}({param})"
        for where, fn in walked.items()
        for param in inspect.signature(fn).parameters
        if _is_knob(param)
    ]
    assert knobs == []
