"""Every enumeration bound is a module constant, and each check raises
``CapExceededError`` on a real over-cap input at today's value.
"""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import proofbench
from proofbench.circuit import compile_cc_refutation
from proofbench.cnf import Clause, CnfFormula, VariablePartition
from proofbench.cspsat import build_constraint_graph, rejecting_images_distinct
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
    sample_f,
)
from proofbench.semantics import SemanticLine

SIDES_13 = VariablePartition.alternating(26)  # one variable past the side cap
FORMULA_26 = CnfFormula(26, (Clause.from_signed([1, 2]),))
# 21 variables on one side: one past the exact-enumeration caps of 20
WIDE_Y = VariablePartition((1,), tuple(range(2, 23)))
WIDE_X = VariablePartition(tuple(range(1, 22)), (22,))
FORMULA_22 = CnfFormula(22, (Clause.from_signed([1, 2, 22]),))


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
    "rejecting_images_distinct": lambda: rejecting_images_distinct(
        build_constraint_graph(FORMULA_22, WIDE_Y), FORMULA_22, WIDE_Y
    ),
    "heavy_sat_fraction": lambda: heavy_sat_fraction(
        FORMULA_22, WIDE_X, "x", Fraction(1, 4)
    ),
    "expansion_report": _expansion_past_budget,
}


@pytest.mark.parametrize("run", OVER_CAP.values(), ids=OVER_CAP.keys())
def test_over_cap_input_raises(run):
    with pytest.raises(CapExceededError):
        run()


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
