"""The benchmark tracer's function table against the library.

``perfbench/tracing.py`` wraps library functions by module and attribute
name. The suite never installs the tracer, so a rename in ``proofbench``
would otherwise surface only when ``perfbench/run.py --trace 1`` fails. The
tracer is read with ``runpy`` (no bytecode written) and never installed.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TABLE = runpy.run_path(str(TRACING), run_name="perfbench_tracing")
ENTRIES = TABLE["TIMED"] + TABLE["COUNTED"]


@pytest.mark.parametrize("name, module, path", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_entry_resolves(name, module, path):
    owner = importlib.import_module(f"proofbench.{module}")
    if "." in path:
        # install() rebinds the raw class attribute, so it must be defined
        # on the class itself
        cls_name, attr = path.split(".")
        cls = getattr(owner, cls_name)
        assert isinstance(cls, type), name
        assert attr in vars(cls), name
    else:
        assert callable(getattr(owner, path, None)), name
