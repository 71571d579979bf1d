"""Every function the benchmark tracer wraps must exist in the package.

``perfbench/tracer.py:TRACED`` names functions by layer (module); a name
removed or renamed in ``holerates`` would otherwise surface only when a
traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("layer, names", sorted(_traced().items()))
def test_traced_names_resolve(layer, names):
    module = importlib.import_module(f"holerates.{layer}")
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert not missing, f"holerates.{layer} lacks {missing}"
