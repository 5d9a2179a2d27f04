import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


# The tracer skips names the program no longer defines, so a deleted or
# renamed function would silently read 0 in its layer span.
@pytest.mark.parametrize("module, attr", [s[:2] for s in tracing.SPANS])
def test_every_traced_span_resolves(module, attr):
    _, _, original = tracing._resolve(module, attr)
    assert callable(original), f"{module}.{attr} is gone"
