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


def test_traced_oracle_replay_survives_deleted_names(capsys):
    # SetEngine.adjoin_ids is gone: the patch table skips it, its counter
    # reads 0, and the replay still records the nodes the oracle interns
    import adjhier.cli as cli
    assert tracing._resolve("adjhier.hfs", "SetEngine.adjoin_ids")[2] is None
    tracer = tracing.Tracer()
    with tracing.Patched(tracer):
        code = cli.main(["oracle-verify", "--variant", "plain", "--n", "3"])
    assert code == 0 and capsys.readouterr().out
    assert tracer.counters["hfs.nodes_interned"] > 0
    assert tracer.counters["hfs.adjoin_calls"] == 0
