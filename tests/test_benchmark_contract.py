"""The benchmark's traced runs wrap abcid functions by name; every name it
lists must still exist, or a traced run fails before its first operation."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("span, module, attr", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(span, module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(owner, cls_name)
        assert meth in vars(owner), f"{module}.{attr} is not defined on the class itself"
        attr = meth
    assert callable(getattr(owner, attr)), f"{module}.{attr}"
