"""The benchmark's per-layer spans: every entry point that
perfbench/layertrace.py wraps must exist in the package, so a rename or a
removal inside greenkernel cannot silently break ``run.py --trace``."""

import importlib
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace() -> dict:
    """The module's namespace, run from its source: no bytecode is written
    next to it."""
    namespace = {"__name__": "layertrace_under_test"}
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), namespace)
    return namespace


ENTRY_POINTS = _load_layertrace()["ENTRY_POINTS"]
TARGETS = [(span, mod, path) for span, targets in ENTRY_POINTS.items() for mod, path in targets]


def _resolve(mod: str, path: str):
    """What Tracer.install wraps: a module function, or the raw function or
    classmethod in the class __dict__; None when it is missing."""
    owner = importlib.import_module("greenkernel." + mod)
    cls_name, _, attr = path.rpartition(".")
    if cls_name:
        cls = getattr(owner, cls_name, None)
        raw = vars(cls).get(attr) if inspect.isclass(cls) else None
        return raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(owner, attr, None)


@pytest.mark.parametrize("span,mod,path", TARGETS, ids=["%s:%s" % (m, p) for _, m, p in TARGETS])
def test_layertrace_entry_point_resolves(span, mod, path):
    fn = _resolve(mod, path)
    assert inspect.isfunction(fn), "%s wraps greenkernel.%s.%s, which is gone" % (span, mod, path)
    assert fn.__module__ == "greenkernel." + mod

