"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps library
functions by module and name, as listed in ``perfbench/tracing.py``.  A
function renamed or deleted in ``weylpair`` would break only that run, so
every listed target must resolve in the package under ``src/``."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_resolves():
    tracing = _tracing()
    src = os.path.join(ROOT, "src", "weylpair")
    for modname, attr, _ in tracing._TARGETS:
        mod = importlib.import_module(modname)
        if modname.startswith("weylpair"):
            assert os.path.dirname(os.path.abspath(mod.__file__)) == src
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), (modname, attr)
        else:
            assert callable(getattr(mod, attr, None)), (modname, attr)
    ser = importlib.import_module(tracing._SERIALIZE)
    names = [n for n, fn in vars(ser).items() if callable(fn)]
    assert "document_to_json" in names
    assert any(n.endswith("_from_json") for n in names)
    assert callable(importlib.import_module("weylpair.cli").main)
