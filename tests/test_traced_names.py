"""Every callable the benchmark's tracer wraps by name must exist in fqav,
or ``perfbench/run.py --trace 1`` fails at install time.  The tracer module
is loaded from its file and only read."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.TRACED


PACKAGE, TRACED = traced_names()


@pytest.mark.parametrize("module, qualname", TRACED,
                         ids=[f"{m}.{q}" for m, q in TRACED])
def test_traced_name_resolves(module, qualname):
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    if "." in qualname:
        # a method is replaced on its class, so it must be defined there
        cls_name, attr = qualname.split(".")
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, qualname))
