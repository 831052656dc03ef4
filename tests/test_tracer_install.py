"""The benchmark's tracer wraps each callable it names exactly once, on its
own owner, and ``remove`` puts every original back.  The tracer module is
loaded from its file, as ``test_traced_names`` loads it."""

import fractions
import importlib
import importlib.util
import pathlib
import sys

from fqav import action
from fqav.action import LatticeElement
from fqav.variety import AbelianVarietyModel, EllipticFactor

from conftest import automorphism as automorphism_of

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fqav_modules(package):
    return [m for name, m in sorted(sys.modules.items())
            if name == package or name.startswith(package + ".")]


def resolve(package, module, qualname):
    """(owner, attribute) of a traced name: a method's class, or the module
    that defines a function."""
    owner = importlib.import_module(f"{package}.{module}")
    if "." in qualname:
        cls_name, qualname = qualname.split(".")
        owner = getattr(owner, cls_name)
    return owner, qualname


def bindings(package, traced):
    """Every namespace the tracer may patch, as {(owner, attribute): value}:
    the fqav modules, the traced classes and ``Fraction``."""
    owners = fqav_modules(package) + [resolve(package, m, q)[0] for m, q in traced
                                      if "." in q] + [fractions.Fraction]
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


def test_install_wraps_each_name_once_and_remove_restores():
    tracer_module = load_tracer()
    package, traced = tracer_module.PACKAGE, tracer_module.TRACED
    for module, _ in traced:
        importlib.import_module(f"{package}.{module}")
    before = bindings(package, traced)
    modules = fqav_modules(package)
    originals = {}
    for module, qualname in traced:
        owner, attr = resolve(package, module, qualname)
        originals[module, qualname] = vars(owner)[attr]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        patched = tracer.patched()
        assert len(patched) == len(set(patched))
        for (module, qualname), original in originals.items():
            owner, attr = resolve(package, module, qualname)
            # one wrapper around the original, not a wrapper of a wrapper
            assert vars(owner)[attr].__wrapped__ is original, qualname
            mine = [(o, a) for o, a in patched
                    if getattr(vars(o)[a], "__wrapped__", None) is original]
            if "." in qualname:
                assert mine == [(owner, attr)], qualname
            else:
                # a function is patched in each fqav namespace binding it
                assert set(mine) == {(o, a) for (o, a), v in before.items()
                                     if v is original and o in modules}, qualname
        # the two element classes' products are traced apart
        lattice = vars(action.LatticeElement)["compose"]
        automorphism = vars(action.AffineAutomorphism)["compose"]
        assert lattice is not automorphism
        assert lattice.__wrapped__ is not automorphism.__wrapped__
        name = {resolve(package, m, q): f"{m}.{q}" for m, q in traced}
        rot = automorphism_of(AbelianVarietyModel.of(EllipticFactor("zeta4")), [[(0, 1)]])
        start = len(tracer.span_name)
        rot.compose(rot)
        LatticeElement(rot.matrix, rot.translation).compose(rot)
        spanned = [tracer.names[i] for i in tracer.span_name[start:]]
        assert [n for n in spanned if n.endswith(".compose")] == [
            name[action.AffineAutomorphism, "compose"], name[action.LatticeElement, "compose"]]
    finally:
        tracer.remove()
    after = bindings(package, traced)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
