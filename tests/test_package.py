import importlib

import flatpoly

MODULES = ("errors", "flat", "polybasis", "costcond", "polyconstraint",
           "solver", "pmsm_sim")


def test_package_exports_the_module_lists():
    modules = [importlib.import_module(f"flatpoly.{name}") for name in MODULES]
    union = {"__version__"}.union(*(module.__all__ for module in modules))
    assert len(flatpoly.__all__) == len(set(flatpoly.__all__))
    assert set(flatpoly.__all__) == union
    for module in modules:
        for name in module.__all__:
            assert getattr(flatpoly, name) is getattr(module, name), name
