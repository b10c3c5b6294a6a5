"""The package namespace: each public name is declared once, in its module's ``__all__``."""

import leggettlab
from leggettlab import domain, hidden_variables, inequalities, montecarlo, quantum, scan

MODULES = (domain, quantum, inequalities, hidden_variables, montecarlo, scan)


def test_package_exports_every_module_list_once():
    assert leggettlab.__all__ == ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert len(set(leggettlab.__all__)) == len(leggettlab.__all__) == 54
    for module in MODULES:
        for name in module.__all__:
            assert getattr(leggettlab, name) is getattr(module, name), name
    namespace = {}
    exec("from leggettlab import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(leggettlab, name) for name in leggettlab.__all__}
