import inspect

import emlink
from emlink import capacity, channel, config, errors, geometry, greens, modes, specfun

MODULES = (capacity, channel, config, geometry, greens, modes, specfun)


def test_package_exports_exactly_the_module_names():
    # each public name is declared once, in its module's __all__ (errors
    # declares none: its names are its two exception types), and the package
    # re-exports exactly those
    declared = set().union(*(module.__all__ for module in MODULES))
    declared |= {name for name in vars(errors) if not name.startswith("_")}
    exported = {name for name, obj in vars(emlink).items() if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == declared
    assert sum(len(module.__all__) for module in MODULES) == len(declared) - 2 == 40
