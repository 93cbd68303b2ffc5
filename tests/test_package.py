import ast
import inspect
import subprocess
import sys
from pathlib import Path

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


def test_runtime_imports_only_numpy_and_the_standard_library():
    # numpy is the one runtime dependency: every import of every module, at any depth, is of the
    # standard library, numpy or the package itself (a relative import)
    allowed = set(sys.stdlib_module_names) | {"numpy", "emlink"}
    paths = sorted(Path(emlink.__file__).parent.glob("*.py"))
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed]
    assert len(paths) > 1 and outside == []


FAILING_PROPERTY_AND_PASSING_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_leaves_the_session_running(tmp_path):
    # with the suite's warning filters, a failing hypothesis property is one
    # failed test: the report it makes must not end the session in INTERNALERROR
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY_AND_PASSING_TEST)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), "--rootdir", str(tmp_path),
         str(tmp_path / "test_pair.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
