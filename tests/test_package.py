import ast
import inspect
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from output_diff import SRC, compare, gaps
from size_report import module_sizes, size_report

import emlink
from emlink import capacity, channel, config, errors, geometry, greens, modes, specfun

MODULES = (capacity, channel, config, geometry, greens, modes, specfun)
ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_exactly_the_module_names():
    # each public name is declared once, in its module's __all__ (errors
    # declares none: its names are its two exception types), and the package
    # re-exports exactly those
    declared = set().union(*(module.__all__ for module in MODULES))
    declared |= {name for name in vars(errors) if not name.startswith("_")}
    assert _exported_names() == declared
    assert sum(len(module.__all__) for module in MODULES) == len(declared) - 2 == 40


def _exported_names() -> set[str]:
    """The names `emlink` exports: its modules' `__all__` and the two exception types."""
    return {name for name, obj in vars(emlink).items() if not name.startswith("_") and not inspect.ismodule(obj)}


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


def _defined_names(statement: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function's or class's, or an assignment's plain targets."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _module_aliases(tree: ast.Module) -> set[str]:
    """The names a module binds to the modules it imports: `import a as b`, or `from . import b`."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            aliases |= {alias.asname or alias.name for alias in node.names}
    return aliases


def _read_names(statement: ast.stmt, modules: set[str]) -> set[str]:
    """The names a top-level statement reads: as plain names, or as attributes of the imported `modules`.

    An import statement reads nothing, so a helper that is imported but never
    called is not read.
    """
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return set()
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(node.attr)
    return names


def _unused_private_names(sources: dict[str, str]) -> list[str]:
    """Each private top-level name of the modules `sources` (file name: text) that no other top-level statement reads."""
    statements = []
    for where, text in sources.items():
        tree = ast.parse(text, filename=where)
        statements += [(where, statement, _module_aliases(tree)) for statement in tree.body]
    unused = []
    for where, statement, _ in statements:
        for name in _defined_names(statement):
            if name.startswith("_") and not name.startswith("__"):
                readers = ((other, modules) for _, other, modules in statements if other is not statement)
                if not any(name in _read_names(other, modules) for other, modules in readers):
                    unused.append(f"{where}: {name}")
    return unused


def test_no_private_name_is_unused():
    # every private top-level function, class or constant of the package is
    # read by some other top-level statement of the package: tests and the
    # benchmark do not count, so a helper that only they read is dead code
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(Path(emlink.__file__).parent.glob("*.py"))}
    assert len(sources) > 5 and _unused_private_names(sources) == []


def _exponential_readers(sources: dict[str, str]) -> set[str]:
    """The top-level statements of the modules `sources` (file name: text) that read numpy's exp, as "file: name"."""
    readers = set()
    for where, text in sources.items():
        tree = ast.parse(text, filename=where)
        numpy = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names if alias.name == "numpy"}
        exps = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "numpy" for alias in node.names if alias.name == "exp"}
        for statement in tree.body:
            for node in ast.walk(statement):
                attribute = (isinstance(node, ast.Attribute) and node.attr == "exp"
                             and isinstance(node.value, ast.Name) and node.value.id in numpy)
                if attribute or isinstance(node, ast.Name) and node.id in exps:
                    readers.add(f"{where}: {getattr(statement, 'name', statement.lineno)}")
    return readers


def test_exponentials_only_in_the_pointwise_sums():
    # the plane-wave factors of the fold are cosine and sine tables on every
    # axis; np.exp is left only to the pointwise Green's function and plane-wave sum
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(Path(emlink.__file__).parent.glob("*.py"))}
    assert _exponential_readers(sources) == {"greens.py: sgf_exact", "greens.py: _planewave_sum"}


@pytest.mark.parametrize(
    "text, readers",
    [
        ("import numpy as np\n\n\ndef f(x):\n    return np.exp(x)\n", {"a.py: f"}),
        ("import numpy\n\n\ndef f(x):\n    return numpy.exp(x)\n", {"a.py: f"}),
        ("from numpy import exp as e\n\n\ndef f(x):\n    return e(x)\n", {"a.py: f"}),
        ("import numpy as np\n\nE = np.exp\n", {"a.py: 3"}),
        ("import numpy as np\n\n\ndef f(x):\n    return np.cos(x) + x.exp\n", set()),
    ],
    ids=["alias", "module", "imported-name", "module-level", "other-calls"],
)
def test_exponential_guard(text, readers):
    assert _exponential_readers({"a.py": text}) == readers


# each module imports from the package only the modules before it
LAYERS = ("errors", "specfun", "geometry", "greens", "channel", "capacity", "modes", "config", "cli")


def _upward_imports(sources: dict[str, str]) -> list[str]:
    """Each import, at any depth, of a package module that does not come before the importing one in LAYERS.

    Sources map a module's file name to its text; `from . import a` imports
    emlink.a, and `from emlink import name` the whole package, which comes last.
    """
    upward = []
    for where, text in sources.items():
        rank = LAYERS.index(Path(where).stem)
        for node in ast.walk(ast.parse(text, filename=where)):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = "emlink." * (node.level > 0) + (node.module or "")
                targets = [module] if node.module else [module + alias.name for alias in node.names]
            else:
                continue
            for target in targets:
                package, _, path = target.partition(".")
                name = path.split(".")[0] or package
                if package == "emlink" and (name not in LAYERS or LAYERS.index(name) >= rank):
                    upward.append(f"{where}:{node.lineno} {name}")
    return upward


def test_modules_import_only_lower_layers():
    # errors, specfun, geometry, greens, channel, capacity, modes, config, cli:
    # the translator and its weights (greens) sit below the channel that folds them
    paths = sorted(Path(emlink.__file__).parent.glob("*.py"))
    assert {path.stem for path in paths} == {*LAYERS, "__init__"}
    sources = {path.name: path.read_text(encoding="utf-8") for path in paths if path.stem != "__init__"}
    assert _upward_imports(sources) == []


@pytest.mark.parametrize(
    "sources, upward",
    [
        ({"greens.py": "from .channel import _f\n"}, ["greens.py:1 channel"]),
        ({"channel.py": "from .greens import _f\n"}, []),
        ({"geometry.py": "import numpy as np\nfrom . import errors, modes\n"}, ["geometry.py:2 modes"]),
        ({"modes.py": "def f():\n    from .modes import g\n    return g\n"}, ["modes.py:2 modes"]),
        ({"specfun.py": "import emlink.cli\n"}, ["specfun.py:1 cli"]),
        ({"capacity.py": "from emlink import ModeSet\n"}, ["capacity.py:1 emlink"]),
    ],
    ids=["upward", "downward", "module-names", "itself-in-a-function", "absolute", "package"],
)
def test_layering_guard(sources, upward):
    assert _upward_imports(sources) == upward


DEAD = "def _dead(n):\n    return n\n"


@pytest.mark.parametrize(
    "sources, unused",
    [
        ({"a.py": "def _dead(n):\n    return _dead(n - 1) if n else 0\n"}, ["a.py: _dead"]),
        ({"a.py": "_UNUSED = 1\n"}, ["a.py: _UNUSED"]),
        ({"a.py": DEAD, "b.py": "from .a import _dead\n\n\ndef live():\n    return 1\n"}, ["a.py: _dead"]),
        ({"a.py": DEAD, "b.py": "def live(obj):\n    return obj._dead\n"}, ["a.py: _dead"]),
        ({"a.py": DEAD, "b.py": "from .a import _dead\n\n\ndef live():\n    return _dead(1)\n"}, []),
        ({"a.py": DEAD, "b.py": "from . import a\n\n\ndef live():\n    return a._dead(1)\n"}, []),
    ],
    ids=["self-recursive", "constant", "imported-never-called", "attribute-of-an-object", "called", "module-attribute"],
)
def test_unused_name_guard(sources, unused):
    # a private name counts as read only where a statement other than an
    # import and its own definition loads it, or reads it off an imported module
    assert _unused_private_names(sources) == unused


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


SIZED_MODULE = '''"""Module doc.

more."""

__all__ = ["f", "g"]

# a comment
def f():
    """One line."""
    return 1  # a trailing comment keeps its line


class C:
    """Doc
    two."""
    x = 1
'''


def test_size_report_counts(tmp_path):
    # non-blank lines; code lines, outside docstring spans and comment-only lines; the union of __all__
    (tmp_path / "a.py").write_text(SIZED_MODULE)
    (tmp_path / "b.py").write_text('__all__ = ["g", "h"]\n')
    assert size_report(tmp_path) == (12, 6, 3)
    assert size_report()[2] == len(set().union(*(module.__all__ for module in MODULES)))
    # each module's counts, which the totals sum
    assert module_sizes(tmp_path) == {"a.py": (11, 5, {"f", "g"}), "b.py": (1, 1, {"g", "h"})}
    assert sum(code for _, code, _ in module_sizes().values()) == size_report()[1]


def test_output_diff_of_a_tree_against_itself():
    # one child process per tree, all four commands on ci: every one of the 15 files identical
    report = compare(SRC, SRC, presets=("ci",))
    assert len(report) == 15
    assert set(report.values()) == {"identical"}


def test_output_diff_units():
    # beta as a fraction of beta_1, maps relative to their peak, other columns as absolute differences
    eigenvalues = "mode_index,beta_raw,beta_rel_db\n1,{},0\n2,1.0,{}\n"
    assert gaps("eigenvalues.csv", eigenvalues.format(4.0, -6.0), eigenvalues.format(4.0, -6.0)) == "identical"
    assert gaps("eigenvalues.csv", eigenvalues.format(4.0, "-inf"), eigenvalues.format(4.002, "-inf")) == (
        "beta_raw / beta_1 5.00e-04"
    )
    field = "x_lambda,y_lambda,magnitude_sys,phase_rad\n0,0,2.0,{}\n1,0,1.0,0\n"
    assert gaps("mode_field_01.csv", field.format(0.0), field.format(1e-3)) == "map moved by 1.00e-03 of its peak"
    assert gaps("sgf_error.csv", "a,b\n1,0.5\n", "a,b\n1,0.25\n") == "b 2.50e-01"
    assert gaps("modeset.json", '{"eigenvalues": [2.0, 1.0], "w": 1}', '{"eigenvalues": [2.0, 1.5], "w": 1}') == (
        "eigenvalues 2.50e-01"
    )


def _code_spans(markdown: str) -> list[str]:
    """The inline code spans of a markdown text, outside its fenced blocks."""
    return re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", markdown, flags=re.M | re.S))


def _library_rows(markdown: str) -> list[str]:
    """The module rows of README's library table."""
    section = markdown.split("\n## Library\n")[1].split("\n## ")[0]
    return [line for line in section.splitlines() if line.startswith("| `emlink.")]


def _contract_breaches(markdown: str, exported: set[str], hidden: set[str]) -> list[str]:
    """What keeps a README from being the package's contract.

    It must name every `exported` name in a code span, and no code span may
    name a private (`_`-prefixed, not dunder) or `hidden` name; each library
    row is at most 300 characters.
    """
    named = {token for span in _code_spans(markdown) for token in re.findall(r"(?<!\w)[^\W\d]\w*", span)}
    breaches = [f"unnamed: {name}" for name in sorted(exported - named)]
    breaches += [f"internal: {name}" for name in sorted(named) if name in hidden
                 or name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]
    breaches += [f"row of {len(row)} characters: {row[:24]}" for row in _library_rows(markdown) if len(row) > 300]
    return breaches


def test_readme_states_the_contract():
    # README gives what the package exports, in one short row per module; how
    # a module works is in its docstrings, so README names no top-level name
    # that the package does not export, and stays a short text
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paths = sorted(Path(emlink.__file__).parent.glob("*.py"))
    top_level = {name for path in paths for statement in ast.parse(path.read_text(encoding="utf-8")).body
                 for name in _defined_names(statement)}
    exported = _exported_names()
    assert _contract_breaches(readme, exported, top_level - exported) == []
    assert len(_library_rows(readme)) == len(paths) - 1  # every module but __init__
    assert len(readme.encode("utf-8")) <= 7796


def test_contract_guard():
    # a row may hold 300 characters, not 301; code spans in fenced blocks are not read
    rows = "".join(f"| `emlink.{name}` | {'x' * width} |\n" for name, width in (("b", 283), ("c", 284)))
    readme = (f"Run `f`.\n\n## Library\n\n| `emlink.a` | `g`, `_h`, `a.__all__`, `θ_e` |\n{rows}"
              f"\n## Next\n| `emlink.d` | {'x' * 300} |\n")
    assert _contract_breaches(readme, {"f", "g", "k"}, {"g"}) == [
        "unnamed: k", "internal: _h", "internal: g", "row of 301 characters: | `emlink.c` | xxxxxxxxx",
    ]
    fenced = "```python\nx = `_h`\n```\n\n## Library\n"
    assert _contract_breaches(fenced, set(), set()) == []


def test_readme_example_runs():
    # the one Python example of the contract runs as written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["result"].modes.normalized[0] == 1.0


def test_formats_lists_exactly_the_config_keys():
    # the first column of the key table in docs/formats.md names each ExperimentConfig field once
    text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    cells = [line.split("|")[1] for line in text.split("\n## Configuration\n")[1].split("\n## ")[0].splitlines()
             if line.startswith("| `")]
    keys = [key for cell in cells for key in re.findall(r"`(\w+)`", cell)]
    assert sorted(keys) == sorted(f.name for f in fields(config.ExperimentConfig))
