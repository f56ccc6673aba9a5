import ast
import re
from pathlib import Path

import pytest

import partialid


def test_every_export_resolves():
    # deleting a function must not leave its name behind in __all__
    for name in partialid.__all__:
        getattr(partialid, name)


def test_package_version_is_the_projects():
    # summary.json reports partialid.__version__; pyproject.toml states it too
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    stated = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project, re.M)
    assert stated == [partialid.__version__]


# --- modules do not reach into each other's private names ----------------------

PACKAGE = Path(partialid.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node):
    """``a.b.c`` for a chain of names and attributes, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def private_reaches(source):
    """``(line, name)`` of each private name of another package module that
    ``source``, a module of the package, imports or reads as an attribute."""
    tree = ast.parse(source)
    modules = {"partialid"} | {f"partialid.{m}" for m in MODULES}  # names bound to modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules and alias.asname:
                    modules.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            package = node.level == 1 and not node.module or node.module == "partialid"
            inside = node.level == 1 or (node.module or "").split(".")[0] == "partialid"
            for alias in node.names:
                if package and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                elif inside and _private(alias.name):
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and _dotted(node.value) in modules:
            found.append((node.lineno, f"{_dotted(node.value)}.{node.attr}"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reaches_into_another_modules_private_names(path):
    assert private_reaches(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("line", [
    "from .rng import _SeedRow",
    "from partialid.rng import _SeedRow",
    "from . import _hidden",
    "from . import scenarios as sc\nsc._pool",
    "from . import rng\nx = rng._SeedRow(None)",
    "import partialid.rng as r\nr._mix",
    "import partialid.rng\npartialid.rng._mix",
])
def test_the_private_name_check_sees_each_form(line):
    assert private_reaches(line)


def test_the_private_name_check_allows_public_and_dunder_names():
    assert private_reaches("from . import __version__\nfrom .rng import seed_words\n"
                           "from . import rng\nrng.SHORT_ROW\nself._own\n") == []


# --- caller-given numbers are converted by one rule ------------------------------

def guarded_conversions(source):
    """Lines where ``source`` converts with an explicit ``dtype`` inside a
    ``try`` that names ValueError or TypeError in an except clause: a number
    rule of its own beside ``partialid.errors.as_reals``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Try):
            continue
        caught = set()
        for handler in node.handlers:
            kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught.update((_dotted(kind) or "").rpartition(".")[2] for kind in kinds if kind)
        if caught & {"ValueError", "TypeError"}:
            found += [sub.lineno for stmt in node.body for sub in ast.walk(stmt)
                      if isinstance(sub, ast.keyword) and sub.arg == "dtype"]
    return found


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "errors.py"}),
                         ids=lambda p: p.name)
def test_numbers_are_converted_only_by_as_reals(path):
    assert guarded_conversions(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("handler", [
    "except (TypeError, ValueError) as exc:", "except ValueError:", "except TypeError:",
    "except (KeyError, builtins.ValueError):",
])
@pytest.mark.parametrize("call", ["np.array(v, dtype=float)", "np.asarray(v, dtype=dtype)",
                                  "v.astype(dtype=np.float64)"])
def test_the_conversion_check_sees_each_form(handler, call):
    assert guarded_conversions(f"try:\n    x = f({call})\n{handler}\n    pass\n")


@pytest.mark.parametrize("source", [
    "x = np.asarray(v, dtype=float)",
    "try:\n    x = np.asarray(v)\nexcept ValueError:\n    x = None",
    "try:\n    x = np.asarray(v, dtype=float)\nexcept KeyError:\n    pass",
    "try:\n    x = int(v)\nexcept ValueError:\n    x = np.zeros(1, dtype=float)",
    # a share's error travels back to the caller as a value
    "try:\n    x = np.arange(3, dtype=np.uint64)\nexcept Exception as exc:\n    x = exc",
])
def test_the_conversion_check_allows_unguarded_and_dtype_free_conversions(source):
    assert guarded_conversions(source) == []
