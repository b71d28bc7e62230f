"""The package's shape: what README shows runs, and every module under
src/sectional/ belongs to the library."""

import ast
import os
import re
import subprocess
import sys

import sectional
from sectional.rings import Ring

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def test_readme_python_blocks_run():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        blocks = re.findall(r"^```python\n(.*?)^```", f.read(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_module_is_imported_by_the_package():
    """A module that only the tests import does not belong in src/: each one is
    imported by sectional/__init__, except the console script's entry point."""
    package = os.path.dirname(sectional.__file__)
    with open(os.path.join(package, "__init__.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as f:
        (entry,) = re.findall(r'^sectional = "sectional\.(\w+):', f.read(), re.M)
    modules = {name[:-3] for name in os.listdir(package) if name.endswith(".py")}
    assert modules - {"__init__"} == imported | {entry}


def _absolute_imports():
    """(file name, the top-level modules it imports) per module under src/sectional/."""
    package = os.path.dirname(sectional.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 0}
        yield name, imported


def test_no_module_draws_at_random():
    """Every verdict is decided by enumeration: no module under src/sectional/
    imports random, and none of its rings defines a sampler."""
    for name, imported in _absolute_imports():
        assert "random" not in imported, name

    def family(cls):
        return [cls, *(c for sub in cls.__subclasses__() for c in family(sub))]

    assert [cls.__name__ for cls in family(Ring)
            if cls.__module__.startswith("sectional.") and "sample" in vars(cls)] == []


def test_records_are_plain_classes():
    """Importing the package generates no code: no module under src/sectional/
    imports dataclasses, whose decorator compiles each class's methods."""
    for name, imported in _absolute_imports():
        assert "dataclasses" not in imported, name


def test_a_fresh_import_loads_no_code_generation():
    """`import sectional.cli` in a fresh interpreter (no site packages, the
    package first on the path) leaves neither dataclasses nor inspect, which
    dataclasses pulls in with ast, dis and tokenize, in sys.modules."""
    code = "import sys, sectional.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sectional.__file__))}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"
