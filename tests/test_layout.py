"""Module layout: one declaration per public name, imports only downward,
and no runtime dependency beyond the standard library and mpmath."""

import ast
import sys
from pathlib import Path

import jensenpoly
from jensenpoly import asymptotics, jensen, sequences, zeta_core

LAYERS = (zeta_core, asymptotics, sequences, jensen)

# Each module may import only the modules before it; the package itself
# imports the four layers, and only the CLI imports the package.
ORDER = ("zeta_core", "asymptotics", "sequences", "jensen", "__init__", "cli")


def test_package_exports_every_layer_name():
    names = [name for module in LAYERS for name in module.__all__]
    assert len(names) == len(set(names)), "a public name is declared twice"
    assert sorted(jensenpoly.__all__) == sorted(names + ["__version__"])
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(jensenpoly, name) is getattr(module, name), name


def _relative_imports(path: Path):
    """Target module of each relative import in ``path``, function bodies included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:  # ``from . import x``: a submodule, or a name of the package
                for alias in node.names:
                    yield alias.name if alias.name in ORDER else "__init__"


def test_layers_import_only_earlier_layers():
    src = Path(jensenpoly.__file__).parent
    assert {path.stem for path in src.glob("*.py")} == set(ORDER)
    for rank, name in enumerate(ORDER):
        for target in _relative_imports(src / f"{name}.py"):
            assert target in ORDER[:rank], f"{name} imports {target}"


def test_runtime_imports_only_stdlib_and_mpmath():
    allowed = set(sys.stdlib_module_names) | {"mpmath", "jensenpoly"}
    for path in Path(jensenpoly.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                assert top in allowed, f"{path.name}:{node.lineno} imports {top}"
