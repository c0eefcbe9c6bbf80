"""The direction of the package's imports: the claims (oracle.py) sit on top
of the enumeration, and nothing below reaches back into them."""

import ast
from pathlib import Path

import biposet

PKG = Path(biposet.__file__).parent


def oracle_imports(path):
    """The names a module imports from the oracle, anywhere in its body:
    `from .oracle import x` gives x, `from . import oracle` and
    `import biposet.oracle` give "oracle"."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in (".oracle", "biposet.oracle"):
                names += [alias.name for alias in node.names]
            elif module in (".", "biposet"):
                names += [alias.name for alias in node.names if alias.name == "oracle"]
        elif isinstance(node, ast.Import):
            names += ["oracle" for alias in node.names if alias.name == "biposet.oracle"]
    return names


def test_no_module_imports_a_private_name_from_the_oracle():
    private = {path.name: [name for name in oracle_imports(path) if name.startswith("_")]
               for path in PKG.glob("*.py")}
    assert "io_cli.py" in private
    assert {name: found for name, found in private.items() if found} == {}


def test_the_enumeration_and_the_batch_code_import_nothing_from_the_oracle():
    for name in ("enumeration.py", "batch.py"):
        assert oracle_imports(PKG / name) == [], name
