"""The direction of the package's imports: the claims (oracle.py) sit on top
of the enumeration, and nothing below reaches back into them; no module
reaches into the private names of the oracle or of the Galois module, and
only the oracle and the CLI into those of the enumeration."""

import ast
from pathlib import Path

import biposet

PKG = Path(biposet.__file__).parent


def imports_from(path, target):
    """The names a module imports from the package module target, anywhere
    in its body: `from .oracle import x` gives x, `from . import oracle` and
    `import biposet.oracle` give "oracle" (target "oracle")."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in (f".{target}", f"biposet.{target}"):
                names += [alias.name for alias in node.names]
            elif module in (".", "biposet"):
                names += [alias.name for alias in node.names if alias.name == target]
        elif isinstance(node, ast.Import):
            names += [target for alias in node.names if alias.name == f"biposet.{target}"]
    return names


def private_imports(target):
    """{module file: the private names it imports from target} for the
    modules that import any."""
    found = {path.name: [name for name in imports_from(path, target) if name.startswith("_")]
             for path in PKG.glob("*.py")}
    return {name: names for name, names in found.items() if names}


def test_no_module_imports_a_private_name_from_the_oracle():
    # io_cli does import from the oracle, so the scan reads a real importer
    assert imports_from(PKG / "io_cli.py", "oracle")
    assert private_imports("oracle") == {}


def test_no_module_imports_a_private_name_from_galois():
    # the oracle does import from galois, so the scan reads a real importer
    assert imports_from(PKG / "oracle.py", "galois")
    assert private_imports("galois") == {}


def test_only_the_oracle_and_the_cli_import_private_names_from_the_enumeration():
    # the bit-plane layout (_offcells, _plane_kernel, _rel_from_offcode) stays
    # inside enumeration.py; the claims read its caches, the CLI its ground set
    assert set(private_imports("enumeration")) == {"oracle.py", "io_cli.py"}


def test_the_enumeration_imports_nothing_from_the_oracle():
    assert imports_from(PKG / "enumeration.py", "oracle") == []
