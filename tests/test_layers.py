"""The direction of the package's imports: the claims layer (oracle.py and
oracle_galois.py) sits on top of the enumeration, and nothing below reaches
back into it; nothing outside the claims layer reaches into its private
names or those of the Galois module, and only the claims layer and the
command line (cli.py) into those of the enumeration."""

import ast
from pathlib import Path

import biposet

PKG = Path(biposet.__file__).parent
CLAIMS_LAYER = {"oracle.py", "oracle_galois.py"}


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


def test_nothing_outside_the_claims_layer_imports_its_private_names():
    # the CLI does import from the oracle, and oracle_galois its private
    # helpers, so the scan reads real importers
    assert imports_from(PKG / "cli.py", "oracle")
    assert set(private_imports("oracle")) == {"oracle_galois.py"}
    assert set(private_imports("oracle_galois")) <= CLAIMS_LAYER


def test_no_module_imports_a_private_name_from_galois():
    # the claims do import from galois, so the scan reads a real importer
    assert imports_from(PKG / "oracle_galois.py", "galois")
    assert private_imports("galois") == {}


def test_only_the_claims_layer_and_the_cli_import_private_names_from_the_enumeration():
    # the bit-plane layout (_offcells, _plane_kernel, _rel_from_offcode) stays
    # inside enumeration.py; the claims read its caches, the CLI its ground set
    assert set(private_imports("enumeration")) == CLAIMS_LAYER | {"cli.py"}


def test_the_enumeration_imports_nothing_from_the_oracle():
    # nor from the rest of the claims layer
    for target in ("oracle", "oracle_galois"):
        assert imports_from(PKG / "enumeration.py", target) == []
