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


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def imports_from(source, target):
    """The names a module (a path) or one of its nodes imports from the
    package module target, anywhere in its body: `from .oracle import x`
    gives x, `from . import oracle` and `import biposet.oracle` give
    "oracle" (target "oracle")."""
    names = []
    for node in ast.walk(parsed(source) if isinstance(source, Path) else source):
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
    # the bit-plane kernel and _rel_from_offcode stay inside enumeration.py;
    # the claims read its caches, the CLI its ground set
    assert set(private_imports("enumeration")) == CLAIMS_LAYER | {"cli.py"}


def test_the_enumeration_imports_nothing_from_the_oracle():
    # nor from the rest of the claims layer
    for target in ("oracle", "oracle_galois"):
        assert imports_from(PKG / "enumeration.py", target) == []


def test_only_duality_sample_loads_the_axiom_checker_into_the_enumeration():
    # the enumeration decides with core's signatures; duality_sample
    # re-verifies the first dual failure it finds and names its witness
    tree = parsed(PKG / "enumeration.py")
    importers = {getattr(node, "name", None): imports_from(node, "axioms") for node in tree.body}
    assert {name: names for name, names in importers.items() if names} == {
        "duality_sample": ["_verdict_failure", "check_axioms"]}


def references(name):
    """(module file, top-level definition) of each reference to name in the
    package, a call or not; None for module level."""
    found = set()
    for path in PKG.glob("*.py"):
        for top in parsed(path).body:
            for node in ast.walk(top):
                if name in (getattr(node, "id", None), getattr(node, "attr", None)):
                    found.add((path.name, getattr(top, "name", None)))
    return found


def test_only_the_numpy_batches_run_the_bit_plane_kernel():
    # the enumeration builds no planes of its own
    assert references("_plane_kernel") == {("enumeration.py", "validity_kernel"),
                                           ("enumeration.py", "duality_sample")}


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def import_time_loops(path):
    """Line numbers of the loops and comprehensions a module runs when it is
    imported: everything outside function and lambda bodies, whose
    decorators and defaults do run then."""
    found = []
    todo = [parsed(path)]
    while todo:
        node = todo.pop()
        if isinstance(node, LOOPS):
            found.append(node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            todo += [*getattr(node, "decorator_list", ()), *args.defaults,
                     *filter(None, args.kw_defaults)]
        else:
            todo += ast.iter_child_nodes(node)
    return sorted(found)


def test_the_axiom_checker_runs_no_loop_at_import():
    # every `import biposet.axioms` (each `check` call) would pay for a table
    # built at import: build it on first use instead. core.py does run one,
    # so the scan reads a real case
    assert import_time_loops(PKG / "core.py")
    assert import_time_loops(PKG / "axioms.py") == []
