"""Finite binary posets: ordered relation pairs and their order theory.

Structures are pairs of relations on one ground set satisfying chain-form
reflexivity, anti-symmetry, and transitivity. The package covers axiom
checking with least witnesses, constructions, extremal elements,
morphisms, Galois connections, exhaustive small-model enumeration with a
claim registry, and a text/DOT/CLI boundary.

`import biposet` loads no submodule. Each public name below is imported
from its submodule the first time it is looked up (PEP 562) and then
cached in this namespace, so `biposet.check_axioms` loads core and axioms
only, the oracle only by a name that it defines, and argparse only with
`main`, the command line (cli.py). The package needs no
numpy: validity_kernel and duality_sample import it when called, from the
optional `numpy` extra.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "axioms": ("AxiomVerdict", "check_axioms", "check_classical_por", "validated"),
    "cli": ("main",),
    "constructions": ("divisibility_biposet", "dual", "dual_biposet", "intersect_many",
                      "powerset_biposet"),
    "core": ("BiPoset", "Check", "Diamond", "GroundSet", "Rel", "UsageError", "biposet",
             "chain", "diamond_leq"),
    "enumeration": ("GOLDEN_COUNTS", "duality_sample", "enumerate_biposets", "validity_kernel"),
    "extremal": ("ExtremalReport", "extremal_report", "sided_extreme"),
    "galois": ("AdjointReport", "GaloisPair", "check_adjoint_properties", "compose_galois",
               "example_floor", "example_identity", "example_singleton", "find_adjoint",
               "is_galois"),
    "io_cli": ("emit_dot", "parse_mapping", "parse_pair", "parse_structure",
               "serialize_mapping", "serialize_pair", "serialize_structure"),
    "morphisms": ("Mapping", "find_isomorphism", "is_isomorphism", "is_isotone",
                  "self_dual_witness"),
    "oracle": ("CLAIM_DESCRIPTIONS", "CLAIM_IDS", "Finding", "naive_check_axioms",
               "naive_check_classical", "replay_finding", "verify_claim"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
