"""The public namespace of `biposet`: the same 54 names, bound on first use."""

import importlib

import pytest

import biposet

# each public name and the submodule that defines it
DEFINED_IN = {
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

ALL = [
    "AdjointReport", "AxiomVerdict", "BiPoset", "CLAIM_DESCRIPTIONS",
    "CLAIM_IDS", "Check", "Diamond", "ExtremalReport", "Finding",
    "GOLDEN_COUNTS", "GaloisPair", "GroundSet", "Mapping", "Rel", "UsageError", "biposet",
    "chain", "check_adjoint_properties", "check_axioms", "check_classical_por",
    "compose_galois", "diamond_leq", "divisibility_biposet", "dual", "dual_biposet",
    "duality_sample", "emit_dot", "enumerate_biposets", "example_floor", "example_identity",
    "example_singleton", "extremal_report", "find_adjoint", "find_isomorphism",
    "intersect_many", "is_galois", "is_isomorphism", "is_isotone", "main",
    "naive_check_axioms", "naive_check_classical", "parse_mapping", "parse_pair",
    "parse_structure", "powerset_biposet", "replay_finding", "self_dual_witness",
    "serialize_mapping", "serialize_pair", "serialize_structure", "sided_extreme",
    "validated", "validity_kernel", "verify_claim",
]


def test_all_is_the_frozen_list_of_54_names():
    assert len(ALL) == 54
    assert biposet.__all__ == ALL
    assert sorted(n for names in DEFINED_IN.values() for n in names) == ALL


@pytest.mark.parametrize("module", sorted(DEFINED_IN))
def test_each_name_is_the_object_its_submodule_defines(module):
    owner = importlib.import_module(f"biposet.{module}")
    for name in DEFINED_IN[module]:
        assert getattr(biposet, name) is getattr(owner, name), name


def test_star_import_binds_every_name():
    ns = {}
    exec("from biposet import *", ns)
    assert set(ns) - {"__builtins__"} == set(ALL)


def test_dir_covers_every_name():
    assert set(ALL) <= set(dir(biposet))


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="nope"):
        biposet.nope


def test_submodules_still_import_from_the_package():
    from biposet import oracle

    assert oracle.verify_claim is biposet.verify_claim
    assert biposet.galois.find_adjoint is biposet.find_adjoint
    assert biposet.__version__ == "0.1.0"
