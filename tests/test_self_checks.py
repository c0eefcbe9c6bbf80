"""The library's internal cross-checks: each RuntimeError that guards a fast
path against the slower one it must agree with, reached by patching one
side so that the two disagree."""

import pytest

from biposet import axioms, enumeration, morphisms, oracle_galois, powerset_biposet, verify_claim
from biposet.axioms import check_axioms
from biposet.core import Check
from biposet.morphisms import find_isomorphism


def test_orbit_walk_refuses_a_structure_list_not_closed_under_relabelling(
        monkeypatch, fresh_oracle_caches):
    # without structure 1 the swap of structure 2, which is structure 1, has no index
    real = enumeration._structures
    monkeypatch.setattr(enumeration, "_structures",
                        lambda n: real(n)[:1] + real(n)[2:] if n == 2 else real(n))
    with pytest.raises(RuntimeError, match="a relabelled structure is missing"):
        enumeration._orbits(2)


def test_galois_count_refuses_a_rival_the_adjoint_search_does_not_find(
        monkeypatch, fresh_oracle_caches):
    # every class pair's table lists each Galois pair twice, so the count
    # sees two adjoints of one map; find_adjoint finds none on valid structures
    real = oracle_galois._class_galois
    monkeypatch.setattr(oracle_galois, "_class_galois", lambda *classes: real(*classes) * 2)
    with pytest.raises(RuntimeError, match="reports a rival adjoint the adjoint search"):
        verify_claim("ADJOINT_UNIQUE", 2)


@pytest.mark.parametrize("ok,message", [
    (False, "kernel called a structure valid that is not"),
    (True, "kernel called a dual invalid that is not"),
])
def test_duality_sample_refuses_a_kernel_verdict_check_axioms_rejects(monkeypatch, ok, message):
    monkeypatch.setattr(axioms, "check_axioms", lambda d: Check(ok))
    with pytest.raises(RuntimeError, match=message):
        enumeration.duality_sample(3, 2000, seed=0)


def test_find_isomorphism_refuses_a_mapping_is_isomorphism_rejects(monkeypatch):
    bp = powerset_biposet(2)
    monkeypatch.setattr(morphisms, "is_isomorphism", lambda f, src, dst: Check(False))
    with pytest.raises(RuntimeError, match="edge search returned a non-isomorphism"):
        find_isomorphism(bp, bp)


def test_transitive_witness_scan_refuses_a_pair_that_holds(monkeypatch):
    # past 4 points check_axioms itself runs _transitive_pair and the witness scan
    d = powerset_biposet(3).d
    monkeypatch.setattr(axioms, "_transitive_pair", lambda *prep: (0, 0))
    with pytest.raises(RuntimeError, match="transitivity decision and witness scan disagree"):
        check_axioms(d)


def test_witness_searches_refuse_a_signature_failure_that_holds(monkeypatch):
    # on at most 4 points by the signatures: give the valid powerset's two
    # relations signatures that meet
    d = powerset_biposet(2).d
    monkeypatch.setattr(axioms, "_SIGNATURES", {d.r1.rows: (1, 1), d.r2.rows: (1, 1)})
    verdict = check_axioms(d)
    assert not verdict.ok
    with pytest.raises(RuntimeError, match="axiom decision and witness searches disagree"):
        verdict.transitive
