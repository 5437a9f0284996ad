"""Registry invariants, focus sequents, d-axiom licensing, the guard."""
from fractions import Fraction

import pytest

from symlog.domains import (
    DomainRecord, EmptyDomain, FocusedNonSingleton, InvariantViolation,
    Registry, standard_registry,
)
from symlog.dualities import (
    IDENTITY_INV, LiteralInvolution, PERP_INV, TOP_INV,
)
from symlog.formulas import (
    Eq, Member, Neq, Or, Outcome, Single, Var, DualMember,
)

half = Fraction(1, 2)
z = Var("z")


def test_standard_registry_contents(registry):
    assert set(registry.names()) == {"Ddown", "Dup", "Dplus", "Dminus", "D", "V"}
    assert registry.get("Ddown").is_singleton
    assert registry.get("Dplus").virtual_singleton
    assert not registry.get("D").virtual_singleton


def test_register_rejects_bad_probabilities():
    reg = Registry()
    with pytest.raises(InvariantViolation):
        reg.register_domain(DomainRecord(
            "bad", (Outcome("a", half), Outcome("b", Fraction(1, 3))),
            focused=True))


def test_register_rejects_focused_virtual_two_entries():
    reg = Registry()
    with pytest.raises(InvariantViolation):
        reg.register_domain(DomainRecord(
            "bad", (Outcome("a", half), Outcome("b", half)),
            focused=True, virtual_singleton=True, duality="d"))


def test_register_rejects_virtual_singleton_without_duality():
    """A virtual singleton needs its duality in collapse-demo mode too."""
    reg = Registry(collapse_demo=True)
    with pytest.raises(InvariantViolation):
        reg.register_domain(DomainRecord(
            "bad", (Outcome("a", half), Outcome("b", half)),
            focused=False, virtual_singleton=True))


def test_focus_sequents_two_entries(registry):
    derivable, axiom = registry.focus_sequents("D", z)
    t1, t2 = registry.get("D").entries
    disj = Or(Eq(z, t1), Eq(z, t2))
    assert derivable.left[0] == Single(disj)
    assert axiom.right[0] == Single(disj)


def test_focus_sequents_singleton(registry):
    _, axiom = registry.focus_sequents("Ddown", z)
    assert axiom.right[0] == Single(Eq(z, Outcome("down", Fraction(1))))


def test_focus_sequents_empty():
    reg = Registry()
    reg.register_domain(DomainRecord("E", (), focused=False, inhabited=False))
    with pytest.raises(EmptyDomain):
        reg.focus_sequents("E")


def test_dual_membership_renderings(registry):
    assert registry.dual_membership(z, "Dplus", "top") == Member(z, "Dminus")
    assert registry.dual_membership(z, "Ddown", "perp") == Member(z, "Dup")
    assert registry.dual_membership(z, "Ddown", "neq") == \
        Neq(z, Outcome("down", Fraction(1)))
    assert registry.dual_membership(z, "V", "d") == DualMember(z, "V", "d")


def test_involutions_take_tables_from_the_registry(registry):
    """A registry's involution has the domain table declared there, the
    built-in label swap of its name and the caller's self-dual domains."""
    assert registry.involution("perp") == PERP_INV
    assert registry.involution("top") == TOP_INV
    assert registry.involution("identity") == IDENTITY_INV
    bare = Registry().involution("perp", {"D"})
    assert bare.label_swap == PERP_INV.label_swap and not bare.domain_table
    assert bare.self_dual_domains == {"D"}
    assert Registry().involution("e") == LiteralInvolution("e")
    reg = Registry()
    with pytest.raises(InvariantViolation, match="not an involution"):
        reg.declare_duality_table("e", {"A": "B", "B": "C"})
    assert not reg.involutions


def test_dual_member_refuted_safety(registry):
    down_half = Outcome("down", half)
    # abstract tags refute for members
    assert registry.dual_member_refuted(down_half, "Dplus", "d")
    # but the rendered phase dual is a true membership of the twin domain
    assert not registry.dual_member_refuted(down_half, "Dplus", "top")
    # witnesses count as declared members
    assert registry.dual_member_refuted(registry.witness("Dplus"), "Dplus", "d")
    assert not registry.dual_member_refuted(z, "Dplus", "d")


def test_license_d_axiom_law():
    """License succeeds exactly on virtual singletons and extensional
    singletons: all eight combinations of (focused, virtual, entry count)."""
    half = Fraction(1, 2)
    for focused in (False, True):
        for virtual in (False, True):
            for n in (1, 2):
                entries = tuple(Outcome(f"o{i}", Fraction(1, n))
                                for i in range(n))
                reg = Registry()
                rec = DomainRecord("X", entries, focused=focused,
                                   virtual_singleton=virtual,
                                   duality="d" if virtual else None)
                try:
                    reg.register_domain(rec)
                except InvariantViolation:
                    registered = False
                else:
                    registered = True
                expected = virtual or (focused and n == 1)
                if not registered:
                    assert not (focused and virtual and n == 1)
                    continue
                if expected:
                    schema = reg.license_d_axiom("X", "d")
                    assert schema.domain == "X"
                else:
                    with pytest.raises(FocusedNonSingleton):
                        reg.license_d_axiom("X", "d")


def test_singleton_license_uses_equality_form(registry):
    schema = registry.license_d_axiom("Ddown", "whatever")
    assert schema.dual == "neq"
    assert schema.singleton_entry == Outcome("down", Fraction(1))


def test_consistency_guard_states():
    assert standard_registry().consistency_guard("V")[0] == "consistent"
    status, proofs = standard_registry(
        collapse_demo=True).consistency_guard("V")
    assert status == "collapse" and len(proofs) == 2
    # a singleton with both licenses stays consistent: only reflexivity
    reg = standard_registry()
    status, proofs = reg.consistency_guard("Ddown")
    assert status == "consistent"
    assert len(proofs) == 1 and proofs[0].rule == "refl"
