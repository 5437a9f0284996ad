"""Registry invariants, dual memberships, d-axiom licensing (and the
``d_axiom`` rule that reads it), the guard."""
from fractions import Fraction

import pytest

from symlog.domains import (
    DomainRecord, FocusedNonSingleton, InvariantViolation, Registry,
    standard_registry,
)
from symlog.dualities import (
    IDENTITY_INV, LiteralInvolution, PERP_INV, TOP_INV,
)
from symlog.formulas import (
    Atom, Eq, Member, Neq, Outcome, Sequent, Single, Var, DualMember,
)
from symlog.rules import CalculusConfig, RuleContext, RuleError, validate_rule

half = Fraction(1, 2)
x, y, z = Var("x"), Var("y"), Var("z")


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


def test_register_rejects_a_name_twice():
    reg = Registry()
    rec = DomainRecord("E", (Outcome("e", Fraction(1)),), focused=True)
    reg.register_domain(rec)
    with pytest.raises(InvariantViolation, match="already registered: E"):
        reg.register_domain(rec)


def test_register_rejects_virtual_singleton_without_duality():
    """A virtual singleton needs its duality in collapse-demo mode too."""
    reg = Registry(collapse_demo=True)
    with pytest.raises(InvariantViolation):
        reg.register_domain(DomainRecord(
            "bad", (Outcome("a", half), Outcome("b", half)),
            focused=False, virtual_singleton=True))


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
    singletons: all eight combinations of (focused, virtual, entry count).
    The licensed ``d_axiom`` rule holds exactly where the license does, in
    the =/!= form exactly where the schema names its entry."""
    half = Fraction(1, 2)
    cfg = CalculusConfig(d_axiom_domains={("X", "d")})
    A = lambda t: Atom("A", None, (t,))
    params = {"domain": "X", "dual": "d", "z": z, "y": y, "hole": x,
              "body": A(x)}
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
                ctx = RuleContext(cfg, reg)
                if expected:
                    schema = reg.license_d_axiom("X", "d")
                    assert schema.domain == "X"
                    u = schema.singleton_entry
                    memb, dual = (
                        (Member(z, "X"), reg.dual_membership(y, "X", "d"))
                        if u is None else (Eq(z, u), Neq(y, u)))
                    assert validate_rule("d_axiom", params, [], None, ctx) \
                        == Sequent((Single(memb), Single(A(y))),
                                   (Single(A(z)), Single(dual)))
                else:
                    with pytest.raises(FocusedNonSingleton):
                        reg.license_d_axiom("X", "d")
                    with pytest.raises(RuleError,
                                       match="^DAxiomNotLicensed: "):
                        validate_rule("d_axiom", params, [], None, ctx)


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
