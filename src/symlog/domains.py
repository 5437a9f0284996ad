"""Random first-order domains: registration, focus, duality licensing.

A domain is a finite set of outcome terms.  A *focused* domain is one for
which membership entails the disjunction of equalities with its listed
entries (the ``focus`` rule states that law), so substitution of entries
for free variables is derivable.  A *virtual singleton* is a non-empty
unfocused domain equipped with a duality ``d`` licensing the schema

    z in V, A(y) |- A(z), (y in V)^d

for every formula A.  Licensing both that schema and substitution on the
same domain lets the system prove the domain is a singleton.  Both
licences belong to the calculus, not to the domain: ``CalculusConfig``
holds them and its ``check_licenses`` refuses substitution on a virtual
singleton outside collapse-demo mode.

A registry owns each duality's domain table, kept as a ``LiteralInvolution``
by name; every reader gets it from there (see ``Registry.involution``).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .dualities import PERP_INV, TOP_INV, LiteralInvolution
from .formulas import (
    DualMember, Formula, Member, Neq, Outcome, Term, Var,
)

__all__ = [
    "DomainRecord", "Registry", "RegistryError", "InvariantViolation",
    "EmptyDomain", "FocusedNonSingleton", "DAxiomSchema",
    "standard_registry",
]

# the built-in outcome-label swaps, by duality name
_LABEL_SWAPS = {PERP_INV.name: PERP_INV.label_swap}


class RegistryError(Exception):
    pass


class InvariantViolation(RegistryError):
    pass


class EmptyDomain(RegistryError):
    """Exported still, but raised by nothing: the focus rules refuse a domain
    without entries themselves."""


class FocusedNonSingleton(RegistryError):
    pass


@dataclass(frozen=True)
class DomainRecord:
    name: str
    entries: tuple  # tuple[Outcome, ...]; may be empty for abstract test domains
    focused: bool
    virtual_singleton: bool = False
    duality: Optional[str] = None
    inhabited: bool = True

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def is_singleton(self) -> bool:
        return self.focused and len(self.entries) == 1

    def validate(self) -> None:
        if self.focused and self.virtual_singleton and len(self.entries) != 1:
            raise InvariantViolation(
                f"{self.name}: a focused virtual singleton must have exactly "
                f"one entry, got {len(self.entries)}")
        if self.entries:
            total = sum((e.prob for e in self.entries), Fraction(0))
            if total != 1:
                raise InvariantViolation(
                    f"{self.name}: entry probabilities sum to {total}, not 1")
        if self.virtual_singleton and self.duality is None:
            raise InvariantViolation(
                f"{self.name}: a virtual singleton needs a duality")


@dataclass(frozen=True)
class DAxiomSchema:
    """An issued d-axiom schema: which domain, which duality, and whether
    instances use the equality form (extensional singletons) or the
    dual-membership form (virtual singletons)."""

    domain: str
    dual: str
    singleton_entry: Optional[Outcome]  # set when the schema is the =/!= form


class Registry:
    """Named domains plus the duality tables connecting them.

    Built once per run, then read-only.
    """

    def __init__(self, collapse_demo: bool = False):
        self.collapse_demo = collapse_demo
        self._records: dict = {}
        # duality name -> its declared LiteralInvolution
        self.involutions: dict = {}

    # -- construction ------------------------------------------------------

    def register_domain(self, record: DomainRecord) -> DomainRecord:
        record.validate()
        if record.name in self._records:
            raise InvariantViolation(f"domain already registered: {record.name}")
        self._records[record.name] = record
        return record

    def declare_duality_table(self, dual: str, table: dict) -> None:
        """Declare how a duality maps domain names.  Must be an involution."""
        try:
            self.involutions[dual] = LiteralInvolution(
                dual, _LABEL_SWAPS.get(dual, {}), dict(table))
        except ValueError as e:
            raise InvariantViolation(str(e)) from None

    # -- lookup ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def get(self, name: str) -> DomainRecord:
        try:
            return self._records[name]
        except KeyError:
            raise RegistryError(f"unknown domain: {name}") from None

    def names(self):
        return tuple(self._records)

    def witness(self, name: str) -> Var:
        """The distinguished variable inhabiting a domain declared non-empty."""
        self.get(name)
        return Var(f"w{name}")

    def involution(self, name: str, self_dual_domains=()) -> LiteralInvolution:
        """The involution ``name``: the domain table declared here, the
        built-in label swap of that name, and ``self_dual_domains``."""
        inv = (self.involutions.get(name)
               or LiteralInvolution(name, _LABEL_SWAPS.get(name, {})))
        return replace(inv, self_dual_domains=frozenset(self_dual_domains))

    # -- derived formulas ----------------------------------------------------

    def dual_membership(self, t: Term, name: str, dual: str) -> Formula:
        """The dual proposition of ``t in name`` under duality ``dual``.

        Rendered through the duality table where one is declared; for an
        extensional singleton {u} under the equality duality it is the
        disequation ``t != u``; otherwise it stays an opaque dual-membership
        literal.
        """
        rec = self.get(name)
        if dual == "neq" and rec.is_singleton:
            return Neq(t, rec.entries[0])
        inv = self.involutions.get(dual)
        if inv is None:
            return DualMember(t, name, dual)
        return inv.dual_member(t, name)

    # -- membership axioms ---------------------------------------------------

    def is_member_axiom(self, t: Term, name: str) -> bool:
        """True when ``|- t in name`` is registry-issued: entries always,
        plus the distinguished witness variable for inhabited domains."""
        rec = self.get(name)
        if isinstance(t, Outcome) and t in rec.entries:
            return True
        return rec.inhabited and t == self.witness(name)

    def dual_member_refuted(self, t: Term, name: str, dual: str) -> bool:
        """True when ``(t in name)^dual |-`` is registry-issued.

        Issued for declared members, except when the rendered dual is itself
        a true membership (dual domains sharing the entry), which would make
        the axiom pair inconsistent.
        """
        if not self.is_member_axiom(t, name):
            return False
        rendered = self.dual_membership(t, name, dual)
        return not (isinstance(rendered, Member) and
                    self.is_member_axiom(rendered.term, rendered.domain))

    # -- d-axiom licensing ---------------------------------------------------

    def license_d_axiom(self, name: str, dual: str) -> DAxiomSchema:
        """License the d-axiom schema for a domain.

        Succeeds exactly for virtual singletons and extensional singletons;
        for the latter the schema degenerates to the derivable =/!= form.
        The ``d_axiom`` rule reads this law: it builds the =/!= form where
        ``singleton_entry`` is set and the dual-membership form otherwise.
        """
        rec = self.get(name)
        if rec.virtual_singleton:
            return DAxiomSchema(name, dual, None)
        if rec.is_singleton:
            return DAxiomSchema(name, "neq", rec.entries[0])
        raise FocusedNonSingleton(
            f"{name}: d-axioms require a virtual singleton or an "
            f"extensional singleton")

    def consistency_guard(self, name: str):
        """What licensing both substitution and d-axioms on a domain gives.

        A domain without a duality is ``("consistent", None)``; an
        extensional singleton is consistent with the proof of ``|- u = u``.
        In collapse-demo mode a virtual singleton whose entries' dual
        memberships are refuted (the collapse proof's last premise) gives
        ``("collapse", proofs)``: for each pair of distinct entries, a
        checked proof that they are equal.  Anything else is consistent.
        """
        # local, as kernel imports this module; the guard stays here because
        # perfbench and acceptance criterion 6 call it on a registry
        from . import kernel

        rec = self.get(name)
        if rec.duality is None:
            return ("consistent", None)
        if rec.is_singleton:
            return ("consistent", [kernel.build_refl_proof(rec.entries[0])])
        if not (self.collapse_demo and rec.virtual_singleton and all(
                self.dual_member_refuted(e, name, rec.duality)
                for e in rec.entries)):
            return ("consistent", None)
        cfg = kernel.collapse_config(self, name)
        return ("collapse", [kernel.build_collapse_proof(self, cfg, name, b, a)
                             for a in rec.entries for b in rec.entries
                             if a != b])


# --------------------------------------------------------------------------
# the standard registry used by the corpus and the quantum layer

def standard_registry(collapse_demo: bool = False) -> Registry:
    """Domains shared by the test corpus and the qubit dictionary.

    * ``Ddown``/``Dup``: the sharp measurement outcomes, extensional
      singletons dual to each other under ``perp``.
    * ``Dplus``/``Dminus``: the two unfocused copies of the uniform
      two-outcome domain, virtual singletons dual under ``top``.
    * ``D``: a generic focused two-entry domain.
    * ``V``: a two-entry virtual singleton with an abstract duality ``d``,
      used for collapse demonstrations.
    """
    half = Fraction(1, 2)
    reg = Registry(collapse_demo=collapse_demo)
    reg.register_domain(DomainRecord(
        "Ddown", (Outcome("down", 1),), focused=True, duality="neq"))
    reg.register_domain(DomainRecord(
        "Dup", (Outcome("up", 1),), focused=True, duality="neq"))
    reg.register_domain(DomainRecord(
        "Dplus", (Outcome("down", half), Outcome("up", half)),
        focused=False, virtual_singleton=True, duality="top"))
    reg.register_domain(DomainRecord(
        "Dminus", (Outcome("down", half), Outcome("up", half)),
        focused=False, virtual_singleton=True, duality="top"))
    reg.register_domain(DomainRecord(
        "D", (Outcome("t1", half), Outcome("t2", half)),
        focused=True))
    reg.register_domain(DomainRecord(
        "V", (Outcome("v1", half), Outcome("v2", half)),
        focused=False, virtual_singleton=True, duality="d"))
    for inv in (PERP_INV, TOP_INV):
        reg.declare_duality_table(inv.name, inv.domain_table)
    return reg
