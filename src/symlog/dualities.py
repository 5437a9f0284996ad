"""The three involutions: the symmetry map on formulas and sequents, and
the literal dualities ``perp`` and ``top``.

The symmetry map swaps each connective with its mate and reverses the
operands::

    (&, \\/)   (*, (x))   (->, <-)   (forall, exists)

Literals pass through the involution's tables.  Membership atoms swap
with dual-membership atoms tagged by the involution's name; domains with
a declared duality table render the dual membership as plain membership
in the mapped domain.  Quantifiers over domains listed as self-dual keep
their constructor (their existential and universal readings coincide), so
only the membership literal dualizes.

A ``Registry`` owns the domain tables (see ``Registry.involution``);
``PERP_INV`` and ``TOP_INV`` are the qubit dictionary's built-ins, whose
tables ``standard_registry`` declares.

``apply_duality`` is a different beast: it rewrites the qubit dictionary
(sharp/phase literals, their quantified forms, and the correlated pair
formulas) through the ``perp``/``top`` tables without touching the
logical structure, and is partial outside that dictionary.

Each formula keeps a weak link to its image under the last involution that
mapped it.  The image links back only where the map is an involution: at a
literal whose image maps back to it (``perp`` maps ``down@1 in Ddown``
tagged ``perp`` to ``down@1 in Ddown``, whose image is ``down@1 in Dup``),
and at a compound whose subformulas all link back.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from weakref import ref

from .formulas import (
    And, Atom, DualMember, Eq, Excl, Exists, Forall, Formula, Imp, IndexRel,
    Join, Member, Neq, Or, Outcome, Par, SHARP_LABELS, Sequent, Slot, Times,
    fold, rebuild_slot, slot_formulas,
)

__all__ = [
    "LiteralInvolution", "IDENTITY_INV", "PERP_INV", "TOP_INV",
    "symmetrize_formula", "symmetrize_slot", "symmetrize_sequent",
    "apply_duality", "UnclassifiedLiteral", "UnknownDuality",
    "SHARP_LABELS", "PHASE_DOMAINS",
]

PHASE_DOMAINS = {"Dplus": "Dminus", "Dminus": "Dplus"}
SHARP_DOMAINS = {"Ddown": "Dup", "Dup": "Ddown"}


@dataclass(frozen=True)
class LiteralInvolution:
    """An involution on literals, with the tables the symmetry map needs.

    ``label_swap`` acts on outcome labels inside atoms; ``domain_table``
    maps domain names (memberships render through it); ``self_dual_domains``
    lists domains whose quantifiers are insensitive to the direction of
    consequence.  All tables must be involutions.
    """

    name: str
    label_swap: dict = field(default_factory=dict)
    domain_table: dict = field(default_factory=dict)
    self_dual_domains: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "self_dual_domains",
                           frozenset(self.self_dual_domains))
        for table in (self.label_swap, self.domain_table):
            for a, b in table.items():
                if table.get(b) != a:
                    raise ValueError(
                        f"{self.name}: table not an involution at {a!r}")

    def swap_label(self, label: str) -> str:
        return self.label_swap.get(label, label)

    def swap_domain(self, name: str):
        return self.domain_table.get(name)

    def dual_member(self, t, domain: str) -> Formula:
        """The dual of ``t in domain``: membership in the mapped domain
        where the table maps it, else the literal tagged with this name."""
        mapped = self.domain_table.get(domain)
        if mapped is None:
            return DualMember(t, domain, self.name)
        return Member(t, mapped)

    def swap_term(self, t):
        if isinstance(t, Outcome):
            return Outcome(self.swap_label(t.label), t.prob)
        return t


IDENTITY_INV = LiteralInvolution("identity")
PERP_INV = LiteralInvolution("perp", label_swap=dict(SHARP_LABELS),
                             domain_table={**SHARP_DOMAINS,
                                           "Dplus": "Dplus",
                                           "Dminus": "Dminus"})
TOP_INV = LiteralInvolution("top", domain_table={**PHASE_DOMAINS,
                                                 "Ddown": "Ddown",
                                                 "Dup": "Dup"})


# each constructor's mate under the symmetry map
_MATE_OF = {And: Or, Times: Par, Imp: Excl, Eq: Neq, Forall: Exists}
_MATE_OF.update({b: a for a, b in _MATE_OF.items()})


def symmetrize_formula(f: Formula, inv: LiteralInvolution) -> Formula:
    """The symmetric image of ``f``, linked as the module docstring says."""
    def image(g, kids):
        sh = g.shape
        if sh.binds and g.domain in inv.self_dual_domains:
            return sh.rebuild(g, kids)  # a self-dual domain keeps its binder
        if sh.subs:
            return sh.rebuild(g, kids[::-1], cls=_MATE_OF.get(type(g), type(g)))
        if isinstance(g, Atom):
            return Atom(g.pred, g.index, tuple(map(inv.swap_term, g.args)))
        if isinstance(g, Member):
            return inv.dual_member(g.term, g.domain)
        if isinstance(g, DualMember):  # a foreign tag is outside the swap
            return Member(g.term, g.domain) if g.dual == inv.name else g
        if isinstance(g, IndexRel):
            return IndexRel(g.j, g.tag, g.i)
        return sh.rebuild(g, (), cls=_MATE_OF[type(g)])

    def at(g, kids):
        h = _linked(g, inv)
        if h is None:
            h = image(g, kids)
            object.__setattr__(g, "_image", (inv, ref(h)))
            if (all(_linked(k, inv) is c
                    for k, c in zip(kids, g.shape.children(g)))
                    if kids else image(h, ()) is g):
                object.__setattr__(h, "_image", (inv, ref(g)))
        return h

    return _linked(f, inv) or fold(f, at)


def _linked(g: Formula, inv: LiteralInvolution):
    """``g``'s image under ``inv`` if ``g`` links to a live one, else None."""
    link = g._image
    return link[1]() if link is not None and link[0] is inv else None


def symmetrize_slot(slot: Slot, inv: LiteralInvolution) -> Slot:
    return rebuild_slot(slot, [symmetrize_formula(g, inv)
                               for g in reversed(slot_formulas(slot))])


def symmetrize_sequent(s: Sequent, inv: LiteralInvolution) -> Sequent:
    """The symmetric sequent: sides swapped, slot order reversed, every
    slot symmetrized."""
    left = tuple(symmetrize_slot(sl, inv) for sl in reversed(s.right))
    right = tuple(symmetrize_slot(sl, inv) for sl in reversed(s.left))
    return Sequent(left, right)


# --------------------------------------------------------------------------
# the qubit-dictionary dualities

class UnclassifiedLiteral(Exception):
    """Raised when a formula falls outside the qubit dictionary."""


class UnknownDuality(ValueError):
    """Raised when ``apply_duality`` is asked for a duality other than
    ``perp`` or ``top``."""


def _is_sharp_atom(f: Formula) -> bool:
    return (isinstance(f, Atom) and len(f.args) == 1
            and isinstance(f.args[0], Outcome)
            and f.args[0].label in SHARP_LABELS
            and f.args[0].prob == 1)


def apply_duality(f: Formula, name: str) -> Formula:
    """Rewrite a qubit-dictionary formula through the ``perp``/``top``
    tables.

    Handled shapes: sharp literals (single-outcome atoms with probability
    one), quantified state formulas over the four measurement domains, and
    the correlated-pair state formulas, on which ``top`` acts as the
    identity because the switch of phase modality and the switch of
    correlation modality cancel.
    """
    inv = {"perp": PERP_INV, "top": TOP_INV}.get(name)
    if inv is None:
        raise UnknownDuality(f"unknown duality: {name!r}")
    if _is_sharp_atom(f):  # its symmetric image swaps its label
        return symmetrize_formula(f, inv)
    if isinstance(f, And) and _is_sharp_atom(f.a) and _is_sharp_atom(f.b):
        # the post-measurement mixed state: both dualities leave it alone
        # except perp, which swaps the two conjuncts' labels
        return And(symmetrize_formula(f.a, inv), symmetrize_formula(f.b, inv))
    if isinstance(f, (Forall, Exists)):
        if isinstance(f.body, Join):
            # correlated-pair formulas are fixed points of both dualities
            return f
        mapped = inv.swap_domain(f.domain)
        if mapped is None:
            raise UnclassifiedLiteral(f"domain outside the dictionary: {f.domain}")
        body = f.body
        if not (isinstance(body, Atom) and f.var in body.args):
            raise UnclassifiedLiteral(f"body outside the dictionary: {body!r}")
        return type(f)(f.var, mapped, body)
    raise UnclassifiedLiteral(f"not a qubit-dictionary formula: {f!r}")
