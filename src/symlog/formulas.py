"""Core syntax: terms, indexes, formulas, sequents, and substitution.

Everything here is an immutable value.  Terms are flat (variables,
declared constants, and outcome terms pairing a label with an exact
rational probability), so "replace term s by term t" never has to look
inside a term.  Probabilities are :class:`fractions.Fraction` so that
term equality stays decidable; the quantum layer converts floats with an
explicit tolerance before anything reaches this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

__all__ = [
    "Var", "Const", "Outcome", "Term",
    "IVar", "IConst", "Index",
    "SHARP_LABELS", "CorrelationTag", "IDENTICAL", "OPPOSITE",
    "Formula", "Atom", "Member", "DualMember", "Eq", "Neq", "IndexRel",
    "And", "Or", "Times", "Par", "Imp", "Excl", "Forall", "Exists", "Join",
    "Single", "CorrPair", "Slot", "Sequent",
    "free_vars", "substitute", "replace_var", "formula_equal",
    "index_set", "formula_index", "reindex", "subformulas", "seq",
]


# --------------------------------------------------------------------------
# terms

@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Outcome:
    """A closed term bundling an outcome label with its probability."""

    label: str
    prob: Fraction

    def __post_init__(self):
        object.__setattr__(self, "prob", Fraction(self.prob))
        if not (0 < self.prob <= 1):
            raise ValueError(f"outcome probability must lie in (0,1]: {self.prob}")

    def __str__(self) -> str:
        return f"{self.label}@{self.prob}"


Term = Union[Var, Const, Outcome]


def is_closed(t: Term) -> bool:
    return not isinstance(t, Var)


# --------------------------------------------------------------------------
# indexes and correlation tags

@dataclass(frozen=True)
class IVar:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class IConst:
    value: int

    def __post_init__(self):
        if not (1 <= self.value
                <= 9):
            raise ValueError(f"index constant out of range: {self.value}")

    def __str__(self) -> str:
        return str(self.value)


Index = Union[IVar, IConst]


# the two sharp outcome labels: the opposite correlation and the ``perp``
# duality both swap them
SHARP_LABELS = {"down": "up", "up": "down"}


@dataclass(frozen=True)
class CorrelationTag:
    """One of the two invertible outcome maps: identity or label swap."""

    kind: str  # "identical" | "opposite"

    def __post_init__(self):
        if self.kind not in ("identical", "opposite"):
            raise ValueError(f"unknown correlation tag: {self.kind}")

    @property
    def short(self) -> str:
        return "i" if self.kind == "identical" else "o"

    def map_label(self, label: str) -> str:
        """Apply the outcome map to a two-valued label."""
        if self.kind == "identical":
            return label
        return SHARP_LABELS.get(label, label)

    def __str__(self) -> str:
        return self.short


IDENTICAL = CorrelationTag("identical")
OPPOSITE = CorrelationTag("opposite")


def tag_from_short(s: str) -> CorrelationTag:
    if s == "i":
        return IDENTICAL
    if s == "o":
        return OPPOSITE
    raise ValueError(f"unknown correlation tag: {s!r}")


# --------------------------------------------------------------------------
# formulas

class Formula:
    """Base class; all constructors are frozen dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    index: Optional[Index]
    args: tuple  # tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Member(Formula):
    term: Term
    domain: str


@dataclass(frozen=True)
class DualMember(Formula):
    """Membership seen through a duality: the dual proposition of ``t in D``."""

    term: Term
    domain: str
    dual: str


@dataclass(frozen=True)
class Eq(Formula):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Neq(Formula):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class IndexRel(Formula):
    """Correlation between two formula indexes (``i ~f j``)."""

    i: Index
    tag: CorrelationTag
    j: Index


@dataclass(frozen=True)
class And(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True)
class Or(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True)
class Times(Formula):
    """Multiplicative conjunction."""

    a: Formula
    b: Formula


@dataclass(frozen=True)
class Par(Formula):
    """Multiplicative disjunction (the comma on the right of a sequent)."""

    a: Formula
    b: Formula


@dataclass(frozen=True)
class Imp(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True)
class Excl(Formula):
    """Exclusion, the mirror connective of implication (``b excludes a``)."""

    a: Formula
    b: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: Var
    domain: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: Var
    domain: str
    body: Formula


@dataclass(frozen=True)
class Join(Formula):
    """Correlation connective: a pair of formulas correlated through a tag.

    The two operands are distinguished by their indexes, which must differ
    when both are defined.
    """

    tag: CorrelationTag
    a: Formula
    b: Formula

    def __post_init__(self):
        ia, ib = formula_index(self.a), formula_index(self.b)
        if ia is not None and ib is not None and ia == ib:
            raise ValueError("join operands must carry distinct indexes")


_BINARY = {And: "&", Or: r"\/", Times: "(x)", Par: "*", Imp: "->", Excl: "<-"}


# --------------------------------------------------------------------------
# sequent slots

@dataclass(frozen=True)
class Single:
    formula: Formula


@dataclass(frozen=True)
class CorrPair:
    """A correlated pair of slot formulas (the indexed comma)."""

    a: Formula
    tag: CorrelationTag
    b: Formula


Slot = Union[Single, CorrPair]


@dataclass(frozen=True)
class Sequent:
    left: tuple  # tuple[Slot, ...]
    right: tuple

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))


def seq(left, right) -> Sequent:
    """Build a sequent from formulas and/or slots."""

    def to_slot(x) -> Slot:
        if isinstance(x, (Single, CorrPair)):
            return x
        if isinstance(x, Formula):
            return Single(x)
        raise TypeError(f"not a slot or formula: {x!r}")

    return Sequent(tuple(to_slot(x) for x in left), tuple(to_slot(x) for x in right))


def slot_formulas(s: Slot) -> tuple:
    if isinstance(s, Single):
        return (s.formula,)
    return (s.a, s.b)


# --------------------------------------------------------------------------
# traversal, free variables

def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, (And, Or, Times, Par, Imp, Excl)):
        yield from subformulas(f.a)
        yield from subformulas(f.b)
    elif isinstance(f, Join):
        yield from subformulas(f.a)
        yield from subformulas(f.b)
    elif isinstance(f, (Forall, Exists)):
        yield from subformulas(f.body)


def free_vars(f: Formula) -> frozenset:
    """Variables with a free occurrence.  Indexes are not first-order
    variables and do not count."""
    if isinstance(f, Atom):
        return frozenset(t for t in f.args if isinstance(t, Var))
    if isinstance(f, (Member, DualMember)):
        return frozenset([f.term]) if isinstance(f.term, Var) else frozenset()
    if isinstance(f, (Eq, Neq)):
        return frozenset(t for t in (f.lhs, f.rhs) if isinstance(t, Var))
    if isinstance(f, IndexRel):
        return frozenset()
    if isinstance(f, (And, Or, Times, Par, Imp, Excl, Join)):
        return free_vars(f.a) | free_vars(f.b)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def sequent_free_vars(s: Sequent) -> frozenset:
    out = frozenset()
    for slot in s.left + s.right:
        for f in slot_formulas(slot):
            out |= free_vars(f)
    return out


# --------------------------------------------------------------------------
# substitution

def _fresh_name(base: str, avoid) -> str:
    name = base
    n = 0
    while name in avoid:
        n += 1
        name = f"{base}{n}"
    return name


def _term_vars(t: Term) -> frozenset:
    return frozenset([t]) if isinstance(t, Var) else frozenset()


def replace_var(f: Formula, x: Var, t: Term) -> Formula:
    """Capture-avoiding replacement of free ``x`` by an arbitrary term.

    Internal workhorse: the public :func:`substitute` restricts the
    replacement term to closed terms.
    """

    def on_term(u: Term) -> Term:
        return t if u == x else u

    if isinstance(f, Atom):
        return Atom(f.pred, f.index, tuple(on_term(a) for a in f.args))
    if isinstance(f, Member):
        return Member(on_term(f.term), f.domain)
    if isinstance(f, DualMember):
        return DualMember(on_term(f.term), f.domain, f.dual)
    if isinstance(f, Eq):
        return Eq(on_term(f.lhs), on_term(f.rhs))
    if isinstance(f, Neq):
        return Neq(on_term(f.lhs), on_term(f.rhs))
    if isinstance(f, IndexRel):
        return f
    if isinstance(f, (And, Or, Times, Par, Imp, Excl)):
        return type(f)(replace_var(f.a, x, t), replace_var(f.b, x, t))
    if isinstance(f, Join):
        return Join(f.tag, replace_var(f.a, x, t), replace_var(f.b, x, t))
    if isinstance(f, (Forall, Exists)):
        if f.var == x:
            return f  # bound occurrence shadows the substitution
        if f.var in _term_vars(t):
            # rename the binder away from the incoming variable
            avoid = {v.name for v in free_vars(f.body)} | {f.var.name, x.name}
            if isinstance(t, Var):
                avoid.add(t.name)
            nv = Var(_fresh_name(f.var.name, avoid))
            body = replace_var(f.body, f.var, nv)
            return type(f)(nv, f.domain, replace_var(body, x, t))
        return type(f)(f.var, f.domain, replace_var(f.body, x, t))
    raise TypeError(f"not a formula: {f!r}")


def substitute(f: Formula, x: Var, t: Term) -> Formula:
    """Replace free occurrences of ``x`` by the closed term ``t``."""
    if not is_closed(t):
        raise ValueError(f"substitution term must be closed: {t}")
    return replace_var(f, x, t)


def substitute_sequent(s: Sequent, x: Var, t: Term) -> Sequent:
    def on_slot(sl: Slot) -> Slot:
        if isinstance(sl, Single):
            return Single(replace_var(sl.formula, x, t))
        return CorrPair(replace_var(sl.a, x, t), sl.tag, replace_var(sl.b, x, t))

    return Sequent(tuple(on_slot(sl) for sl in s.left),
                   tuple(on_slot(sl) for sl in s.right))


# --------------------------------------------------------------------------
# structural equality up to bound-variable renaming

def _alpha(f: Formula, g: Formula, env_f: dict, env_g: dict, depth: int) -> bool:
    if type(f) is not type(g):
        return False

    def term_eq(u: Term, v: Term) -> bool:
        if isinstance(u, Var) and isinstance(v, Var):
            du, dv = env_f.get(u.name), env_g.get(v.name)
            if du is None and dv is None:
                return u == v
            return du == dv
        return u == v

    if isinstance(f, Atom):
        return (f.pred == g.pred and f.index == g.index
                and len(f.args) == len(g.args)
                and all(term_eq(a, b) for a, b in zip(f.args, g.args)))
    if isinstance(f, Member):
        return f.domain == g.domain and term_eq(f.term, g.term)
    if isinstance(f, DualMember):
        return (f.domain == g.domain and f.dual == g.dual
                and term_eq(f.term, g.term))
    if isinstance(f, (Eq, Neq)):
        return term_eq(f.lhs, g.lhs) and term_eq(f.rhs, g.rhs)
    if isinstance(f, IndexRel):
        return f == g
    if isinstance(f, Join):
        return (f.tag == g.tag and _alpha(f.a, g.a, env_f, env_g, depth)
                and _alpha(f.b, g.b, env_f, env_g, depth))
    if isinstance(f, (And, Or, Times, Par, Imp, Excl)):
        return (_alpha(f.a, g.a, env_f, env_g, depth)
                and _alpha(f.b, g.b, env_f, env_g, depth))
    if isinstance(f, (Forall, Exists)):
        if f.domain != g.domain:
            return False
        ef = dict(env_f)
        eg = dict(env_g)
        ef[f.var.name] = depth
        eg[g.var.name] = depth
        return _alpha(f.body, g.body, ef, eg, depth + 1)
    raise TypeError(f"not a formula: {f!r}")


def formula_equal(f: Formula, g: Formula) -> bool:
    """Structural equality up to renaming of bound variables."""
    return _alpha(f, g, {}, {}, 0)


def slot_equal(a: Slot, b: Slot) -> bool:
    if isinstance(a, Single) and isinstance(b, Single):
        return formula_equal(a.formula, b.formula)
    if isinstance(a, CorrPair) and isinstance(b, CorrPair):
        return (a.tag == b.tag and formula_equal(a.a, b.a)
                and formula_equal(a.b, b.b))
    return False


def sequent_equal(s: Sequent, t: Sequent) -> bool:
    return (len(s.left) == len(t.left) and len(s.right) == len(t.right)
            and all(slot_equal(a, b) for a, b in zip(s.left, t.left))
            and all(slot_equal(a, b) for a, b in zip(s.right, t.right)))


# --------------------------------------------------------------------------
# indexes on compounds

def index_set(f: Formula) -> frozenset:
    """Indexes of all atoms below ``f``.  Compounds derive their indexes
    from their atoms; no constructor introduces or erases one."""
    if isinstance(f, Atom):
        return frozenset([f.index]) if f.index is not None else frozenset()
    if isinstance(f, (Member, DualMember, Eq, Neq, IndexRel)):
        return frozenset()
    if isinstance(f, (And, Or, Times, Par, Imp, Excl, Join)):
        return index_set(f.a) | index_set(f.b)
    if isinstance(f, (Forall, Exists)):
        return index_set(f.body)
    raise TypeError(f"not a formula: {f!r}")


def formula_index(f: Formula) -> Optional[Index]:
    """The unique atom index of ``f``, or None when unindexed or mixed."""
    s = index_set(f)
    if len(s) == 1:
        return next(iter(s))
    return None


def reindex(f: Formula, old: Index, new: Index) -> Formula:
    """Rename atom index ``old`` to ``new`` throughout."""
    if isinstance(f, Atom):
        return Atom(f.pred, new, f.args) if f.index == old else f
    if isinstance(f, (Member, DualMember, Eq, Neq, IndexRel)):
        return f
    if isinstance(f, (And, Or, Times, Par, Imp, Excl)):
        return type(f)(reindex(f.a, old, new), reindex(f.b, old, new))
    if isinstance(f, Join):
        return Join(f.tag, reindex(f.a, old, new), reindex(f.b, old, new))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, f.domain, reindex(f.body, old, new))
    raise TypeError(f"not a formula: {f!r}")
