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
from functools import partial
from operator import attrgetter, itemgetter
from typing import Iterator, Optional, Union
from weakref import WeakValueDictionary

__all__ = [
    "Var", "Const", "Outcome", "Term",
    "IVar", "IConst", "Index",
    "SHARP_LABELS", "CorrelationTag", "IDENTICAL", "OPPOSITE",
    "Formula", "Atom", "Member", "DualMember", "Eq", "Neq", "IndexRel",
    "And", "Or", "Times", "Par", "Imp", "Excl", "Forall", "Exists", "Join",
    "Single", "CorrPair", "Slot", "Sequent",
    "free_vars", "fresh_var", "substitute", "replace_var", "formula_equal",
    "index_set", "formula_index", "reindex", "subformulas", "seq",
    "Shape", "walk", "fold", "shadows",
    "slot_formulas", "rebuild_slot", "map_sequent", "slots_match",
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
    """Base class of the constructors that :class:`Shape` builds.  Formulas
    are interned: building one equal to a live formula returns that formula,
    so ``==`` and ``hash`` are identity and never recurse."""

    __slots__ = ("__weakref__", "_image")  # _image: no field; see dualities

    def __new__(cls, *args):
        key = (cls, *args)
        f = _INTERNED.get(key)
        if f is None:
            if len(args) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__}: wrong number of fields")
            f = object.__new__(cls)
            for name, value in zip(cls.__slots__, args):
                object.__setattr__(f, name, value)
            object.__setattr__(f, "_image", None)
            f._check()
            _INTERNED[key] = f
        return f

    def _check(self):
        """Reject a new formula; runs once per distinct formula."""

    def _frozen(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _frozen


# (constructor, *fields) -> the live formula with those fields
_INTERNED = WeakValueDictionary()


class Shape:
    """How walks see one formula constructor; declare it as the class's
    decorator, ``@Shape(subs=..., terms=..., binds=...)``, over a class
    that annotates its fields in order.

    ``subs`` names the subformula fields in operand order.  ``terms`` names
    the fields holding one term each, or is the name of the one field that
    holds a tuple of terms.  A constructor has subformulas or terms, never
    both, so a walk treats the first kind as inner nodes and the second as
    leaves.  A binder binds its ``var`` field over its subformulas.  Every
    other field is data, which a walk compares or carries over unchanged.

    ``children(f)`` and ``terms(f)`` read an instance's subformulas and
    terms as tuples; ``data(f)`` reads its data, and is None when the
    constructor has none.  ``rebuild`` is the way back.  Walks go through
    :func:`walk` or :func:`fold`, which keep their own stacks.
    """

    def __init__(self, subs: tuple = (), terms=(), binds: bool = False):
        if subs and terms:
            raise TypeError("a formula has subformulas or terms, not both")
        self.subs, self.binds = subs, binds
        self._packed = isinstance(terms, str)
        self._term_names = (terms,) if self._packed else terms
        self.children = _tuple_getter(subs)
        self.terms = attrgetter(terms) if self._packed else _tuple_getter(terms)

    def __call__(self, cls):
        names = tuple(cls.__annotations__)
        walked = self.subs + self._term_names + (("var",) if self.binds else ())
        if not set(walked) <= set(names):
            raise TypeError(f"{cls.__name__}: its shape names a missing field")
        data = tuple(n for n in names if n not in walked)
        self.data = attrgetter(*data) if data else None
        self._fields = get = _tuple_getter(names)
        self._subs_at = tuple(map(names.index, self.subs))
        self._terms_at = tuple(map(names.index, self._term_names))
        self._only_subs = self._subs_at == tuple(range(len(names)))
        self._text = text = f"{cls.__name__}({', '.join(n + '=%r' for n in names)})"
        self._pieces = text.split("%r")  # around each field's text
        body = {k: v for k, v in vars(cls).items() if k != "__dict__"}
        body.update(__slots__=names, shape=self, __reduce__=lambda f: (type(f), get(f)),
                    __repr__=_repr if self.subs else lambda f: text % get(f))
        return type(cls.__name__, cls.__bases__, body)

    def rebuild(self, f, kids, terms=None, cls=None):
        """``f`` with the subformulas ``kids`` and, when given, the terms
        ``terms``; every other field is kept.  ``cls`` builds a constructor
        of the same shape in place of ``f``'s own, such as its mate."""
        cls = cls or type(f)
        if self._only_subs:
            return cls(*kids)
        args = list(self._fields(f))
        for at, g in zip(self._subs_at, kids):
            args[at] = g
        if terms is not None:
            for at, u in zip(self._terms_at,
                             (tuple(terms),) if self._packed else terms):
                args[at] = u
        return cls(*args)


def _tuple_getter(names: tuple):
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda f: (get(f),)
    return lambda f: ()


def walk(f: Formula) -> Iterator[tuple]:
    """Yield ``(g, bound)`` for each subformula occurrence ``g`` of ``f`` in
    pre-order, where ``bound`` maps each variable a binder above ``g`` binds
    to the number of binders above that binder, the nearest one winning.
    ``bound`` is one map that the walk updates as it goes, so read it
    before asking for the next occurrence."""
    bound, depth, todo = {}, 0, [f]
    while todo:
        g = todo.pop()
        if type(g) is tuple:  # leaving a binder: restore what it shadowed
            var, outer, depth = g
            del bound[var]
            if outer is not None:
                bound[var] = outer
            continue
        yield g, bound
        sh = g.shape
        if sh.subs:
            if sh.binds:
                todo.append((g.var, bound.get(g.var), depth))
                bound[g.var], depth = depth, depth + 1
            todo += reversed(sh.children(g))


def fold(f: Formula, at, done=None):
    """Call ``at(g, [results of g's subformulas])`` once on each distinct
    subformula ``g`` of ``f`` that ``done`` (a dict it fills) has no result
    for, after its subformulas; return ``f``'s result."""
    done, todo = {} if done is None else done, [f]
    while todo:
        g = todo.pop()
        kids = g.shape.children(g)
        wait = [k for k in kids if k not in done]
        if wait:
            todo += g, *reversed(wait)
        elif g not in done:
            done[g] = at(g, [*map(done.__getitem__, kids)])
    return done[f]


def _repr(f: Formula) -> str:
    """A compound's ``Name(field=value, ...)``, from one stack of pieces."""
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        if type(g) is str:
            out.append(g)
        elif not any(k.shape.subs for k in g.shape.children(g)):
            out.append(g.shape._text % g.shape._fields(g))  # over leaves
        else:
            parts = []
            for text, v in zip(g.shape._pieces, g.shape._fields(g)):
                parts += text, v if isinstance(v, Formula) else repr(v)
            todo += ")", *reversed(parts)
    return "".join(out)


@Shape(terms="args")
class Atom(Formula):
    pred: str
    index: Optional[Index]
    args: tuple  # tuple[Term, ...]

    def __new__(cls, pred, index, args):
        return Formula.__new__(cls, pred, index, tuple(args))


@Shape(terms=("term",))
class Member(Formula):
    term: Term
    domain: str


@Shape(terms=("term",))
class DualMember(Formula):
    """Membership seen through a duality: the dual proposition of ``t in D``."""

    term: Term
    domain: str
    dual: str


@Shape(terms=("lhs", "rhs"))
class Eq(Formula):
    lhs: Term
    rhs: Term


@Shape(terms=("lhs", "rhs"))
class Neq(Formula):
    lhs: Term
    rhs: Term


@Shape()
class IndexRel(Formula):
    """Correlation between two formula indexes (``i ~f j``)."""

    i: Index
    tag: CorrelationTag
    j: Index


@Shape(subs=("a", "b"))
class And(Formula):
    a: Formula
    b: Formula


@Shape(subs=("a", "b"))
class Or(Formula):
    a: Formula
    b: Formula


@Shape(subs=("a", "b"))
class Times(Formula):
    """Multiplicative conjunction."""

    a: Formula
    b: Formula


@Shape(subs=("a", "b"))
class Par(Formula):
    """Multiplicative disjunction (the comma on the right of a sequent)."""

    a: Formula
    b: Formula


@Shape(subs=("a", "b"))
class Imp(Formula):
    a: Formula
    b: Formula


@Shape(subs=("a", "b"))
class Excl(Formula):
    """Exclusion, the mirror connective of implication (``b excludes a``)."""

    a: Formula
    b: Formula


@Shape(subs=("body",), binds=True)
class Forall(Formula):
    var: Var
    domain: str
    body: Formula


@Shape(subs=("body",), binds=True)
class Exists(Formula):
    var: Var
    domain: str
    body: Formula


@Shape(subs=("a", "b"))
class Join(Formula):
    """Correlation connective: a pair of formulas correlated through a tag.

    The two operands are distinguished by their indexes, which must differ
    when both are defined.
    """

    tag: CorrelationTag
    a: Formula
    b: Formula

    def _check(self):
        ia, ib = formula_index(self.a), formula_index(self.b)
        if ia is not None and ib is not None and ia == ib:
            raise ValueError("join operands must carry distinct indexes")


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
        if type(self.left) is not tuple:
            object.__setattr__(self, "left", tuple(self.left))
        if type(self.right) is not tuple:
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


def rebuild_slot(s: Slot, fs) -> Slot:
    """A slot of the same kind (and tag) as ``s`` holding the formulas ``fs``."""
    if isinstance(s, Single):
        return Single(fs[0])
    return CorrPair(fs[0], s.tag, fs[1])


def map_sequent(s: Sequent, fn) -> Sequent:
    """Apply ``fn`` to every formula of every slot, keeping the layout."""

    def on_slot(sl: Slot) -> Slot:
        return rebuild_slot(sl, [fn(g) for g in slot_formulas(sl)])

    return Sequent(tuple(map(on_slot, s.left)), tuple(map(on_slot, s.right)))


def slots_match(a: Slot, b: Slot, same) -> bool:
    """Slots of one kind and tag whose formulas agree pairwise by ``same``."""
    if isinstance(a, Single):
        return isinstance(b, Single) and same(a.formula, b.formula)
    return (isinstance(b, CorrPair) and a.tag == b.tag
            and same(a.a, b.a) and same(a.b, b.b))


# --------------------------------------------------------------------------
# walking a formula through its shape

def shadows(bound, s: Term, t: Term) -> bool:
    """The binder rule of swapping ``s`` and ``t``: below a binder of either
    (one in ``bound``), neither occurs free and a swap could bring in a
    variable the binder captures, so the swap stops there."""
    return s in bound or t in bound


def subformulas(f: Formula) -> Iterator[Formula]:
    return map(itemgetter(0), walk(f))


def free_vars(f: Formula) -> frozenset:
    """Variables with a free occurrence.  Indexes are not first-order
    variables and do not count."""
    return frozenset([t for g, bound in walk(f) for t in g.shape.terms(g)
                      if isinstance(t, Var) and t not in bound])


def sequent_free_vars(s: Sequent) -> frozenset:
    return frozenset().union(*[free_vars(f) for slot in s.left + s.right
                               for f in slot_formulas(slot)])


def fresh_var(base: str, used) -> Var:
    """``base`` itself if no variable in ``used`` has that name, else the
    first of ``base0``, ``base1``, ... that none has."""
    return Var(_fresh_name(base, {v.name for v in used}, 0))


def _fresh_name(base: str, avoid, k: int) -> str:
    """``base``, else the first of ``base<k>``, ``base<k+1>``, ... not in avoid."""
    name = base
    while name in avoid:
        name, k = f"{base}{k}", k + 1
    return name


# --------------------------------------------------------------------------
# substitution

def replace_var(f: Formula, x: Var, t: Term) -> Formula:
    """Capture-avoiding replacement of free ``x`` by an arbitrary term.

    Internal workhorse: the public :func:`substitute` restricts the
    replacement term to closed terms.  A binder of ``t`` is renamed to a
    fresh ``v``: its body has ``t`` replaced by ``v`` and then ``x`` by
    ``t``, which no fold does, so jobs ``(g, x, t, memo)`` wait on a stack."""
    top = {}  # g -> g with x replaced by t; memos holds one such per (x, t)
    memos, todo = {(x, t): top}, [(f, x, t, top)]
    # g -> g's free variables named t's name and more, filled by the folds at
    # renaming binders: every name _fresh_name picks here extends t's name
    fv, stem = {}, t.name if isinstance(t, Var) else ""
    while todo:
        job = g, x, t, done = todo.pop()
        sh = g.shape
        if sh.binds and g.var == x:
            done[g] = g  # bound occurrence shadows the substitution
        elif sh.binds and g.var == t:  # rename it away from the incoming t
            avoid = {v.name for v in fold(g.body, partial(_fv_at, stem), fv)}
            avoid |= {t.name, x.name}
            nv = Var(_fresh_name(t.name, avoid, 1))
            renamed = memos.setdefault((t, nv), {})
            body = renamed.get(g.body)
            if body in done:
                done[g] = type(g)(nv, g.domain, done[body])
            else:  # first the renaming, then the replacement
                todo += job, ((g.body, t, nv, renamed) if body is None
                              else (body, x, t, done))
        else:
            kids = sh.children(g)
            wait = [(k, x, t, done) for k in kids if k not in done]
            if wait:
                todo += job, *reversed(wait)
            else:
                done[g] = sh.rebuild(g, [done[k] for k in kids],
                                     [t if u == x else u for u in sh.terms(g)])
    return top[f]


def _fv_at(stem: str, g: Formula, kids: list) -> frozenset:
    """The variables of ``free_vars(g)`` whose names start with ``stem``,
    from those of its subformulas."""
    if g.shape.binds:
        return kids[0] - {g.var}
    return frozenset([u for u in g.shape.terms(g) if isinstance(u, Var)
                      and u.name.startswith(stem)]).union(*kids)


def substitute(f: Formula, x: Var, t: Term) -> Formula:
    """Replace free occurrences of ``x`` by the closed term ``t``."""
    if isinstance(t, Var):
        raise ValueError(f"substitution term must be closed: {t}")
    return replace_var(f, x, t)


def substitute_sequent(s: Sequent, x: Var, t: Term) -> Sequent:
    return map_sequent(s, lambda f: replace_var(f, x, t))


# --------------------------------------------------------------------------
# structural equality up to bound-variable renaming

def formula_equal(f: Formula, g: Formula) -> bool:
    """Structural equality up to renaming of bound variables: a bound
    variable reads as its binder's depth, any other term as itself."""
    # identity settles it only here, where no binder is open on either side
    if f is g:
        return True
    for (a, env_a), (b, env_b) in zip(walk(f), walk(g)):
        sh, ta, tb = a.shape, a.shape.terms(a), b.shape.terms(b)
        if (type(a) is not type(b)
                or sh.data is not None and sh.data(a) != sh.data(b)
                or tuple(map(env_a.get, ta, ta)) != tuple(map(env_b.get, tb, tb))):
            return False
    return True


def slot_equal(a: Slot, b: Slot) -> bool:
    return slots_match(a, b, formula_equal)


def sequent_equal(s: Sequent, t: Sequent) -> bool:
    return (len(s.left) == len(t.left) and len(s.right) == len(t.right)
            and all(map(slot_equal, s.left, t.left))
            and all(map(slot_equal, s.right, t.right)))


# --------------------------------------------------------------------------
# indexes on compounds

def index_set(f: Formula) -> frozenset:
    """Indexes of all atoms below ``f``.  Compounds derive their indexes
    from their atoms; no constructor introduces or erases one."""
    return frozenset([g.index for g, _ in walk(f)
                      if isinstance(g, Atom) and g.index is not None])


def formula_index(f: Formula) -> Optional[Index]:
    """The unique atom index of ``f``, or None when unindexed or mixed."""
    s = index_set(f)
    return next(iter(s)) if len(s) == 1 else None


def reindex(f: Formula, old: Index, new: Index) -> Formula:
    """Rename atom index ``old`` to ``new`` throughout."""
    return fold(f, lambda g, kids: Atom(g.pred, new, g.args)
                if isinstance(g, Atom) and g.index == old
                else g.shape.rebuild(g, kids))
