"""Every formula walk on one hand-built sample of each constructor, a
digest pinning the walks' outputs on random formulas, and the walks on
formulas thousands of levels deep."""
import gc
import hashlib
import pickle
import random
import time
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from symlog.corpus import positive_proofs
from symlog.dualities import (
    IDENTITY_INV, PERP_INV, TOP_INV, LiteralInvolution, symmetrize_formula,
)
from symlog.formulas import (
    And, Atom, DualMember, Eq, Excl, Exists, Forall, Formula, IConst,
    IDENTICAL, Imp, IndexRel, Join, Member, Neq, OPPOSITE, Or, Outcome, Par,
    Times, Var, fold, formula_equal, free_vars, index_set, reindex,
    replace_var, slot_formulas, subformulas, walk,
)
from symlog.rules import _replaceable, annotate
from symlog.scripts import _preorder, print_formula
from symlog.search import _add_terms, _swap_term_formula

from genlib import proof_context, random_formula

z, y, w = Var("z"), Var("y"), Var("w")
up, down = Outcome("up", Fraction(1)), Outcome("down", Fraction(1))
i1, i2, i3 = IConst(1), IConst(2), IConst(3)
A1 = Atom("A", i1, (z,))
B2 = Atom("B", i2, (up,))


def C(a, b):
    return Atom("C", None, (a, b))


# Each row: a sample, then the expected results of the walks on it:
# children, terms, free_vars, replace_var(z -> y), index_set,
# reindex(1 -> 3), symmetrize under identity, z occurs, up occurs,
# swap(z, up), and replaceable(f, g, z, up) for each listed g.
ROWS = [
    (Atom("A", i1, (z, up)), (), (z, up), {z}, Atom("A", i1, (y, up)), {i1},
     Atom("A", i3, (z, up)), Atom("A", i1, (z, up)), True, True,
     Atom("A", i1, (up, up)),
     {Atom("A", i1, (up, z)): True, Atom("A", i1, (up, up)): True,
      Atom("A", i1, (y, up)): False, Atom("A", i2, (z, up)): False}),
    (Member(z, "D"), (), (z,), {z}, Member(y, "D"), set(), Member(z, "D"),
     DualMember(z, "D", "identity"), True, False, Member(up, "D"),
     {Member(up, "D"): True, Member(z, "V"): False}),
    (DualMember(z, "D", "d"), (), (z,), {z}, DualMember(y, "D", "d"), set(),
     DualMember(z, "D", "d"), DualMember(z, "D", "d"), True, False,
     DualMember(up, "D", "d"),
     {DualMember(up, "D", "d"): True, DualMember(up, "D", "e"): False}),
    (Eq(z, up), (), (z, up), {z}, Eq(y, up), set(), Eq(z, up), Neq(z, up),
     True, True, Eq(up, up), {Eq(up, z): True, Neq(z, up): False}),
    (Neq(z, up), (), (z, up), {z}, Neq(y, up), set(), Neq(z, up), Eq(z, up),
     True, True, Neq(up, up), {Neq(z, z): True, Neq(up, up): True}),
    (IndexRel(i1, OPPOSITE, i2), (), (), set(), IndexRel(i1, OPPOSITE, i2),
     set(), IndexRel(i1, OPPOSITE, i2), IndexRel(i2, OPPOSITE, i1), False,
     False, IndexRel(i1, OPPOSITE, i2),
     {IndexRel(i1, OPPOSITE, i2): True, IndexRel(i1, IDENTICAL, i2): False}),
    (Join(IDENTICAL, A1, B2), (A1, B2), (), {z},
     Join(IDENTICAL, Atom("A", i1, (y,)), B2), {i1, i2},
     Join(IDENTICAL, Atom("A", i3, (z,)), B2), Join(IDENTICAL, B2, A1),
     True, True, Join(IDENTICAL, Atom("A", i1, (up,)), B2),
     {Join(IDENTICAL, Atom("A", i1, (up,)), B2): True,
      Join(OPPOSITE, A1, B2): False}),
    (Forall(y, "D", C(y, z)), (C(y, z),), (), {z},
     Forall(Var("y1"), "D", C(Var("y1"), y)), set(), Forall(y, "D", C(y, z)),
     Exists(y, "D", C(y, z)), True, False, Forall(y, "D", C(y, up)),
     {Forall(y, "D", C(y, up)): True, Forall(w, "D", C(w, up)): False,
      Forall(y, "V", C(y, up)): False}),
    (Exists(z, "D", C(z, w)), (C(z, w),), (), {w}, Exists(z, "D", C(z, w)),
     set(), Exists(z, "D", C(z, w)), Forall(z, "D", C(z, w)), True, False,
     Exists(z, "D", C(z, w)),
     {Exists(z, "D", C(z, w)): True, Exists(z, "D", C(up, w)): False}),
]
for ctor, mate in ((And, Or), (Or, And), (Times, Par), (Par, Times),
                   (Imp, Excl), (Excl, Imp)):
    ROWS.append(
        (ctor(A1, B2), (A1, B2), (), {z}, ctor(Atom("A", i1, (y,)), B2),
         {i1, i2}, ctor(Atom("A", i3, (z,)), B2), mate(B2, A1), True, True,
         ctor(Atom("A", i1, (up,)), B2),
         {ctor(Atom("A", i1, (up,)), B2): True,
          ctor(Atom("A", i1, (up,)), Atom("B", i2, (up,))): True,
          mate(A1, B2): False, ctor(A1, Atom("B", i2, (y,))): False}))


def test_rows_cover_every_constructor():
    assert {type(row[0]) for row in ROWS} == set(Formula.__subclasses__())


@pytest.mark.parametrize("row", ROWS, ids=lambda row: type(row[0]).__name__)
def test_walks_on_each_constructor(row):
    (f, kids, terms, fv, replaced, indexes, reindexed, sym, has_z, has_up,
     swapped, replaceable) = row
    assert f.shape.children(f) == kids
    assert f.shape.terms(f) == terms
    assert f.shape.rebuild(f, kids) == f
    assert list(subformulas(f)) == [f, *kids]
    assert free_vars(f) == fv
    assert replace_var(f, z, y) == replaced
    assert index_set(f) == indexes
    assert reindex(f, i1, i3) == reindexed
    assert symmetrize_formula(f, IDENTITY_INV) == sym
    assert symmetrize_formula(sym, IDENTITY_INV) == f
    terms = _add_terms(f, set())
    assert (z in terms, up in terms) == (has_z, has_up)
    assert _swap_term_formula(f, z, up) == swapped
    assert formula_equal(f, f) and formula_equal(f, swapped) == (f == swapped)
    for g, want in replaceable.items():
        assert _replaceable(f, g, z, up) is want


def test_binders_rename_and_shadow():
    f = Forall(y, "D", C(y, z))
    assert replace_var(f, y, up) == f
    assert formula_equal(f, Forall(w, "D", C(w, z)))
    assert not formula_equal(f, Forall(z, "D", C(z, z)))
    assert _swap_term_formula(f, y, up) == f
    assert not _replaceable(f, Forall(y, "D", C(up, z)), y, up)
    assert _replaceable(f, f, y, up)
    self_dual = LiteralInvolution("top", self_dual_domains={"D"})
    assert symmetrize_formula(f, self_dual) == f


def test_walk_maps_bound_variables_to_binder_depths():
    """Each occurrence sees the variables of the binders above it, each
    mapped to the number of binders above its binder; leaving a binder
    undoes its entry, also where it shadowed an outer one."""
    fz, fy = Forall(z, "D", C(z, y)), Forall(y, "D", C(y, z))
    body = And(And(fz, fy), C(y, z))
    f = Forall(y, "D", body)
    assert [(g, dict(bound)) for g, bound in walk(f)] == [
        (f, {}), (body, {y: 0}), (And(fz, fy), {y: 0}), (fz, {y: 0}),
        (C(z, y), {y: 0, z: 1}), (fy, {y: 0}), (C(y, z), {y: 1}),
        (C(y, z), {y: 0})]


def test_join_reindex_keeps_distinct_indexes():
    with pytest.raises(ValueError):
        reindex(Join(IDENTICAL, A1, B2), i1, i2)


# --------------------------------------------------------------------------
# golden digest

VARS = tuple(Var(n) for n in ("z", "y", "w", "v"))
TERMS = VARS + (Outcome("t1", Fraction(1, 2)), Outcome("t2", Fraction(1, 2)),
                down, up)
INVS = (IDENTITY_INV, PERP_INV, TOP_INV, LiteralInvolution("d"))

# sha256 of the outputs below as the per-constructor isinstance walks gave
# them, before every walk moved onto the declared formula shapes
WALK_DIGEST = "2819881e60bb886e733a543c19ceda439066b2085477e819117eed835f455be6"


def _walk_digest(n: int = 2000, seed: int = 3) -> str:
    rng = random.Random(seed)
    h = hashlib.sha256()

    def put(tag, value):
        h.update(f"{tag}:{value!r}\n".encode())

    def outcome(fn, *args):
        try:
            return fn(*args)
        except ValueError as e:
            return type(e).__name__

    prev = random_formula(rng, 2)
    for _ in range(n):
        f = random_formula(rng, rng.randrange(1, 6),
                           rng.choice(("identity", "perp", "top", "d")))
        s, t = rng.sample(TERMS, 2)
        x, x2 = rng.sample(VARS, 2)
        put("subformulas", list(subformulas(f)))
        put("free_vars", sorted(map(repr, free_vars(f))))
        put("index_set", sorted(map(repr, index_set(f))))
        put("reindex", [outcome(reindex, f, IConst(i), IConst(3 - i))
                        for i in (1, 2)])
        put("replace_var", [replace_var(f, x, u) for u in (x2, s, t)])
        put("symmetrize", [symmetrize_formula(f, inv) for inv in INVS])
        terms = _add_terms(f, set())
        put("term_in", [u in terms for u in TERMS])
        swapped = [_swap_term_formula(f, s, t), _swap_term_formula(f, t, s)]
        if hasattr(f, "a"):
            swapped.append(f.shape.rebuild(
                f, (_swap_term_formula(f.a, s, t), f.b)))
        put("swap", swapped)
        put("alpha", [formula_equal(f, g) for g in [f, prev] + swapped]
            + [formula_equal(Forall(x, "D", f),
                             Forall(x2, "D", replace_var(f, x, x2)))])
        put("replaceable",
            [_replaceable(a, b, s, t, *oks)
             for a, b in [(f, g) for g in swapped + [prev]] + [(swapped[0], f)]
             for oks in ((True, True), (True, False), (False, True))])
        prev = f
    return h.hexdigest()


def test_walk_digest_unchanged():
    assert _walk_digest() == WALK_DIGEST


# --------------------------------------------------------------------------
# image links: symmetrize_formula against a fold that keeps none

def _unlinked_image(f: Formula, inv) -> Formula:
    """The symmetric image by the definition, one fold with no links."""
    mates = {And: Or, Times: Par, Imp: Excl, Eq: Neq, Forall: Exists}
    mates.update({b: a for a, b in mates.items()})

    def at(g, kids):
        sh = g.shape
        if sh.binds and g.domain in inv.self_dual_domains:
            return sh.rebuild(g, kids)
        if sh.subs:
            return sh.rebuild(g, kids[::-1], cls=mates.get(type(g), type(g)))
        if isinstance(g, Atom):
            return Atom(g.pred, g.index, tuple(map(inv.swap_term, g.args)))
        if isinstance(g, Member):
            return inv.dual_member(g.term, g.domain)
        if isinstance(g, DualMember):
            return Member(g.term, g.domain) if g.dual == inv.name else g
        if isinstance(g, IndexRel):
            return IndexRel(g.j, g.tag, g.i)
        return sh.rebuild(g, (), cls=mates[type(g)])

    return fold(f, at)


def _digest_formulas(n: int = 2000, seed: int = 3) -> list:
    """The formulas of _walk_digest, drawn in its order."""
    rng = random.Random(seed)
    out = [random_formula(rng, 2)]
    for _ in range(n):
        out.append(random_formula(rng, rng.randrange(1, 6),
                                  rng.choice(("identity", "perp", "top", "d"))))
        rng.sample(TERMS, 2), rng.sample(VARS, 2)
    return out


def _corpus_formulas() -> list:
    cfg, reg = proof_context()
    out = []
    for _item, _name, proof, _inv in positive_proofs():
        for node, _ in _preorder(annotate(proof, cfg, reg)):
            c = node.conclusion
            out += [g for s in c.left + c.right for g in slot_formulas(s)]
            out += [v for v in node.params.values() if isinstance(v, Formula)]
    return out


# its image under perp is Member(down@1, Ddown), whose own image is
# Member(down@1, Dup): perp is no involution here, so no link may lead back
NOT_INVOLUTIVE = DualMember(down, "Ddown", "perp")


@pytest.mark.parametrize("inv", INVS, ids=lambda inv: inv.name)
def test_linked_images_agree_with_the_definition(inv):
    formulas = _digest_formulas() + _corpus_formulas() + [NOT_INVOLUTIVE]
    for image_first in (True, False):
        fresh = replace(inv)  # an involution no formula links under yet
        wrong = []
        for f in formulas:
            want = _unlinked_image(f, inv)
            want_back = _unlinked_image(want, inv)
            if image_first:
                got = symmetrize_formula(f, fresh)
                got_back = symmetrize_formula(want, fresh)
            else:
                got_back = symmetrize_formula(want, fresh)
                got = symmetrize_formula(f, fresh)
            if (got, got_back) != (want, want_back):
                wrong.append((f, got, got_back))
        assert wrong == [], (image_first, len(wrong), wrong[:3])


def test_an_image_lives_only_while_the_caller_holds_it():
    f = And(A1, Atom("Q", None, (Var("only_here"),)))
    image = symmetrize_formula(f, IDENTITY_INV)
    assert f._image[0] is IDENTITY_INV and f._image[1]() is image
    assert image._image[1]() is f
    assert pickle.loads(pickle.dumps(f)) is f and "_image" not in repr(f)
    del image
    gc.collect()
    assert f._image[1]() is None
    assert symmetrize_formula(f, IDENTITY_INV) == Or(f.b, A1)


# --------------------------------------------------------------------------
# formulas of any depth

DEEP = 5000


def _and_chain(n: int = DEEP) -> Formula:
    f = A1
    for k in range(n):
        f = And(f, C(Var(f"v{k % 7}"), z))
    return f


def _forall_chain(n: int = DEEP) -> Formula:
    f = Atom("A", i1, (Var("v0"), z))
    for k in range(n):
        f = Forall(Var(f"v{k}"), "D", f)
    return f


@pytest.mark.parametrize("chain", [_and_chain, _forall_chain],
                         ids=["And", "Forall"])
def test_walks_take_any_depth(chain):
    """Every walk on a chain that holds the atom index 1, the free variable
    z, no y or w, and the term up nowhere."""
    f, n = chain(), DEEP
    assert sum(1 for _ in subformulas(f)) > n
    assert z in free_vars(f) and y not in free_vars(f)
    assert index_set(f) == {i1}
    assert index_set(reindex(f, i1, i3)) == {i3}
    assert free_vars(replace_var(f, z, y)) == free_vars(f) - {z} | {y}
    terms = _add_terms(f, set())
    assert z in terms and up not in terms
    swapped = _swap_term_formula(f, z, up)
    assert up in _add_terms(swapped, set())
    assert _replaceable(f, swapped, z, up)
    assert not _replaceable(f, swapped, z, down)
    assert formula_equal(Forall(z, "D", f), Forall(w, "D", replace_var(f, z, w)))
    assert not formula_equal(f, swapped)
    for inv in (IDENTITY_INV, PERP_INV):
        assert symmetrize_formula(symmetrize_formula(f, inv), inv) == f
    assert repr(f).count("(") > 2 * n
    assert len(print_formula(f)) > 2 * n
    assert Join(IDENTICAL, f, Atom("C", i2, ())).a is f


@pytest.mark.parametrize("walk", [free_vars, index_set])
def test_binders_cost_a_walk_no_more_than_connectives(walk):
    """A walk keeps one bound-variable map and undoes each binder's entry on
    the way out, so nested binders cost it no more than nested connectives
    (a copy of the map per binder makes the Forall chain 10-20x slower)."""
    def best(f):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            walk(f)
            times.append(time.perf_counter() - start)
        return min(times)

    and_chain, forall_chain = _and_chain(), _forall_chain()
    assert best(forall_chain) < 3 * best(and_chain)


@pytest.mark.parametrize("chain", [_and_chain, _forall_chain],
                         ids=["And", "Forall"])
def test_replace_var_renames_a_binder_over_any_depth(chain):
    t = Var("t")
    f = replace_var(Forall(t, "D", chain()), z, t)
    assert f.var == Var("t1") and free_vars(f) == free_vars(chain()) - {z} | {t}
    assert formula_equal(f, Forall(w, "D", replace_var(chain(), z, t)))


def _renaming_chain(x: Var, t: Var, n: int = 300) -> Formula:
    f = Atom("P", None, (x, t))
    for _ in range(n):
        f = Forall(t, "D", And(f, Atom("Q", None, (t,))))
    return f


def test_replace_var_renames_nested_binders():
    """Each binder of t is renamed and its body replaced twice, so nested
    binders of t must not repeat one another's work."""
    x, t, u = Var("x"), Var("t"), Var("u")
    f = replace_var(_renaming_chain(x, t), x, t)
    assert f.var == Var("t1") and free_vars(f) == {t}
    assert formula_equal(f, _renaming_chain(t, u))


def _renaming_siblings(x: Var, t: Var, n: int) -> Formula:
    """And(G1, And(G2, ... Gn)) over the binders Gk of _renaming_chain(x,
    t, k): each binder's body holds the binder before it."""
    chain = _renaming_chain(x, t, n)
    gs = [chain]
    while len(gs) < n:
        gs.append(gs[-1].body.a)
    f = chain
    for g in gs[1:]:
        f = And(g, f)
    return f


def _renaming_wide(x: Var, t: Var, n: int, stem: str = "v") -> Formula:
    """forall t in D . (B(x) & (A(v1) & (A(v2) & ... A(vn)))): one renaming
    binder over n distinct free variables, named ``stem`` and a number."""
    f = Atom("A", None, (Var(f"{stem}{n}"),))
    for k in range(n - 1, 0, -1):
        f = And(Atom("A", None, (Var(f"{stem}{k}"),)), f)
    return Forall(t, "D", And(Atom("B", None, (x,)), f))


@pytest.mark.parametrize("shape, n", [(_renaming_chain, 100),
                                      (_renaming_siblings, 100),
                                      (_renaming_wide, 200),
                                      (partial(_renaming_wide, stem="t"), 200)],
                         ids=["nested", "siblings", "wide", "wide-t"])
def test_replace_var_cost_grows_linearly_with_renaming_binders(shape, n):
    """The variable names of the formula are taken once per call, by a fold
    that visits each distinct subformula once, and every renamed binder
    takes the one name they leave fresh, so ten times the renaming binders
    cost about ten times as much (asking free_vars at each binder makes it
    about a hundred times).  Ten times the free variables under one binder
    cost about ten times too, also when they are named like the fresh name
    (t1 ... tn), where keeping each subformula's free variables made it
    about thirty times."""
    x, t = Var("x"), Var("t")

    def best(n):
        f, times = shape(x, t, n), []
        for _ in range(3):
            start = time.perf_counter()
            replace_var(f, x, t)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best(10 * n) < 20 * best(n)


def _textbook_replace(f: Formula, x: Var, t) -> Formula:
    """replace_var by the textbook recursion: a binder of t is renamed to
    the first of t1, t2, ... that is neither x nor free in its body."""
    sh = f.shape
    if sh.binds and f.var == x:
        return f
    if sh.binds and f.var == t:
        names, k = {v.name for v in free_vars(f.body)} | {x.name}, 1
        while f"{t.name}{k}" in names:
            k += 1
        v = Var(f"{t.name}{k}")
        body = _textbook_replace(_textbook_replace(f.body, t, v), x, t)
        return type(f)(v, f.domain, body)
    return sh.rebuild(f, [_textbook_replace(g, x, t) for g in sh.children(f)],
                      [t if u == x else u for u in sh.terms(f)])


def _named_formula(rng: random.Random, names: tuple, depth: int) -> Formula:
    """A random formula of atoms, conjunctions and quantifiers over the
    variables ``names``."""
    var = lambda: Var(rng.choice(names))
    kind = rng.randrange(4) if depth > 0 else 0
    if kind == 0:
        return Atom("P", None, tuple(var() for _ in range(rng.randrange(3))))
    if kind == 1:
        return And(_named_formula(rng, names, depth - 1),
                   _named_formula(rng, names, depth - 1))
    return (Forall, Exists)[kind - 2](var(), "D",
                                      _named_formula(rng, names, depth - 1))


@pytest.mark.parametrize("names", [("x", "y", "t", "t1", "t2", "t3"),
                                   ("x", "y", "z", "t")])
def test_replace_var_agrees_with_the_textbook_recursion(names):
    """Seeded calls against _textbook_replace: the results are alpha-equal
    with the same free variables, and the very same formula whenever no
    variable of f and not x is named like the fresh name, the incoming
    variable's name and digits."""
    rng, differ, renaming = random.Random(35), [], 0
    for _ in range(5000):
        f = _named_formula(rng, names, rng.randrange(1, 6))
        x, t = (Var(n) for n in rng.sample(names, 2))
        got, want = replace_var(f, x, t), _textbook_replace(f, x, t)
        binders = {g.var for g in subformulas(f) if g.shape.binds}
        renaming += t in binders
        clash = any(v.name.startswith(t.name) and v.name[len(t.name):].isdigit()
                    for v in binders | free_vars(f) | {x})
        if not (formula_equal(got, want) and free_vars(got) == free_vars(want)
                and (clash or got is want)):
            differ.append((f, x, t, got, want))
    assert renaming > 1000, "too few calls meet a binder of t"
    assert differ == [], (len(differ), differ[:3])
