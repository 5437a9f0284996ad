"""Core syntax: substitution, free variables, alpha-equality, indexes,
interning."""
import copy
import gc
import pickle
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symlog.formulas import (
    And, Atom, CorrPair, CorrelationTag, Exists, Forall, Formula, IConst,
    IDENTICAL, Join, Member, OPPOSITE, Or, Outcome, Single, Var,
    formula_equal, formula_index, free_vars, index_set, reindex, replace_var,
    substitute,
)

from genlib import random_formula

z, y, x = Var("z"), Var("y"), Var("x")
t1 = Outcome("t1", Fraction(1, 2))
down1 = Outcome("down", Fraction(1))


def A(t):
    return Atom("A", None, (t,))


def test_outcome_probability_bounds():
    Outcome("ok", Fraction(1))
    with pytest.raises(ValueError):
        Outcome("bad", Fraction(0))
    with pytest.raises(ValueError):
        Outcome("bad", Fraction(3, 2))


def test_free_vars_bound_variable():
    assert free_vars(Forall(x, "D", A(x))) == frozenset()


def test_free_vars_membership():
    assert free_vars(Member(z, "D")) == frozenset({z})


def test_free_vars_join_indexes_not_first_order():
    j = Join(IDENTICAL, Atom("A", IConst(1), (z,)), Atom("A", IConst(2), (z,)))
    assert free_vars(j) == frozenset({z})


def test_substitute_plain():
    assert substitute(A(z), z, t1) == A(t1)


def test_substitute_shadowed():
    f = Forall(z, "D", A(z))
    assert substitute(f, z, t1) == f


def test_substitute_membership():
    assert substitute(Member(z, "Ddown"), z, down1) == Member(down1, "Ddown")


def test_substitute_rejects_open_terms():
    with pytest.raises(ValueError):
        substitute(A(z), z, y)


def test_substitute_idempotent_once_gone():
    g = substitute(And(A(z), Member(z, "D")), z, t1)
    assert substitute(g, z, t1) == g


def test_replace_var_avoids_capture():
    f = Forall(y, "D", And(A(y), A(z)))
    g = replace_var(f, z, y)
    assert isinstance(g, Forall)
    assert g.var != y  # binder renamed away from the incoming variable
    assert free_vars(g) == frozenset({y})


def test_alpha_equivalence():
    assert formula_equal(Forall(x, "D", A(x)), Forall(y, "D", A(y)))
    assert not formula_equal(And(A(z), A(y)), And(A(y), A(z)))


def test_join_tags_distinguish():
    a1, a2 = Atom("A", IConst(1), (z,)), Atom("A", IConst(2), (z,))
    assert Join(IDENTICAL, a1, a2) != Join(OPPOSITE, a1, a2)


def test_join_rejects_equal_indexes():
    a1 = Atom("A", IConst(1), (z,))
    for _ in range(3):  # a rejected formula is never stored, so never found
        with pytest.raises(ValueError):
            Join(IDENTICAL, a1, a1)


def test_correlation_tag_outcome_map():
    assert IDENTICAL.map_label("down") == "down"
    assert OPPOSITE.map_label("down") == "up"
    assert OPPOSITE.map_label("up") == "down"
    with pytest.raises(ValueError):
        CorrelationTag("sideways")


def test_index_propagation_through_constructors():
    rng = random.Random(7)
    a1 = Atom("A", IConst(1), (z,))
    for ctor in (lambda f: And(f, A(z)), lambda f: Or(A(y), f),
                 lambda f: Forall(x, "D", f), lambda f: Exists(x, "Dplus", f)):
        assert formula_index(ctor(a1)) == IConst(1)


def test_reindex():
    a1 = Atom("A", IConst(1), (z,))
    f = Forall(x, "Dplus", And(a1, Member(z, "D")))
    g = reindex(f, IConst(1), IConst(2))
    assert index_set(g) == frozenset({IConst(2)})


@given(st.integers(0, 10_000))
@settings(max_examples=200)
def test_substitution_respects_alpha_equality(seed):
    rng = random.Random(seed)
    f = random_formula(rng, 3)
    g = substitute(f, z, t1)
    assert formula_equal(g, substitute(f, z, t1))
    # substituting again cannot reintroduce the variable
    assert z not in free_vars(g)


# --------------------------------------------------------------------------
# interning: equal formulas are one object

def _structurally_equal(f, g) -> bool:
    """The reference equality of two formulas or two slots: one constructor
    and equal fields, where subformulas compare by this function and
    everything else (terms, indexes, tags, names) by value.  It never
    applies ``==`` to two formulas."""
    if type(f) is not type(g):
        return False
    for name in type(f).__slots__:
        a, b = getattr(f, name), getattr(g, name)
        if not (_structurally_equal(a, b) if isinstance(a, Formula)
                else a == b):
            return False
    return True


@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 2))
@settings(max_examples=300)
@example(5, 5, 2)
def test_interned_equality_agrees_with_structure(seed_f, seed_g, depth):
    # few seeds and shallow depths, so that equal pairs occur, both from
    # one seed drawn twice and from two seeds that happen to agree
    f = random_formula(random.Random(seed_f), depth)
    g = random_formula(random.Random(seed_g), depth)
    same = _structurally_equal(f, g)
    assert (f == g) is same
    assert (f is g) is same
    if same:
        assert hash(f) == hash(g)


def _chain(n: int):
    f = A(z)
    for _ in range(n):
        f = And(f, A(y))
    return f


def test_deep_formulas_are_one_object_and_compare_without_recursion():
    f, g = _chain(2000), _chain(2000)
    assert f is g
    assert f == g
    assert hash(f) == hash(g)


def test_two_slots_are_one_object_exactly_when_they_are_equal():
    """Over slots that mix Single and CorrPair under both tags, a pair beside
    a Single of each of its formulas, and a join of the same two."""
    a1, a2 = Atom("A", IConst(1), (z,)), Atom("A", IConst(2), (z,))
    fs = (a1, a2, Atom("p", None, ()), Join(IDENTICAL, a1, a2),
          Join(OPPOSITE, a1, a2))

    def slots():
        return [Single(f) for f in fs] + [
            CorrPair(f, tag, g) for tag in (IDENTICAL, OPPOSITE)
            for f in fs[:3] for g in fs[:3]]

    for s in slots():
        for t in slots():
            same = _structurally_equal(s, t)
            assert (s == t) is same and (s is t) is same
            if same:
                assert hash(s) == hash(t)


def test_an_unreferenced_formula_leaves_the_table():
    for make in (lambda: And(Atom("only_here", None, (z,)), A(y)),
                 lambda: CorrPair(A(z), OPPOSITE, Atom("only_here", None, ()))):
        f = make()
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None


def test_formula_fields_are_read_only():
    f = And(A(z), A(y))
    with pytest.raises(AttributeError):
        f.a = A(x)
    with pytest.raises(AttributeError):
        del f.b
    assert f.a is A(z) and f.b is A(y)


def test_copies_and_pickles_are_the_interned_formula():
    f = Forall(x, "D", And(Atom("A", IConst(1), (x, t1)), Member(x, "D")))
    for g in (f, CorrPair(f, IDENTICAL, Member(x, "D"))):
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g
