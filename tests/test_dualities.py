"""The symmetry map and the two literal dualities as involutions."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlog.dualities import (
    IDENTITY_INV, LiteralInvolution, UnclassifiedLiteral, UnknownDuality,
    apply_duality,
    symmetrize_formula, symmetrize_sequent,
)
from symlog.formulas import (
    And, Atom, CorrPair, Excl, Forall, IConst, IDENTICAL, Imp, Member, Or,
    Outcome, Par, Sequent, Single, Times, Var, seq,
)

from genlib import random_formula

z, y, x = Var("z"), Var("y"), Var("x")
p, q = Atom("p", None, ()), Atom("q", None, ())


def A(t):
    return Atom("A", None, (t,))


def _lit(pred, label):
    return Atom(pred, None, (Outcome(label, Fraction(1)),))


QUBIT_LITERALS = [_lit(pred, lab) for pred in "AB" for lab in ("down", "up")] \
    + [Forall(x, dom, Atom(pred, None, (x,)))
       for pred in "AB" for dom in ("Dplus", "Dminus")]


def test_symmetrize_swaps_connectives_and_reverses():
    assert symmetrize_formula(Imp(p, q), IDENTITY_INV) == Excl(q, p)
    assert symmetrize_formula(Par(And(p, q), p), IDENTITY_INV) == \
        Times(symmetrize_formula(p, IDENTITY_INV),
              Or(symmetrize_formula(q, IDENTITY_INV), p))


def test_symmetrize_atom_fixed():
    assert symmetrize_formula(p, IDENTITY_INV) == p


def test_symmetrize_sequent_reverses_slots():
    s = seq([Imp(p, q), p], [q])
    out = symmetrize_sequent(s, IDENTITY_INV)
    assert out == seq([q], [p, Excl(q, p)])


def test_symmetrize_corr_pair():
    a1, a2 = Atom("A", IConst(1), (z,)), Atom("A", IConst(2), (z,))
    s = Sequent((Single(p),), (CorrPair(a1, IDENTICAL, a2),))
    out = symmetrize_sequent(s, IDENTITY_INV)
    assert out.left == (CorrPair(a2, IDENTICAL, a1),)
    assert out.right == (Single(p),)


@given(st.integers(0, 10_000))
@settings(max_examples=300)
def test_symmetrize_formula_involution(seed):
    rng = random.Random(seed)
    for inv in (IDENTITY_INV, LiteralInvolution("d")):
        f = random_formula(rng, 4, dual_tag=inv.name)
        assert symmetrize_formula(symmetrize_formula(f, inv), inv) == f


@given(st.integers(0, 10_000))
@settings(max_examples=200)
def test_symmetrize_sequent_involution(seed):
    rng = random.Random(seed)
    fs = [random_formula(rng, 3) for _ in range(4)]
    s = seq(fs[:2], fs[2:])
    assert symmetrize_sequent(symmetrize_sequent(s, IDENTITY_INV),
                              IDENTITY_INV) == s


def test_apply_duality_on_literals():
    a_down, a_up = _lit("A", "down"), _lit("A", "up")
    assert apply_duality(a_down, "perp") == a_up
    assert apply_duality(a_down, "top") == a_down
    plus = Forall(x, "Dplus", A(x))
    minus = Forall(x, "Dminus", A(x))
    assert apply_duality(plus, "perp") == plus
    assert apply_duality(plus, "top") == minus
    assert apply_duality(apply_duality(plus, "top"), "top") == plus


def test_apply_duality_quantified_sharp():
    f = Forall(x, "Ddown", A(x))
    assert apply_duality(f, "perp") == Forall(x, "Dup", A(x))
    assert apply_duality(f, "top") == f


def test_apply_duality_is_partial():
    with pytest.raises(UnclassifiedLiteral):
        apply_duality(Forall(x, "D", A(x)), "perp")
    with pytest.raises(UnclassifiedLiteral):
        apply_duality(Member(z, "Dplus"), "top")
    with pytest.raises(UnknownDuality):
        apply_duality(Member(z, "Dplus"), "perpp")
    with pytest.raises(UnclassifiedLiteral, match="body outside"):
        apply_duality(Forall(x, "Dplus", p), "top")


def test_apply_duality_on_the_mixed_state():
    """perp swaps both conjuncts' labels; top keeps them."""
    down, up = _lit("A", "down"), _lit("A", "up")
    assert apply_duality(And(down, up), "perp") == And(up, down)
    assert apply_duality(And(down, up), "top") == And(down, up)


def test_dualities_commute_on_the_eight_literals():
    for lit in QUBIT_LITERALS:
        one = apply_duality(apply_duality(lit, "perp"), "top")
        two = apply_duality(apply_duality(lit, "top"), "perp")
        assert one == two


def test_dualities_involutive_on_dictionary():
    for lit in QUBIT_LITERALS:
        for d in ("perp", "top"):
            assert apply_duality(apply_duality(lit, d), d) == lit


def test_involution_tables_validated():
    with pytest.raises(ValueError):
        LiteralInvolution("broken", domain_table={"A": "B", "B": "C"})
