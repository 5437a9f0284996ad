"""Second-order conversion and the correlation connective through the rule
catalogue, and the distribution equality."""
import random

import pytest

from symlog.correlation import distribute_forall
from symlog.formulas import (
    Atom, CorrPair, IConst, IDENTICAL, IndexRel, Join, Member, OPPOSITE,
    Sequent, Single, Var, index_set, reindex, seq,
)
from symlog.rules import RuleContext, RuleError, check_proof, validate_rule

from genlib import proof_context, random_formula

z, x = Var("z"), Var("x")
a1, a2 = Atom("A", IConst(1), (z,)), Atom("A", IConst(2), (z,))
G = Atom("G", None, ())
REL = IndexRel(IConst(1), IDENTICAL, IConst(2))


@pytest.fixture
def ctx(config, registry):
    return RuleContext(config, registry)


def step(rule, s, ctx, **params):
    return validate_rule(rule, params, [s], None, ctx)


def to_relation(s, ctx, qpos=0):
    return step("conv_pair_elim", s, ctx, qpos=qpos)


def to_comma(t, ctx, rel, qpos=0):
    return step("conv_pair_intro", t, ctx, qpos=qpos,
                relpos=t.left.index(Single(rel)))


def pair_seq():
    return Sequent((Single(G), Single(Member(z, "Dplus"))),
                   (CorrPair(a1, IDENTICAL, a2),))


def test_convert_to_relation(ctx):
    out = to_relation(pair_seq(), ctx)
    assert out.left[-1] == Single(REL)
    assert out.right == (Single(a1),)


def test_convert_round_trip_exact_inverse(ctx):
    s = pair_seq()
    there = to_relation(s, ctx)
    assert there.left[-1] == Single(REL)
    back = to_comma(there, ctx, REL)
    assert back == s


def test_convert_idempotency_degenerate(ctx):
    s = seq([Atom("A", None, (z,))], [Atom("A", None, (z,)),
                                      Atom("A", None, (z,))])
    out = step("contract_r", s, ctx, i=0, j=1)
    assert out == seq([Atom("A", None, (z,))], [Atom("A", None, (z,))])
    again = step("expand_r", out, ctx, pos=0)
    assert again == s


def test_convert_slot_mismatch(ctx):
    with pytest.raises(RuleError):
        to_relation(seq([], [G]), ctx)


def test_convert_random_round_trips(ctx):
    rng = random.Random(11)
    count = 0
    while count < 200:
        base = random_formula(rng, 2)
        idx = index_set(base)
        if idx != frozenset({IConst(1)}):
            continue
        count += 1
        pair = CorrPair(base, IDENTICAL, reindex(base, IConst(1), IConst(2)))
        s = Sequent((Single(Member(z, "V")),), (pair,))
        there = to_relation(s, ctx)
        assert there.left[-1] == Single(REL)
        assert to_comma(there, ctx, REL) == s


def test_join_intro_and_elim(ctx):
    s = pair_seq()
    joined = step("join_intro", s, ctx, qpos=0)
    assert joined.right[0] == Single(Join(IDENTICAL, a1, a2))
    assert step("join_elim", joined, ctx, qpos=0) == s


def test_join_needs_virtual_singleton(ctx):
    s = Sequent((Single(Member(z, "Ddown")),), (CorrPair(a1, IDENTICAL, a2),))
    with pytest.raises(RuleError) as err:
        step("join_intro", s, ctx, qpos=0)
    assert err.value.code == "NotVirtualSingleton"


def test_distribution_all_virtual_singletons():
    cfg, reg = proof_context()
    b1, b2 = Atom("A", IConst(1), (x,)), Atom("A", IConst(2), (x,))
    for dom in ("Dplus", "Dminus", "V"):
        for tag in (IDENTICAL, OPPOSITE):
            fwd, conv = distribute_forall(dom, b1, b2, tag, cfg, reg)
            assert check_proof(fwd, cfg, reg).ok, (dom, tag.kind)
            assert check_proof(conv, cfg, reg).ok, (dom, tag.kind)


def test_distribution_rejects_focused_domain():
    cfg, reg = proof_context()
    b1, b2 = Atom("A", IConst(1), (x,)), Atom("A", IConst(2), (x,))
    with pytest.raises(RuleError) as err:
        distribute_forall("D", b1, b2, IDENTICAL, cfg, reg)
    assert err.value.code == "NotVirtualSingleton"


@pytest.mark.parametrize("b1, b2, message", [
    (Atom("A", None, (x,)), Atom("A", IConst(2), (x,)),
     "distinct unique indexes"),
    (Atom("A", IConst(1), (x,)), Atom("A", IConst(1), (x,)),
     "distinct unique indexes"),
    (Atom("A", IConst(1), (x,)), Atom("B", IConst(2), (x,)),
     "agree up to their index"),
], ids=["unindexed", "same-index", "other-predicate"])
def test_distribution_refuses_unmatched_components(b1, b2, message):
    cfg, reg = proof_context()
    with pytest.raises(RuleError) as err:
        distribute_forall("Dplus", b1, b2, IDENTICAL, cfg, reg)
    assert err.value.code == "SideConditionViolated"
    assert message in err.value.message


def test_index_conservation_through_conversion(ctx):
    there = to_relation(pair_seq(), ctx)
    assert there.left[-1] == Single(REL)

    def indexes(seqt):
        out = []
        for slot in seqt.left + seqt.right:
            fs = (slot.formula,) if isinstance(slot, Single) else (slot.a, slot.b)
            for f in fs:
                out.extend(sorted(i.value for i in index_set(f)
                                  if isinstance(i, IConst)))
        return sorted(out)

    # the pair's two indexes survive: one on the kept formula, one in the
    # index relation
    kept = indexes(there)
    assert 1 in kept
