"""Bounded backward search: positives, negatives, determinism, depths."""
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symlog.corpus import corpus_config
from symlog.domains import DomainRecord, Registry
from symlog.formulas import (
    And, Atom, DualMember, Eq, Excl, Exists, Forall, Imp, Member, Neq, Or,
    Outcome, Par, Times, Var, seq,
)
from symlog.kernel import check_proof, proof_equal
from symlog.rules import CalculusConfig
from symlog.search import DepthLimitError, search_proof

from genlib import proof_context, random_goal, random_literal_goal

z, x = Var("z"), Var("x")
p, q = Atom("p", None, ()), Atom("q", None, ())
t1, t2 = Outcome("t1", Fraction(1, 2)), Outcome("t2", Fraction(1, 2))
dn, up = Outcome("down", Fraction(1, 2)), Outcome("up", Fraction(1, 2))


def A(t):
    return Atom("A", None, (t,))


def test_identity_goal(config, registry):
    out = search_proof(seq([p], [p]), config, registry, depth=2)
    assert out.found and out.depth == 1


def test_detachment_found(config, registry):
    out = search_proof(seq([Imp(p, q), p], [q]), config, registry, depth=4)
    assert out.found
    assert check_proof(out.proof, config, registry).ok


def test_reversal_nowhere(config, registry):
    out = search_proof(seq([Imp(p, q), q], [p]), config, registry, depth=8)
    assert not out.found
    assert out.status == "not-found"


def test_depth_cap_enforced(config, registry):
    with pytest.raises(ValueError):
        search_proof(seq([p], [p]), config, registry, depth=9, max_depth=8)


@pytest.mark.parametrize("depth", [0, -3])
def test_depth_below_one_refused(config, registry, depth):
    with pytest.raises(DepthLimitError, match="at least 1"):
        search_proof(seq([p], [p]), config, registry, depth=depth)


def test_deterministic(config, registry):
    goal = seq([Imp(p, q), p], [q])
    a = search_proof(goal, config, registry, depth=6)
    b = search_proof(goal, config, registry, depth=6)
    assert proof_equal(a.proof, b.proof)


def test_focus_dichotomy(config, registry):
    fa = Forall(x, "D", A(x))
    pos = search_proof(seq([And(A(t1), A(t2))], [fa]), config, registry,
                       depth=6)
    assert pos.found and pos.depth <= 6
    assert check_proof(pos.proof, config, registry).ok
    neg = search_proof(seq([And(A(dn), A(up))], [Forall(x, "Dplus", A(x))]),
                       config, registry, depth=8)
    assert not neg.found


def test_forall_entails_exists_on_focused(config, registry):
    for dom in ("D", "Ddown", "Dup"):
        goal = seq([Forall(x, dom, A(x))], [Exists(x, dom, A(x))])
        out = search_proof(goal, config, registry, depth=5)
        assert out.found, dom
        assert check_proof(out.proof, config, registry).ok


def test_membership_from_disjunction(config, registry):
    goal = seq([Or(Eq(z, t1), Eq(z, t2))], [Member(z, "D")])
    out = search_proof(goal, config, registry, depth=6)
    assert out.found
    assert check_proof(out.proof, config, registry).ok


def test_depth_exceeded_distinct_from_not_found(config, registry):
    # a provable goal searched under too small a bound reports the wall
    fa = Forall(x, "D", A(x))
    out = search_proof(seq([And(A(t1), A(t2))], [fa]), config, registry,
                       depth=3)
    assert not out.found
    assert out.status == "depth-exceeded"


def test_no_proof_of_the_absurd(config, registry):
    """The fully liberalized system with every stock license proves
    neither the empty sequent nor a bare atom at the bound."""
    for goal in (seq([], []), seq([], [p]), seq([q], [])):
        out = search_proof(goal, config, registry, depth=8)
        assert not out.found


def _height(node) -> int:
    return 1 + max((_height(prem) for prem in node.premises), default=0)


_ATOMS = st.sampled_from([p, q, Atom("r", None, ())])
_FORMULAS = st.one_of(_ATOMS, st.builds(
    lambda ctor, a, b: ctor(a, b),
    st.sampled_from([And, Or, Times, Par, Imp, Excl]), _ATOMS, _ATOMS))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(left=st.lists(_FORMULAS, max_size=3),
       right=st.lists(_FORMULAS, min_size=1, max_size=2),
       depth=st.integers(1, 6))
def test_depth_contract(left, right, depth):
    """A returned proof checks, and is never taller than the depth the
    search reports, which never exceeds the depth asked for."""
    config, registry = proof_context()
    out = search_proof(seq(left, right), config, registry, depth=depth)
    if out.found:
        assert check_proof(out.proof, config, registry).ok
        assert _height(out.proof) <= out.depth <= depth
    else:
        assert out.depth == depth


def _p(i):
    return Atom(f"p{i}", None, ())


def _parity_goals(config) -> list:
    """(goal, depth, config): the benchmark's search ladder without its
    costliest goal, chain6, then 1,000 random depth-6 goals."""
    v1, v2 = Outcome("v1", Fraction(1, 2)), Outcome("v2", Fraction(1, 2))
    no_subst = CalculusConfig(True, True, True, True,
                              d_axiom_domains=frozenset({("V", "d")}))
    no_dax = CalculusConfig(True, True, True, True,
                            substitution_domains=frozenset({"V"}),
                            collapse_demo=True)
    goals = [(seq([Imp(_p(i), _p(i + 1)) for i in range(k)] + [_p(0)],
                  [_p(k)]), k + 3, config) for k in (3, 4, 5)]
    goals += [(seq([And(_p(i), _p(i + 1)) for i in range(n)], [_p(11)]),
               7, config) for n in (3, 4, 5)]
    goals += [(seq([And(A(dn), A(up))], [Forall(x, "Dplus", A(x))]), 8, config),
              (seq([], [Eq(v2, v1)]), 8, no_subst),
              (seq([], [Eq(v2, v1)]), 8, no_dax),
              (seq([Imp(p, q), q], [p]), 8, config)]
    rng = random.Random(0)
    goals += [(random_goal(rng), 6, config) for _ in range(1000)]
    return goals


# sha256 over the outcomes of _parity_goals, computed with the search
# engine before its memo was keyed on formula numbers, when it still keyed
# on repr(goal) but already checked a proved entry's height.
_PARITY_DIGEST = (
    "e697550daccc28fb455ad710f17efafbb36d1310102fe2f1e1243b6e7b05a0b8")


def test_search_digest_unchanged(config, registry):
    h = hashlib.sha256()
    for goal, depth, cfg in _parity_goals(config):
        out = search_proof(goal, cfg, registry, depth=depth)
        h.update(json.dumps(out.to_json(), sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == _PARITY_DIGEST


# sha256 over chain6's outcome, computed before the search answered a
# premise from its memo key: the parity digest leaves chain6 out for its
# cost, yet chain6 is where the memo does most of its work.
_CHAIN6_DIGEST = (
    "307e8e2cc92390a597e95cbce2b25fcea1497f454d28e5add8046e0c2b509f21")


def test_chain6_outcome_unchanged(config, registry):
    goal = seq([Imp(_p(i), _p(i + 1)) for i in range(6)] + [_p(0)], [_p(6)])
    out = search_proof(goal, config, registry, depth=9, max_depth=9)
    digest = hashlib.sha256(
        json.dumps(out.to_json(), sort_keys=True).encode()).hexdigest()
    assert digest == _CHAIN6_DIGEST


def _first_order_goals(registry) -> list:
    """(goal, depth, config): every goal [memb, B(y')] |- [B(z), dual] of
    the d-axiom shape over membership, equality and dual literals, under
    the corpus licences, d-axioms on V alone and no licences; then 300
    seeded goals of mixed first-order literals."""
    y, w = Var("y"), Var("w")
    doms = ("D", "Ddown", "Dup", "Dplus", "Dminus", "V")
    units = [registry.get(d).entries[0] for d in ("Ddown", "Dup")]
    membs = [Member(z, d) for d in doms] + [Eq(z, u) for u in units]
    duals = ([DualMember(y, d, t) for d in doms for t in ("d", "top", "neq")]
             + [Member(y, d) for d in doms] + [Neq(y, u) for u in units])
    bodies = (A, lambda t: And(A(t), p), lambda t: Member(t, "Dplus"))
    configs = (corpus_config(),
               CalculusConfig(True, True, True, True,
                              d_axiom_domains=frozenset({("V", "d")})),
               CalculusConfig(True, True, True, True))
    goals = [(seq([m, b(y2)], [b(z), d]), 1, cfg) for cfg in configs
             for m in membs for d in duals for b in bodies for y2 in (y, w)]
    rng = random.Random(10)
    goals += [(random_literal_goal(rng, registry), 3, corpus_config())
              for _ in range(300)]
    return goals


# sha256 over the outcomes of _first_order_goals, computed before search
# left the side conditions of its axiom moves to the rule catalogue: the
# parity digest covers propositional goals only.
_FIRST_ORDER_DIGEST = (
    "a2376d4b3dacc993f8cfc1a49f077a80afcd173aa817480975d7796b2fccd338")


def test_first_order_outcomes_unchanged(registry):
    h = hashlib.sha256()
    for goal, depth, cfg in _first_order_goals(registry):
        out = search_proof(goal, cfg, registry, depth=depth)
        h.update(json.dumps(out.to_json(), sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == _FIRST_ORDER_DIGEST


def test_d_axiom_on_focused_virtual_singleton():
    """A focused virtual singleton under the equality duality renders its
    dual membership as a disequation; search takes the d-axiom's form from
    the checker, so it finds the instance the checker accepts."""
    u = Outcome("u", 1)
    reg = Registry()
    reg.register_domain(DomainRecord("F", (u,), focused=True,
                                     virtual_singleton=True, duality="neq"))
    cfg = CalculusConfig(d_axiom_domains=frozenset({("F", "neq")}))
    y = Var("y")
    out = search_proof(seq([Member(z, "F"), A(y)], [A(z), Neq(y, u)]),
                       cfg, reg, depth=1)
    assert out.found and out.proof.rule == "d_axiom"
    assert check_proof(out.proof, cfg, reg).ok
