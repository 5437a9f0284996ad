"""Bounded backward search: positives, negatives, determinism, depths."""
import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symlog.corpus import corpus_config
from symlog.domains import DomainRecord, Registry
from symlog.formulas import (
    And, Atom, CorrPair, DualMember, Eq, Excl, Exists, Forall, IConst,
    IDENTICAL, Imp, Member, Neq, OPPOSITE, Or, Outcome, Par, Sequent, Single,
    Times, Var, seq,
)
from symlog.rules import CalculusConfig, RuleContext, check_proof, proof_equal
from symlog.scripts import print_sequent
from symlog.search import DepthLimitError, _Engine, search_proof

from genlib import (
    proof_context, random_formula, random_goal, random_literal_goal,
)

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


def _ladder(config) -> list:
    """(goal, depth, config): the benchmark's search ladder without its
    costliest goal, chain6."""
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
    return goals


def _parity_goals(config) -> list:
    """(goal, depth, config): the ladder, then 1,000 random depth-6 goals."""
    rng = random.Random(0)
    return _ladder(config) + [(random_goal(rng), 6, config)
                              for _ in range(1000)]


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


class _Memo(dict):
    """A memo table that logs each write to its engine."""

    def __init__(self, engine, table):
        super().__init__()
        self.engine, self.table = engine, table

    def __setitem__(self, key, value):
        self.engine.record(self.table, key, value)
        super().__setitem__(key, value)


class _RecordingEngine(_Engine):
    """The engine, logging every memo write as (table, key, value): the
    proof's rule and height for a proved goal, the budget and bound-hit
    flag for a failed one.  Keys hold interned slots, so two engines key
    one goal alike."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.log = []
        self.proved, self.failed = _Memo(self, "proved"), _Memo(self, "failed")

    def record(self, table, key, value):
        if table == "proved":
            value = (value[0].rule, value[1])
        self.log.append((table, key, value))


class _EnumeratingEngine(_RecordingEngine):
    """The reference: ``prove`` as it was before a goal at budget 1 was
    settled from its axioms and the memo.  It enumerates every move at
    budget 1 too, stopping once a premise has hit the bound."""

    def prove(self, goal, budget):
        key = (goal.left, goal.right)
        hit = self.proved.get(key)
        if hit is not None and hit[1] <= budget:
            return hit
        if self._fails(key, budget):
            return None
        outer_hit = self.bound_hit
        self.bound_hit = False
        for rule, params, subgoals in self._moves(goal, budget - 1):
            if budget == 1 and self.bound_hit:
                break  # only the axiom moves, which come first, can succeed
            prems = []
            height = 0
            for sub in subgoals:
                got = self.prove(sub, budget - 1)
                if got is None:
                    break
                prems.append(got[0])
                height = max(height, got[1])
            else:
                node = self._apply(rule, params, prems, goal)
                if node is not None:
                    got = self.proved[key] = (node, height + 1)
                    self.bound_hit = outer_hit or self.bound_hit
                    return got
        local_hit = self.bound_hit
        self.bound_hit = outer_hit or local_hit
        self.failed[key] = (budget, local_hit)
        return None


def _memo_log(engine_class, goal, depth, cfg, registry) -> tuple:
    """The memo writes of search_proof's deepening loop run on an engine of
    ``engine_class``, and its final bound-hit flag."""
    engine = engine_class(RuleContext(cfg, registry))
    for d in range(1, depth + 1):
        engine.bound_hit = False
        if engine.prove(goal, d) is not None:
            break
    return engine.log, engine.bound_hit


@pytest.mark.parametrize("weakening", [True, False])
def test_budget_one_memo_parity(registry, weakening):
    """Settling a budget-1 goal from its axioms and the memo writes the same
    memo records in the same order as enumerating every move."""
    rng = random.Random(15)
    goals = _ladder(corpus_config()) + [(random_goal(rng), 6, corpus_config())
                                        for _ in range(200)]
    # goals holding correlated pairs, whose slots key as CorrPair objects
    goals += [g for g in _uncovered_goals()
              if any(type(s) is CorrPair for s in g[0].left + g[0].right)][:40]
    for goal, depth, cfg in goals:
        cfg = dataclasses.replace(cfg, weakening=weakening)
        want = _memo_log(_EnumeratingEngine, goal, depth, cfg, registry)
        got = _memo_log(_RecordingEngine, goal, depth, cfg, registry)
        assert got == want, print_sequent(goal)


_FOCUSED = ("D", "Ddown", "Dup")


def _uncovered_goals() -> list:
    """(goal, depth, config): 300 seeded goals on paths the digests above
    never take, at depths 1 to 4 in turn, under three configurations in
    turn: left contexts alone with no licences or weakening, both contexts
    with substitution licences but no weakening, and the corpus's.  Each
    slot holds a correlated pair of indexed atoms, a membership of a
    variable in a focused domain, or one of two random formulas shared by
    both sides (with joins, outcome terms, quantifiers and literals)."""
    configs = (CalculusConfig(left_contexts=True, cut=True),
               CalculusConfig(True, True, False, True,
                              substitution_domains=frozenset(_FOCUSED)),
               corpus_config())
    variables = (z, Var("y"), Var("w"))
    rng = random.Random(15)

    def slot(pool):
        r = rng.random()
        if r < 0.15:
            t = rng.choice(variables)
            return CorrPair(Atom("A", IConst(1), (t,)),
                            rng.choice((IDENTICAL, OPPOSITE)),
                            Atom("A", IConst(2), (t,)))
        if r < 0.3:
            return Single(Member(rng.choice(variables), rng.choice(_FOCUSED)))
        return Single(rng.choice(pool))

    goals = []
    for i in range(300):
        pool = [random_formula(rng, rng.randrange(3)) for _ in range(2)]
        left = tuple(slot(pool) for _ in range(rng.randint(1, 3)))
        right = tuple(slot(pool) for _ in range(rng.randint(1, 2)))
        goals.append((Sequent(left, right), 1 + i % 4, configs[i % 3]))
    return goals


# sha256 over the outcomes of _uncovered_goals, computed before search
# settled a goal at budget 1 from its axioms and the memo alone: the
# digests above all run with weakening on, and only on Single slots.
_UNCOVERED_DIGEST = (
    "4b8f23b76ace17d3a2748d44ae477ea1d1ffabf26e4bbe10d9df114d8584a98e")


def test_uncovered_outcomes_unchanged(registry):
    h = hashlib.sha256()
    for goal, depth, cfg in _uncovered_goals():
        out = search_proof(goal, cfg, registry, depth=depth)
        h.update(json.dumps(out.to_json(), sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == _UNCOVERED_DIGEST

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
