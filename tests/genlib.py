"""Deterministic random generators shared by the property tests."""
from __future__ import annotations

import math
import random
from fractions import Fraction

from symlog.corpus import corpus_config, corpus_registry
from symlog.domains import Registry
from symlog.formulas import (
    And, Atom, CorrPair, DualMember, Eq, Excl, Exists, Forall, Formula,
    IConst, IDENTICAL, Imp, IndexRel, Join, Member, Neq, OPPOSITE, Or,
    Outcome, Par, Sequent, Single, Times, Var,
)
from symlog.qubits import Qubit
from symlog.rules import (
    CalculusConfig, ProofNode, RuleContext, RuleError, annotate, mk,
    validate_rule,
)

_DOMAINS = ("D", "Ddown", "Dup", "Dplus", "Dminus", "V")
_VARS = tuple(Var(n) for n in ("z", "y", "w", "v"))
_OUTCOMES = (Outcome("t1", Fraction(1, 2)), Outcome("t2", Fraction(1, 2)),
             Outcome("down", Fraction(1)), Outcome("up", Fraction(1)))


def random_term(rng: random.Random):
    return rng.choice(_VARS + _OUTCOMES)


def random_formula(rng: random.Random, depth: int = 4,
                   dual_tag: str = "identity") -> Formula:
    """A random formula whose dual-membership tags all match ``dual_tag``,
    so the symmetry map with that tag is involutive on it."""
    if depth <= 0:
        kind = rng.randrange(7)
        if kind == 0:
            return Atom(rng.choice("pqr"), None,
                        tuple(random_term(rng)
                              for _ in range(rng.randrange(2))))
        if kind == 1:
            idx = IConst(rng.choice((1, 2)))
            return Atom("A", idx, (random_term(rng),))
        if kind == 2:
            return Member(random_term(rng), rng.choice(_DOMAINS))
        if kind == 3:
            return DualMember(random_term(rng), rng.choice(_DOMAINS), dual_tag)
        if kind == 4:
            return Eq(random_term(rng), random_term(rng))
        if kind == 5:
            return Neq(random_term(rng), random_term(rng))
        return IndexRel(IConst(1), rng.choice((IDENTICAL, OPPOSITE)), IConst(2))
    kind = rng.randrange(9)
    sub = lambda: random_formula(rng, depth - rng.randrange(1, 3), dual_tag)
    if kind < 6:
        ctor = (And, Or, Times, Par, Imp, Excl)[kind]
        return ctor(sub(), sub())
    if kind == 6:
        a = Atom("A", IConst(1), (rng.choice(_VARS),))
        b = Atom("A", IConst(2), a.args)
        return Join(rng.choice((IDENTICAL, OPPOSITE)), a, b)
    v = rng.choice(_VARS)
    ctor = Forall if kind == 7 else Exists
    return ctor(v, rng.choice(_DOMAINS), sub())


_CONNECTIVES = (And, Or, Times, Par, Imp, Excl)
_PQR = tuple(Atom(c, None, ()) for c in "pqr")


def random_goal(rng: random.Random) -> Sequent:
    """A small propositional search goal: three one-connective formulas
    over p, q and r on the left, one on the right (the shape of the
    benchmark's random search goals)."""
    def one():
        return rng.choice(_CONNECTIVES)(rng.choice(_PQR), rng.choice(_PQR))
    return Sequent(tuple(Single(one()) for _ in range(3)), (Single(one()),))


def random_literal_goal(rng: random.Random, registry: Registry) -> Sequent:
    """A small first-order search goal: one to three formulas on the left,
    one or two on the right, each a membership, a dual membership, an
    equality, a focus disjunction or a quantified literal over one of the
    standard domains."""
    terms = _VARS[:3] + tuple(sorted({e for d in _DOMAINS
                                      for e in registry.get(d).entries},
                                     key=repr))

    def literal(t):
        dom = rng.choice(_DOMAINS)
        kind = rng.randrange(6)
        if kind == 0:
            return Member(t, dom)
        if kind == 1:
            return registry.dual_membership(t, dom, rng.choice(("d", "top",
                                                                "neq", "perp")))
        if kind == 2:
            return DualMember(t, dom, rng.choice(("d", "top")))
        if kind == 3:
            return (Eq if rng.random() < 0.5 else Neq)(t, rng.choice(terms))
        if kind == 4 and isinstance(t, Var):  # the focus axiom's chain
            params = {"domain": rng.choice(("D", "Ddown", "Dup")), "var": t}
            ctx = RuleContext(CalculusConfig(), registry)
            return validate_rule("focus", params, (), None, ctx).right[0].formula
        return Atom("A", None, (t,))

    def one():
        if rng.random() < 0.25:
            v = rng.choice(_VARS[:3])
            return rng.choice((Forall, Exists))(v, rng.choice(_DOMAINS),
                                                literal(v))
        return literal(rng.choice(terms))
    return Sequent(tuple(Single(one()) for _ in range(rng.randint(1, 3))),
                   tuple(Single(one()) for _ in range(rng.randint(1, 2))))


_DUALS = ("identity", "d", "top", "perp", "neq")
_TAGS = (IDENTICAL, OPPOSITE)
_INT_KEYS = ("pos", "mpos", "qpos", "dpos", "relpos", "i", "j", "lpos",
             "rpos", "apos", "bpos")


def random_rule_calls(rng: random.Random, rules: dict, count: int):
    """``count`` random ``validate_rule`` calls (rule, params, premises,
    claimed) over ``rules`` (name -> arity), mostly ill-formed.  One term,
    variable and domain are drawn per call and recur in the parameters
    and the slots, so that a side condition sometimes holds.  The formulas
    come from pools built once: building interned formulas is slow."""
    terms, both = _VARS + _OUTCOMES, (1, 2)
    atom = {(u, i): Atom("A", IConst(i), (u,)) for u in terms for i in both}
    member = {(u, d): Member(u, d) for u in terms for d in _DOMAINS}
    dual = {(u, d, k): DualMember(u, d, k)
            for u in terms for d in _DOMAINS for k in _DUALS}
    joins = {u: [Join(g, atom[u, 1], atom[u, 2]) for g in _TAGS]
             for u in terms}
    two = {(z, u): Atom("A", None, (z, u)) for z in terms for u in terms}
    bodies = {(z, v, d): Forall(v, d, two[z, v])
              for z in terms for v in _VARS for d in _DOMAINS}
    flat = ([IndexRel(IConst(i), g, IConst(j))
             for i in both for g in _TAGS for j in both],
            [q(v, d, atom[v, i]) for q in (Forall, Exists) for v in _VARS
             for d in _DOMAINS for i in both],
            [e(u, w) for e in (Eq, Neq) for u in terms for w in terms],
            [random_formula(rng, rng.randrange(3)) for _ in range(200)])
    names = sorted(rules)
    for _ in range(count):
        t, dom = random_term(rng), rng.choice(_DOMAINS)
        z = rng.choice(_OUTCOMES) if rng.random() < 0.2 else rng.choice(_VARS)
        other = lambda: random_term(rng) if rng.random() < 0.3 else t
        domain = lambda: rng.choice(_DOMAINS) if rng.random() < 0.3 else dom

        def formula():
            u, kind = other(), rng.randrange(9)
            if kind == 0:
                return atom[u, rng.choice(both)]
            if kind == 1:
                return member[u, domain()]
            if kind == 2:
                return dual[u, domain(), rng.choice(_DUALS)]
            if kind == 3:
                return rng.choice(joins[u])
            if kind == 4:
                return two[z, u]
            return rng.choice(flat[kind - 5])

        def slot():
            if rng.random() < 0.25:
                u = other()
                return CorrPair(atom[u, rng.choice(both)], rng.choice(_TAGS),
                                atom[u, rng.choice(both)])
            return Single(formula())

        def sequent():
            return Sequent(tuple(slot() for _ in range(rng.randrange(4))),
                           tuple(slot() for _ in range(rng.randrange(4))))

        name = rng.choice(names)
        v = t if isinstance(t, Var) else rng.choice(_VARS)
        params = {k: rng.randint(-1, 3) for k in _INT_KEYS}
        params.update(
            as_eq=rng.random() < 0.2, a=formula(), other=formula(),
            formula=formula(), t=t, s=other(), term=t, var=z, z=z,
            body=rng.choice((two[z, z], formula(), bodies[z, v, domain()])),
            y=rng.choice(_VARS), hole=rng.choice(_VARS), domain=dom,
            dual=rng.choice(_DUALS))
        params = {k: x for k, x in params.items() if rng.random() < 0.9}
        premises = [sequent() for _ in range(rules[name])]
        claimed = rng.choice((None, sequent()) + tuple(premises[:1]))
        yield name, params, premises, claimed


def random_qubit(rng: random.Random) -> Qubit:
    a2 = rng.random()
    return Qubit(math.sqrt(a2), math.sqrt(1 - a2), rng.uniform(0, 2 * math.pi))


# --------------------------------------------------------------------------
# random checkable proofs

def proof_context():
    return corpus_config(), corpus_registry()


def _leaf(rng: random.Random, ctx: RuleContext) -> ProofNode:
    kind = rng.randrange(6)
    if kind == 0:
        return mk("refl", {"t": random_term(rng)})
    if kind == 1:
        dom = rng.choice(_DOMAINS)
        rec = ctx.registry.get(dom)
        return mk("member", {"domain": dom, "term": rng.choice(rec.entries)})
    if kind == 2:
        dom = rng.choice(_DOMAINS)
        return mk("dual_exclusion", {"domain": dom, "var": rng.choice(_VARS),
                                     "dual": "identity"})
    if kind == 3:
        dom = rng.choice(_DOMAINS)
        return mk("dual_em", {"domain": dom, "var": rng.choice(_VARS),
                              "dual": "identity"})
    if kind == 4:
        return mk("neq_refl", {"t": random_term(rng)})
    return mk("id", {"a": random_formula(rng, rng.randrange(3))})


def _grow(rng: random.Random, node: ProofNode, ctx: RuleContext) -> ProofNode:
    """One random downward step; returns the same node when the chosen
    rule does not apply."""
    s = node.conclusion
    nl, nr = len(s.left), len(s.right)
    singles_l = [i for i, sl in enumerate(s.left) if isinstance(sl, Single)]
    singles_r = [i for i, sl in enumerate(s.right) if isinstance(sl, Single)]
    moves = []
    other = lambda: random_formula(rng, rng.randrange(2))
    if singles_l:
        pos = rng.choice(singles_l)
        moves += [("and_l1", {"pos": pos, "other": other()}, ()),
                  ("and_l2", {"pos": pos, "other": other()}, ())]
    if singles_r:
        pos = rng.choice(singles_r)
        moves += [("or_r1", {"pos": pos, "other": other()}, ()),
                  ("or_r2", {"pos": pos, "other": other()}, ())]
    moves += [("weak_l", {"pos": rng.randrange(nl + 1), "formula": other()}, ()),
              ("weak_r", {"pos": rng.randrange(nr + 1), "formula": other()}, ())]
    if singles_r:
        moves.append(("expand_r", {"pos": rng.choice(singles_r)}, ()))
    if nr >= 2 and singles_r and rng.random() < 0.5:
        pos = rng.choice(singles_r[:-1]) if singles_r[:-1] else 0
        moves.append(("par_r", {"pos": pos}, ()))
    if nl >= 2 and singles_l and rng.random() < 0.5:
        pos = rng.choice(singles_l[:-1]) if singles_l[:-1] else 0
        moves.append(("times_l", {"pos": pos}, ()))
    if nl >= 1 and nr >= 1:
        moves.append(("imp_r", {}, ()))
    if singles_r:
        moves.append(("and_r", {"pos": rng.choice(singles_r)}, (node,)))
    if singles_l:
        moves.append(("or_l", {"pos": rng.choice(singles_l)}, (node,)))
    rng.shuffle(moves)
    for rule, params, extra in moves:
        premises = (node,) + extra
        try:
            concl = validate_rule(rule, params,
                                  [p.conclusion for p in premises], None, ctx)
        except RuleError:
            continue
        return ProofNode(rule, params, premises, concl)
    return node


def random_proof(rng: random.Random, cfg: CalculusConfig, registry: Registry,
                 max_depth: int = 6) -> ProofNode:
    """A random proof of depth at most ``max_depth`` that the checker
    accepts, built by growing downward from a random axiom."""
    ctx = RuleContext(cfg, registry)
    while True:
        try:
            node = annotate(_leaf(rng, ctx), cfg, registry)
        except RuleError:
            continue
        break
    for _ in range(rng.randrange(max_depth)):
        node = _grow(rng, node, ctx)
    return node
