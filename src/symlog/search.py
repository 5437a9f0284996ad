"""Bounded backward proof search: iterative deepening with memoization.

The search is goal-directed over the analytic fragment of the catalog:
axiom closures, the logical rules read bottom-up, equality replacement,
focus cuts on focused memberships, substitution generalization, and
weakening drops.  It never invents cut formulas beyond the focus cut, so
a negative answer is evidence of underivability within this fragment at
the given depth, not a completeness claim.  Depth counts nodes on the
longest root-to-leaf path.  Given a configuration and a goal the result
is deterministic: moves are enumerated axioms-first, then by principal
slot left-to-right (right side before left), with term candidates in
registry order.  Axiom candidates come from the goal's shape; the rule
catalogue decides them (whether a domain is focused, which form a d-axiom
takes), so a candidate it rejects costs one ``validate_rule`` call.  The
focus cut takes its first premise, the ``focus`` axiom with its chain of
entry equations, from the catalogue too.

Two memo tables span one search: goals proved, each with its proof's
height, and goals that failed, each with the budget it failed under and
whether it hit the bound.  A proved entry answers only when its height is
at most the budget left, so a returned proof is never taller than the
reported depth.  A failure that hit the bound answers budgets up to its
own; one that did not is final and answers every budget.  Such a goal
failed each move for a reason no budget changes (a premise that failed
finally, or a rule that rejected proved premises), so by induction it has
no proof in the search fragment, and searching it again would record no
proof and hit no bound.  ``_fails`` holds this rule for ``prove`` and for
the moves: the context-splitting and weakening moves slice each first
premise's sides out of the goal's and build no premise that the memo
already fails.  A goal at budget 1 is settled by its axioms (a premise at
budget 0 always fails); its other moves only tell from the memo whether
the bound was hit.  The tables are keyed on the goal's two sides, tuples
of interned slots, so a lookup hashes objects by identity in C, never text.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .formulas import (
    And, CorrPair, DualMember, Eq, Excl, Exists, Forall, Formula, Imp,
    IndexRel, Join, Member, Neq, Or, Par, Sequent, Single, Slot, Term, Times,
    Var, fold, formula_equal, formula_index, fresh_var, map_sequent,
    replace_var, sequent_free_vars, shadows, slot_formulas, walk,
)
from .rules import (
    CalculusConfig, ProofNode, RuleContext, RuleError, _without, validate_rule,
)
from .scripts import proof_to_json

__all__ = ["SearchOutcome", "search_proof", "DEFAULT_MAX_DEPTH",
           "DepthLimitError"]

DEFAULT_MAX_DEPTH = 8


class DepthLimitError(ValueError):
    """A search asked for a depth below 1 or above its configured maximum."""


@dataclass
class SearchOutcome:
    proof: Optional[ProofNode]
    depth: int
    bound_hit: bool

    @property
    def found(self) -> bool:
        return self.proof is not None

    @property
    def status(self) -> str:
        if self.found:
            return "proved"
        return "depth-exceeded" if self.bound_hit else "not-found"

    def to_json(self) -> dict:
        return {"schema": 1, "status": self.status, "depth": self.depth,
                "proof": proof_to_json(self.proof) if self.proof else None}


def search_proof(goal: Sequent, cfg: CalculusConfig, registry,
                 depth: int = DEFAULT_MAX_DEPTH,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> SearchOutcome:
    if depth < 1:
        raise DepthLimitError(f"depth must be at least 1, got {depth}")
    if depth > max_depth:
        raise DepthLimitError(f"depth {depth} exceeds the configured "
                              f"maximum {max_depth}")
    engine = _Engine(RuleContext(cfg, registry))
    for d in range(1, depth + 1):
        engine.bound_hit = False
        got = engine.prove(goal, d)
        if got is not None:
            return SearchOutcome(got[0], d, False)
    return SearchOutcome(None, depth, engine.bound_hit)


class _Engine:
    def __init__(self, ctx: RuleContext):
        self.ctx = ctx
        self.reg = ctx.registry
        self.cfg = ctx.cfg
        self.proved: dict = {}  # goal key -> (proof, height)
        self.failed: dict = {}  # goal key -> (budget, bound hit)
        self.bound_hit = False
        self._terms: dict = {}  # slot -> the terms in it, on demand
        self._subst_entries = [
            (dom, t) for dom in sorted(self.cfg.substitution_domains)
            if dom in self.reg for t in self.reg.get(dom).entries]

    def _fails(self, key: tuple, budget: int) -> bool:
        """Whether ``prove`` returns None for the goal keyed ``key`` at
        ``budget`` without searching it; records a bound hit as it would."""
        hit = self.proved.get(key)
        if hit is not None and hit[1] <= budget:
            return False
        rec = self.failed.get(key)
        if rec is not None and (rec[0] >= budget or not rec[1]):
            self.bound_hit = self.bound_hit or rec[1]
            return True
        if budget <= 0:
            self.bound_hit = True
            return True
        return False

    def prove(self, goal: Sequent, budget: int) -> Optional[tuple]:
        """A proof of ``goal`` at most ``budget`` nodes tall, as the pair
        (proof, height), or None."""
        key = (goal.left, goal.right)
        hit = self.proved.get(key)
        if hit is not None and hit[1] <= budget:
            return hit
        if self._fails(key, budget):
            return None
        if budget == 1:
            return self._settle(goal, key)
        outer_hit = self.bound_hit
        self.bound_hit = False
        for rule, params, subgoals in self._moves(goal, budget - 1):
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

    def _settle(self, goal: Sequent, key: tuple) -> Optional[tuple]:
        """``prove`` at budget 1, where every premise gets budget 0 and fails:
        an axiom closes ``goal``, or it fails, and hits the bound when some
        other move's first premise lacks a final failure (drops asked first)."""
        for rule, params, _ in self._axiom_moves(goal):
            node = self._apply(rule, params, [], goal)
            if node is not None:
                got = self.proved[key] = (node, 1)
                return got
        outer_hit, self.bound_hit = self.bound_hit, False
        for moves in (self._weakening_moves(goal, 0), self._right_moves(goal, 0),
                      self._left_moves(goal, 0), self._subst_moves(goal)):
            while not self.bound_hit and (move := next(moves, None)):
                first = move[2][0]
                self._fails((first.left, first.right), 0)
        self.failed[key] = (1, self.bound_hit)
        self.bound_hit = outer_hit or self.bound_hit
        return None

    def _apply(self, rule: str, params: dict, prems: list,
               goal: Optional[Sequent]) -> Optional[ProofNode]:
        try:
            concl = validate_rule(rule, params,
                                  [p.conclusion for p in prems], goal, self.ctx)
        except RuleError:
            return None
        return ProofNode(rule, params, tuple(prems), concl)

    # -- move enumeration ----------------------------------------------------

    def _moves(self, goal: Sequent, sub: int) -> Iterator:
        """The moves on ``goal``; premises get budget ``sub``."""
        yield from self._axiom_moves(goal)
        yield from self._right_moves(goal, sub)
        yield from self._left_moves(goal, sub)
        yield from self._subst_moves(goal)
        yield from self._weakening_moves(goal, sub)

    def _cuts(self, left: tuple, right: tuple, sub: int, lpre=(), rpre=(),
              rpost=()) -> Iterator:
        """The cuts (k, j) of the contexts ``left`` and ``right`` whose first
        premise, with the sides lpre + left[:k] and rpre + right[:j] + rpost,
        the memo does not answer at budget ``sub``, as (k, j, that premise)."""
        for k in range(len(left) + 1):
            lk = lpre + left[:k]
            for j in range(len(right) + 1):
                if not self._fails(k1 := (lk, rpre + right[:j] + rpost), sub):
                    yield k, j, Sequent(*k1)

    def _axiom_moves(self, goal: Sequent) -> Iterator:
        nl, nr = len(goal.left), len(goal.right)
        if nl == 1 and nr == 1 and isinstance(goal.left[0], Single):
            f = goal.left[0].formula
            if formula_equal(goal.left[0], goal.right[0]):
                yield "id", {"a": f}, ()
            if isinstance(f, Member) and isinstance(f.term, Var):
                yield "focus", {"domain": f.domain, "var": f.term}, ()
        if nl == 0 and nr == 1 and isinstance(goal.right[0], Single):
            f = goal.right[0].formula
            if isinstance(f, Eq) and f.lhs == f.rhs:
                yield "refl", {"t": f.lhs}, ()
            if isinstance(f, Member):
                yield "member", {"domain": f.domain, "term": f.term}, ()
        if nl == 1 and nr == 0 and isinstance(goal.left[0], Single):
            f = goal.left[0].formula
            if isinstance(f, Neq) and f.lhs == f.rhs:
                yield "neq_refl", {"t": f.lhs}, ()
            for dom, t, d in self._dual_member_candidates(f):
                yield ("dual_member_refuted",
                       {"domain": dom, "term": t, "dual": d}, ())
        if nl == 2 and nr == 0:
            yield from self._exclusion_like("dual_exclusion", goal.left[0])
        if nl == 0 and nr == 2:
            yield from self._exclusion_like("dual_em", goal.right[0])
        yield from self._d_axiom_moves(goal)

    def _dual_member_candidates(self, f: Formula):
        if isinstance(f, DualMember):
            yield f.domain, f.term, f.dual
            return
        if isinstance(f, Member):
            # a table is an involution: only its image of f's domain maps to it
            for d in sorted(self.reg.involutions):
                dom = self.reg.involutions[d].swap_domain(f.domain)
                if dom is not None:
                    yield dom, f.term, d
        if isinstance(f, Neq):
            for dom in self.reg.names():
                rec = self.reg.get(dom)
                if rec.is_singleton and rec.entries[0] == f.rhs:
                    yield dom, f.lhs, "neq"

    def _exclusion_like(self, rule: str, first: Slot):
        if not isinstance(first, Single):
            return
        f = first.formula
        if not (isinstance(f, Member) and isinstance(f.term, Var)):
            return
        for d in self._tags_for(f.domain):
            yield rule, {"domain": f.domain, "var": f.term, "dual": d}, ()

    def _tags_for(self, dom: str) -> list:
        tags = []
        if dom in self.reg and self.reg.get(dom).duality:
            tags.append(self.reg.get(dom).duality)
        for d in sorted(self.reg.involutions):
            if d not in tags:
                tags.append(d)
        for d in ("d", "neq"):
            if d not in tags:
                tags.append(d)
        return tags

    def _d_axiom_moves(self, goal: Sequent) -> Iterator:
        """One ``d_axiom`` candidate per licensed (domain, duality) for a
        goal z in V, A(y) |- A(z), (y in V)^d, reading z and y as the first
        terms of its first and last formulas."""
        if len(goal.left) != 2 or len(goal.right) != 2 \
                or not self.cfg.d_axiom_domains \
                or not all(type(s) is Single for s in goal.left + goal.right):
            return
        memb, dual = goal.left[0].formula, goal.right[1].formula
        zs, ys = memb.shape.terms(memb), dual.shape.terms(dual)
        if not zs or not ys or type(zs[0]) is not Var:
            return  # replace_var abstracts a variable only
        hole = fresh_var("h", sequent_free_vars(goal))
        body = replace_var(goal.right[0].formula, zs[0], hole)
        for dom, d in sorted(self.cfg.d_axiom_domains):
            yield ("d_axiom", {"domain": dom, "dual": d, "z": zs[0],
                               "y": ys[0], "hole": hole, "body": body}, ())

    # -- principal moves, right side -------------------------------------------

    def _right_moves(self, goal: Sequent, sub: int) -> Iterator:
        for pos, slot in enumerate(goal.right):
            if isinstance(slot, CorrPair):
                ia, ib = map(formula_index, slot_formulas(slot))
                if ia is not None and ib is not None:
                    rel = IndexRel(ia, slot.tag, ib)
                    prem = _put(Sequent(goal.left + (Single(rel),), goal.right),
                                "right", pos, Single(slot.a))
                    yield ("conv_pair_intro",
                           {"qpos": pos, "relpos": len(goal.left)}, (prem,))
                continue
            f = slot.formula
            if isinstance(f, And):
                yield ("and_r", {"pos": pos},
                       (_put(goal, "right", pos, Single(f.a)),
                        _put(goal, "right", pos, Single(f.b))))
            elif isinstance(f, Or):
                yield ("or_r1", {"pos": pos, "other": f.b},
                       (_put(goal, "right", pos, Single(f.a)),))
                yield ("or_r2", {"pos": pos, "other": f.a},
                       (_put(goal, "right", pos, Single(f.b)),))
            elif isinstance(f, Par):
                prem = _put(goal, "right", pos, Single(f.a), Single(f.b))
                yield ("par_r", {"pos": pos}, (prem,))
            elif isinstance(f, Times):
                rest = _without(goal.right, pos)
                for k, j, p1 in self._cuts(goal.left, rest, sub,
                                           rpre=(Single(f.a),)):
                    p2 = Sequent(goal.left[k:], (Single(f.b),) + rest[j:])
                    yield ("times_r", {"pos": pos, "apos": 0, "bpos": 0},
                           (p1, p2))
            elif isinstance(f, Imp) and pos == 0:
                prem = Sequent(goal.left + (Single(f.a),),
                               (Single(f.b),) + goal.right[1:])
                yield ("imp_r", {}, (prem,))
            elif isinstance(f, Excl):
                rest = _without(goal.right, pos)
                for k, j, q1 in self._cuts(goal.left, rest, sub,
                                           rpost=(Single(f.a),)):
                    q2 = Sequent(goal.left[k:] + (Single(f.b),), rest[j:])
                    yield ("excl_r", {"pos": pos}, (q1, q2))
            elif isinstance(f, Forall):
                z = _pick_var(f, goal)
                inst = _put(goal, "right", pos,
                            Single(replace_var(f.body, f.var, z)))
                prem = Sequent(inst.left + (Single(Member(z, f.domain)),),
                               inst.right)
                yield ("forall_f", {"var": z, "domain": f.domain,
                                    "mpos": len(goal.left), "qpos": pos},
                       (prem,))
                if f.domain in self.reg and self.reg.get(f.domain).is_singleton:
                    u = self.reg.get(f.domain).entries[0]
                    prem = Sequent(inst.left + (Single(Eq(z, u)),),
                                   inst.right)
                    yield ("forall_f", {"var": z, "domain": f.domain,
                                        "mpos": len(goal.left), "qpos": pos,
                                        "as_eq": True}, (prem,))
            elif isinstance(f, Exists):
                rest = _without(goal.right, pos)
                for t in self._witnesses(f.domain, goal):
                    inst = Single(replace_var(f.body, f.var, t))
                    for d in self._tags_for(f.domain):
                        dual = self.reg.dual_membership(t, f.domain, d)
                        for k, j, q1 in self._cuts(goal.left, rest, sub,
                                                   rpost=(inst,)):
                            q2 = Sequent(goal.left[k:] + (Single(dual),),
                                         rest[j:])
                            yield ("exists_r",
                                   {"pos": pos, "term": t, "dual": d,
                                    "var": f.var, "domain": f.domain,
                                    "body": f.body}, (q1, q2))
            elif isinstance(f, Join):
                prem = _put(goal, "right", pos, CorrPair(f.a, f.tag, f.b))
                yield ("join_intro", {"qpos": pos}, (prem,))
            elif isinstance(f, Neq):
                rest = _put(goal, "right", pos)
                for prem in _replacement_premises(rest, f.lhs, f.rhs):
                    yield ("neq_right", {"pos": pos, "s": f.lhs, "t": f.rhs},
                           (prem,))

    # -- principal moves, left side --------------------------------------------

    def _left_moves(self, goal: Sequent, sub: int) -> Iterator:
        for pos, slot in enumerate(goal.left):
            if isinstance(slot, CorrPair):
                continue
            f = slot.formula
            if isinstance(f, And):
                yield ("and_l1", {"pos": pos, "other": f.b},
                       (_put(goal, "left", pos, Single(f.a)),))
                yield ("and_l2", {"pos": pos, "other": f.a},
                       (_put(goal, "left", pos, Single(f.b)),))
            elif isinstance(f, Or):
                yield ("or_l", {"pos": pos},
                       (_put(goal, "left", pos, Single(f.a)),
                        _put(goal, "left", pos, Single(f.b))))
            elif isinstance(f, Times):
                prem = _put(goal, "left", pos, Single(f.a), Single(f.b))
                yield ("times_l", {"pos": pos}, (prem,))
            elif isinstance(f, Par):
                rest = _without(goal.left, pos)
                for k, j, p1 in self._cuts(rest, goal.right, sub,
                                           lpre=(Single(f.a),)):
                    p2 = Sequent((Single(f.b),) + rest[k:], goal.right[j:])
                    yield ("par_l", {"pos": pos, "apos": 0, "bpos": 0},
                           (p1, p2))
            elif isinstance(f, Imp):
                rest = _without(goal.left, pos)
                for k, j, p1 in self._cuts(rest, goal.right, sub,
                                           rpre=(Single(f.a),)):
                    p2 = Sequent((Single(f.b),) + rest[k:], goal.right[j:])
                    yield ("imp_l", {"pos": pos}, (p1, p2))
            elif isinstance(f, Excl) and pos == len(goal.left) - 1:
                prem = Sequent(goal.left[:-1] + (Single(f.a),),
                               (Single(f.b),) + goal.right)
                yield ("excl_l", {}, (prem,))
            elif isinstance(f, Exists):
                z = _pick_var(f, goal)
                inst = _put(goal, "left", pos,
                            Single(replace_var(f.body, f.var, z)))
                for d in self._tags_for(f.domain):
                    dual = self.reg.dual_membership(z, f.domain, d)
                    prem = Sequent(inst.left, inst.right + (Single(dual),))
                    yield ("exists_f", {"var": z, "domain": f.domain,
                                        "dual": d, "dpos": len(goal.right),
                                        "qpos": pos}, (prem,))
            elif isinstance(f, Forall):
                rest = _without(goal.left, pos)
                for t in self._witnesses(f.domain, goal):
                    inst = Single(replace_var(f.body, f.var, t))
                    memb = Single(Member(t, f.domain))
                    for k, j, p1 in self._cuts(rest, goal.right, sub,
                                               rpre=(memb,)):
                        p2 = Sequent((inst,) + rest[k:], goal.right[j:])
                        yield ("forall_r",
                               {"pos": pos, "term": t, "var": f.var,
                                "domain": f.domain, "body": f.body}, (p1, p2))
            elif isinstance(f, Member) and isinstance(f.term, Var):
                # the catalogue builds the focus axiom, or refuses it
                focus = self._apply("focus", {"domain": f.domain,
                                              "var": f.term}, [], None)
                if focus is not None:
                    axiom = focus.conclusion
                    prem = _put(goal, "left", pos, axiom.right[0])
                    yield ("cut", {"rpos": 0, "lpos": pos}, (axiom, prem))
            elif isinstance(f, Eq):
                rest = _put(goal, "left", pos)
                for prem in _replacement_premises(rest, f.lhs, f.rhs):
                    yield ("eq_left", {"pos": pos, "s": f.lhs, "t": f.rhs},
                           (prem,))

    def _witnesses(self, dom: str, goal: Sequent) -> list:
        out: list = []
        if dom in self.reg:
            rec = self.reg.get(dom)
            out.extend(rec.entries)
            if rec.inhabited:
                out.append(self.reg.witness(dom))
        for v in sorted(sequent_free_vars(goal), key=lambda v: v.name):
            if v not in out:
                out.append(v)
        return out

    # -- generalization and weakening --------------------------------------------

    def _subst_moves(self, goal: Sequent) -> Iterator:
        if not self._subst_entries:
            return
        table = self._terms
        terms = set().union(*[
            table[n] if n in table else table.setdefault(n, _add_terms(n, set()))
            for n in goal.left + goal.right])
        if not terms:
            return
        for dom, t in self._subst_entries:
            if t in terms:
                z = fresh_var("z", sequent_free_vars(goal))
                prem = _swap_term_sequent(goal, t, z)
                yield ("subst", {"var": z, "term": t, "domain": dom}, (prem,))

    def _weakening_moves(self, goal: Sequent, sub: int) -> Iterator:
        if not self.cfg.weakening:
            return
        lk, rk = goal.left, goal.right
        for pos, slot in enumerate(lk):
            k1 = (_without(lk, pos), rk)
            if isinstance(slot, Single) and not self._fails(k1, sub):
                yield ("weak_l", {"pos": pos, "formula": slot.formula},
                       (Sequent(*k1),))
        for pos, slot in enumerate(rk):
            k1 = (lk, _without(rk, pos))
            if isinstance(slot, Single) and not self._fails(k1, sub):
                yield ("weak_r", {"pos": pos, "formula": slot.formula},
                       (Sequent(*k1),))


# --------------------------------------------------------------------------
# sequent surgery helpers

def _put(goal: Sequent, side: str, pos: int, *slots: Slot) -> Sequent:
    """``goal`` with ``slots`` in place of slot ``pos`` of its ``side``."""
    if side == "left":
        return Sequent(goal.left[:pos] + slots + goal.left[pos + 1:],
                       goal.right)
    return Sequent(goal.left, goal.right[:pos] + slots + goal.right[pos + 1:])


def _pick_var(f, goal: Sequent) -> Var:
    return fresh_var(f.var.name, sequent_free_vars(goal))


def _add_terms(n, out: set) -> set:
    """Add every term occurring in ``n``, a formula or a slot, to ``out``,
    and return it."""
    out.update(*[g.shape.terms(g) for g, _ in walk(n)])
    return out


def _swap_term_formula(f: Formula, old: Term, new: Term) -> Formula:
    return fold(f, lambda g, kids: (
        g if g.shape.binds and shadows((g.var,), old, new)
        else g.shape.rebuild(g, kids, [new if u == old else u
                                       for u in g.shape.terms(g)])))


def _swap_term_sequent(s: Sequent, old: Term, new: Term) -> Sequent:
    return map_sequent(s, lambda f: _swap_term_formula(f, old, new))


def _replacement_premises(rest: Sequent, s: Term, t: Term):
    """Candidate premises for an equality-replacement step read upward:
    undo all occurrences one way, the other way, or not at all."""
    seen = []
    for cand in (_swap_term_sequent(rest, s, t), _swap_term_sequent(rest, t, s),
                 rest):
        if cand not in seen:
            seen.append(cand)
            yield cand
