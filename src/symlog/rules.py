"""The trusted base: the rule catalogue and the proof checker.

Search, symmetrization, macros, scripts and the corpus only build proofs,
and each goes back through ``check_proof``, so this file is all that must
be trusted (the de Bruijn criterion).  It imports only ``formulas``,
``domains`` and the standard library: no rule runs the symmetry map.

Each rule is a validator ``fn(params, premises, claimed, ctx) -> Sequent``
that either reconstructs the unique conclusion from the premises and the
rule's parameters, or (for the two equality-replacement rules, whose
occurrence choices are free) checks a claimed conclusion.  Slot positions
are explicit parameters throughout, which keeps conclusion reconstruction
deterministic and makes the proof-level symmetry transformation a pure
table-plus-position-mirror affair.

Context discipline: the base forms carry exactly the contexts shown in
their reconstruction; anything beyond that is gated by the configuration
flags (left/right context liberalization, weakening, cut) or by the
substitution / d-axiom licenses.

Side-mirrored rules are written once.  Where rules differ only in the side of
the turnstile they read and build (``and_l1`` and ``or_r1``, ``focus`` and
``dual_focus``, ...), one validator serves the group and is registered once per
rule by stacked ``@_rule`` lines.  Each line gives the rule's ``side``
("left" or "right") and whatever else differs, such as the constructor
``make`` or the other side ``far``; the validator receives them, with the
rule's ``name``, as the record ``rule`` before the usual arguments.  It reads
a side only through a ``Sequent`` field the record names and builds a sequent
only through ``_on`` and ``_beside``, so it never tests which side it serves.
Three mirrored pairs stay written out.  ``exists_f`` reads ``dual`` and asks
the registry before it reads its slot, ``forall_f`` after, so merged they
would report another fault on some calls with two.  ``imp_l``/``excl_r`` and
``forall_r``/``exists_r`` read opposite ends of a side with the premise roles
swapped, and ``excl_r`` checks its left context first, ``exists_r`` its right.

The checker folds over a proof on its own stack (``_fold``), validating
each node object once, after its premises: a shared node counts once in
``stats`` and, if bad, is reported once, at its first occurrence's path.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Optional

from .domains import FocusedNonSingleton, Registry, RegistryError
from .formulas import (
    And, Const, CorrPair, DualMember, Eq, Excl, Exists, Forall, Formula, Imp,
    IndexRel, Join, Member, Neq, Or, Outcome, Par, Sequent, Single, Slot,
    Term, Times, Var, formula_equal, formula_index, free_vars, reindex,
    replace_var, sequent_equal, shadows, slot_equal, slot_formulas,
    slots_match, substitute_sequent, walk,
)

__all__ = ["CalculusConfig", "RuleContext", "RuleError", "RULES",
           "MACRO_RULES", "validate_rule", "rule_arity", "ProofNode", "mk",
           "proof_equal", "CheckFailure", "CheckReport", "check_proof",
           "annotate"]


# --------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class CalculusConfig:
    left_contexts: bool = False
    right_contexts: bool = False
    weakening: bool = False
    cut: bool = False
    substitution_domains: frozenset = frozenset()
    d_axiom_domains: frozenset = frozenset()  # of (domain, duality) pairs
    collapse_demo: bool = False

    def __post_init__(self):
        object.__setattr__(self, "substitution_domains",
                           frozenset(self.substitution_domains))
        object.__setattr__(self, "d_axiom_domains",
                           frozenset(self.d_axiom_domains))

    def check_licenses(self, registry) -> CalculusConfig:
        """Both licenses on one domain prove it is a singleton, so outside
        collapse-demo mode the overlap is only allowed where that is
        already true: extensional singletons.  Substitution on a virtual
        singleton needs collapse-demo mode on its own.  Returns ``self``."""
        if self.collapse_demo:
            return self
        for name in sorted(self.substitution_domains):
            if name in registry and registry.get(name).virtual_singleton:
                raise ValueError(
                    f"substitution on the virtual singleton {name} "
                    f"requires collapse-demo mode")
        licensed = {d for d, _ in self.d_axiom_domains}
        for name in sorted(licensed & self.substitution_domains):
            if name in registry and registry.get(name).is_singleton:
                continue
            raise ValueError(
                f"domain {name} licensed for both substitution and d-axioms "
                f"needs collapse-demo mode")
        return self


@dataclass(frozen=True)
class RuleContext:
    cfg: CalculusConfig
    registry: Registry


class RuleError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def _need(cond: bool, code: str, message: str) -> None:
    if not cond:
        raise RuleError(code, message)


def _flag(ctx: RuleContext, flag: str, what: str) -> None:
    if not getattr(ctx.cfg, flag):
        raise RuleError("ContextNotLicensed",
                        f"{what} requires {flag} liberalization")


def _extra(ctx: RuleContext, side: str, cond: bool) -> None:
    """Extra context on ``side`` needs that side's liberalization."""
    if cond:
        _flag(ctx, side + "_contexts", f"extra {side} context")


# --------------------------------------------------------------------------
# slot helpers

def _fml(slot: Slot, what: str = "slot") -> Formula:
    _need(isinstance(slot, Single), "SlotMismatch",
          f"{what} must be a single formula, got a correlated pair")
    return slot.formula


def _at(slots: tuple, pos, what: str) -> Slot:
    _need(isinstance(pos, int) and 0 <= pos < len(slots), "SlotMismatch",
          f"{what}: position {pos} out of range for {len(slots)} slots")
    return slots[pos]


def _without(slots: tuple, pos: int) -> tuple:
    return slots[:pos] + slots[pos + 1:]


def _replaced(slots: tuple, pos: int, slot: Slot) -> tuple:
    return slots[:pos] + (slot,) + slots[pos + 1:]


def _inserted(slots: tuple, pos, slot: Slot) -> tuple:
    _need(isinstance(pos, int) and 0 <= pos <= len(slots), "SlotMismatch",
          f"insert position {pos} out of range")
    return slots[:pos] + (slot,) + slots[pos:]


def _on(s: Sequent, side: str, slots: tuple) -> Sequent:
    """``s`` with ``slots`` in place of its ``side``."""
    return Sequent(slots, s.right) if side == "left" else Sequent(s.left, slots)


def _beside(s: Sequent, side: str, slot: Slot) -> Sequent:
    """``s`` with ``slot`` next to the turnstile on ``side``."""
    return Sequent(s.left + (slot,), s.right) if side == "left" \
        else Sequent(s.left, (slot,) + s.right)


def _var_fresh_for(z: Var, slots) -> bool:
    return all(z not in free_vars(f) for s in slots for f in slot_formulas(s))


# --------------------------------------------------------------------------
# occurrence-level replacement check for the equality rules

def _replaceable(f: Formula, g: Formula, s: Term, t: Term,
                 s_ok: bool = True, t_ok: bool = True) -> bool:
    """True when ``g`` arises from ``f`` by swapping free occurrences of
    ``s`` and ``t`` (each occurrence independently, either direction)."""
    for (f, bound), (g, _) in zip(walk(f), walk(g)):
        sh, tf, tg = f.shape, f.shape.terms(f), g.shape.terms(g)
        if (type(f) is not type(g) or len(tf) != len(tg)
                or sh.data is not None and sh.data(f) != sh.data(g)
                or sh.binds and f.var != g.var):  # no replacement renames
            return False
        free = not (bound and shadows(bound, s, t))
        if not all(a == b or free and (s_ok and a == s and b == t
                                       or t_ok and a == t and b == s)
                   for a, b in zip(tf, tg)):
            return False
    return True


# --------------------------------------------------------------------------
# rule registry

RULES: dict = {}
MACRO_RULES: set = set()

# the kind of value each rule parameter takes; the script parser reads
# parameter text by it
_PARAM_KIND = {
    "pos": "int", "mpos": "int", "qpos": "int", "dpos": "int",
    "relpos": "int", "i": "int", "j": "int", "lpos": "int", "rpos": "int",
    "apos": "int", "bpos": "int",
    "as_eq": "bool",
    "a": "formula", "other": "formula", "formula": "formula", "body": "formula",
    "t": "term", "s": "term", "term": "term",
    "var": "term", "z": "term", "y": "term", "hole": "term",
    "domain": "str", "dual": "str",
}
_KIND_TYPE = {"int": int, "bool": bool, "formula": Formula,
              "term": (Var, Const, Outcome), "str": str}


def _rule(name: str, arity: int, macro: bool = False, **bound):
    """Register ``fn`` as rule ``name``.  With ``bound`` keywords (a
    side-mirrored group), ``fn`` takes first a record of the rule's ``name``
    and those keywords."""
    def wrap(fn):
        rule = SimpleNamespace(name=name, **bound)
        RULES[name] = (arity, partial(fn, rule) if bound else fn)
        if macro:
            MACRO_RULES.add(name)
        return fn
    return wrap


def rule_arity(name: str) -> int:
    _need(name in RULES, "UnknownRule", name)
    return RULES[name][0]


def validate_rule(name: str, params: dict, premises, claimed, ctx) -> Sequent:
    """Validate one rule application, returning its conclusion."""
    _need(name in RULES, "UnknownRule", name)
    arity, fn = RULES[name]
    _need(len(premises) == arity, "ArityMismatch",
          f"{name} expects {arity} premises, got {len(premises)}")
    for key, value in params.items():
        kind = _PARAM_KIND.get(key)
        if kind is not None and (not isinstance(value, _KIND_TYPE[kind])
                                 or kind == "int" and isinstance(value, bool)):
            raise RuleError("BadParameter",
                            f"{name}: {key} must be a {kind}, got {value!r}")
    try:
        conclusion = fn(params, tuple(premises), claimed, ctx)
    except KeyError as e:
        raise RuleError("MissingParameter",
                        f"{name} needs the parameter {e.args[0]}") from None
    except RegistryError as e:
        raise RuleError("UnknownDomain", f"{name}: {e}") from None
    if claimed is not None:
        _need(sequent_equal(conclusion, claimed), "ConclusionMismatch",
              f"{name}: claimed conclusion differs from the reconstructed one")
    return conclusion


# --------------------------------------------------------------------------
# axioms

@_rule("id", 0)
def _r_id(params, premises, claimed, ctx):
    a = params["a"]
    return Sequent((Single(a),), (Single(a),))


@_rule("refl", 0, side="right", make=Eq)
@_rule("neq_refl", 0, side="left", make=Neq)
def _r_refl(rule, params, premises, claimed, ctx):
    t = params["t"]
    return _beside(Sequent((), ()), rule.side, Single(rule.make(t, t)))


@_rule("member", 0)
def _r_member(params, premises, claimed, ctx):
    dom, t = params["domain"], params["term"]
    _need(ctx.registry.is_member_axiom(t, dom), "SideConditionViolated",
          f"{t} is not a declared member of {dom}")
    return Sequent((), (Single(Member(t, dom)),))


@_rule("dual_member_refuted", 0)
def _r_dual_member_refuted(params, premises, claimed, ctx):
    dom, t, d = params["domain"], params["term"], params["dual"]
    _need(ctx.registry.dual_member_refuted(t, dom, d), "SideConditionViolated",
          f"({t} in {dom})^{d} is not refutable by the registry")
    return Sequent((Single(ctx.registry.dual_membership(t, dom, d)),), ())


@_rule("dual_exclusion", 0, side="left", what="dual exclusion")
@_rule("dual_em", 0, side="right", what="dual excluded middle")
def _r_dual_exclusion(rule, params, premises, claimed, ctx):
    dom, z, d = params["domain"], params["var"], params["dual"]
    _need(isinstance(z, Var), "SideConditionViolated",
          f"{rule.what} is issued for variables only")
    dual = ctx.registry.dual_membership(z, dom, d)
    return _on(Sequent((), ()), rule.side, (Single(Member(z, dom)), Single(dual)))


@_rule("focus", 0, side="right", far="left", reads=("domain", "var"),
       make=Eq, join=Or, member=lambda reg, z, dom: Member(z, dom))
@_rule("dual_focus", 0, side="left", far="right", reads=("domain", "var",
       "dual"), make=Neq, join=lambda e, rest: And(rest, e),
       member=lambda reg, z, dom, d: reg.dual_membership(z, dom, d))
def _r_focus(rule, params, premises, claimed, ctx):
    dom, z, *dual = [params[k] for k in rule.reads]
    rec = ctx.registry.get(dom)
    _need(rec.focused, "SideConditionViolated", f"{dom} is not focused")
    _need(bool(rec.entries), "SideConditionViolated", f"{dom} has no entries")
    # first entry outermost; dual_focus's chain is the IDENTITY_INV image
    chain = rule.make(z, rec.entries[-1])
    for e in reversed(rec.entries[:-1]):
        chain = rule.join(rule.make(z, e), chain)
    memb = Single(rule.member(ctx.registry, z, dom, *dual))
    return _beside(_beside(Sequent((), ()), rule.far, memb), rule.side, Single(chain))


@_rule("d_axiom", 0)
def _r_d_axiom(params, premises, claimed, ctx):
    dom, d = params["domain"], params["dual"]
    z, y, hole, body = params["z"], params["y"], params["hole"], params["body"]
    _need((dom, d) in ctx.cfg.d_axiom_domains, "DAxiomNotLicensed",
          f"d-axioms for ({dom}, {d}) are not licensed")
    ctx.registry.get(dom)  # an unknown domain fails before the variables
    _need(all(isinstance(v, Var) for v in (z, y, hole)) and z != y,
          "SideConditionViolated", "z, y and hole are variables, z and y distinct")
    try:
        u = ctx.registry.license_d_axiom(dom, d).singleton_entry
    except FocusedNonSingleton:
        raise RuleError("DAxiomNotLicensed", f"{dom} is neither a virtual nor "
                        f"an extensional singleton") from None
    if u is None:
        memb, dual = Member(z, dom), ctx.registry.dual_membership(y, dom, d)
    else:
        memb, dual = Eq(z, u), Neq(y, u)
    return Sequent((Single(memb), Single(replace_var(body, hole, y))),
                   (Single(replace_var(body, hole, z)), Single(dual)))


# --------------------------------------------------------------------------
# one-premise propositional rules

@_rule("and_l1", 1, side="left", make=And)
@_rule("and_l2", 1, side="left", make=lambda b, other: And(other, b))
@_rule("or_r1", 1, side="right", make=Or)
@_rule("or_r2", 1, side="right", make=lambda b, other: Or(other, b))
def _r_additive_one(rule, params, premises, claimed, ctx):
    p, pos, other = premises[0], params["pos"], params["other"]
    slots = getattr(p, rule.side)
    a = _fml(_at(slots, pos, rule.name))
    _extra(ctx, rule.side, len(slots) > 1)
    return _on(p, rule.side, _replaced(slots, pos, Single(rule.make(a, other))))


@_rule("times_l", 1, side="left", make=Times)
@_rule("par_r", 1, side="right", make=Par)
def _r_multiplicative_one(rule, params, premises, claimed, ctx):
    p, pos = premises[0], params["pos"]
    slots = getattr(p, rule.side)
    a = _fml(_at(slots, pos, rule.name))
    b = _fml(_at(slots, pos + 1, rule.name))
    _extra(ctx, rule.side, len(slots) > 2)
    pair = Single(rule.make(a, b))
    return _on(p, rule.side, slots[:pos] + (pair,) + slots[pos + 2:])


@_rule("imp_r", 1, side="right", make=Imp, roles=("antecedent", "succedent"),
       shape="the antecedent last on the left, succedent first on the right")
@_rule("excl_l", 1, side="left", make=Excl, roles=("kept side", "excluded side"),
       shape="its components adjacent to the turnstile")
def _r_implication(rule, params, premises, claimed, ctx):
    p = premises[0]
    _need(bool(p.left and p.right), "SlotMismatch", f"{rule.name} needs {rule.shape}")
    a = _fml(p.left[-1], f"{rule.name} {rule.roles[0]}")
    b = _fml(p.right[0], f"{rule.name} {rule.roles[1]}")
    _extra(ctx, rule.side, len(getattr(p, rule.side)) > 1)
    return _beside(Sequent(p.left[:-1], p.right[1:]), rule.side,
                   Single(rule.make(a, b)))


# --------------------------------------------------------------------------
# quantifier formation rules

def _bound(params) -> Var:
    """The rule's bound variable ``var``, which must be a variable."""
    z = params["var"]
    _need(isinstance(z, Var), "SideConditionViolated",
          f"a quantifier binds a variable, not {z}")
    return z


def _membership(t: Term, dom: str, as_eq: bool, ctx) -> Formula:
    """The membership of ``t`` in ``dom`` the universal rules expect:
    ``t in dom``, or with ``as_eq`` its equality form over an extensional
    singleton."""
    if not as_eq:
        return Member(t, dom)
    rec = ctx.registry.get(dom)
    _need(rec.is_singleton, "SideConditionViolated",
          "the equality form of membership needs an extensional singleton")
    return Eq(t, rec.entries[0])


@_rule("forall_f", 1)
def _r_forall_f(params, premises, claimed, ctx):
    p = premises[0]
    z, dom = _bound(params), params["domain"]
    mpos, qpos = params["mpos"], params["qpos"]
    as_eq = params.get("as_eq", False)
    slot = _at(p.left, mpos, "forall_f membership")
    _need(_fml(slot, "quantifier membership")
          == _membership(z, dom, as_eq, ctx), "SideConditionViolated",
          f"left slot {mpos} is not the membership of {z} in {dom}")
    body = _fml(_at(p.right, qpos, "forall_f principal"))
    rest = _without(p.left, mpos) + _without(p.right, qpos)
    _need(_var_fresh_for(z, rest), "SideConditionViolated",
          f"{z} occurs free outside the principal formula")
    _extra(ctx, "right", len(p.right) > 1)
    return Sequent(_without(p.left, mpos),
                   _replaced(p.right, qpos, Single(Forall(z, dom, body))))


@_rule("exists_f", 1)
def _r_exists_f(params, premises, claimed, ctx):
    p = premises[0]
    z, dom, d = _bound(params), params["domain"], params["dual"]
    dpos, qpos = params["dpos"], params["qpos"]
    dual = ctx.registry.dual_membership(z, dom, d)
    got = _fml(_at(p.right, dpos, "exists_f dual membership"))
    _need(got == dual, "SideConditionViolated",
          f"right slot {dpos} is not the dual membership of {z} in {dom}")
    body = _fml(_at(p.left, qpos, "exists_f principal"))
    rest = _without(p.left, qpos) + _without(p.right, dpos)
    _need(_var_fresh_for(z, rest), "SideConditionViolated",
          f"{z} occurs free outside the principal formula")
    _extra(ctx, "left", len(p.left) > 1)
    return Sequent(_replaced(p.left, qpos, Single(Exists(z, dom, body))),
                   _without(p.right, dpos))


# --------------------------------------------------------------------------
# structural rules

@_rule("weak_l", 1, side="left")
@_rule("weak_r", 1, side="right")
def _r_weak(rule, params, premises, claimed, ctx):
    _flag(ctx, "weakening", "weakening")
    p = premises[0]
    return _on(p, rule.side, _inserted(getattr(p, rule.side), params["pos"],
                                  Single(params["formula"])))


@_rule("contract_l", 1, side="left")
@_rule("contract_r", 1, side="right")
def _r_contract(rule, params, premises, claimed, ctx):
    p, i, j = premises[0], params["i"], params["j"]
    slots = getattr(p, rule.side)
    _need(0 <= i < j < len(slots), "SlotMismatch", f"{rule.name} positions")
    _need(slot_equal(slots[i], slots[j]), "SideConditionViolated",
          "contracted slots must be equal")
    return _on(p, rule.side, _without(slots, j))


@_rule("expand_l", 1, side="left")
@_rule("expand_r", 1, side="right")
def _r_expand(rule, params, premises, claimed, ctx):
    p, pos = premises[0], params["pos"]
    slots = getattr(p, rule.side)
    copy = _at(slots, pos, rule.name)
    return _on(p, rule.side, _inserted(slots, pos + 1, copy))


@_rule("subst", 1)
def _r_subst(params, premises, claimed, ctx):
    p = premises[0]
    z, t, dom = params["var"], params["term"], params["domain"]
    _need(dom in ctx.cfg.substitution_domains, "SubstitutionNotLicensed",
          f"substitution is not licensed for {dom}")
    rec = ctx.registry.get(dom)
    _need(isinstance(t, Outcome) and t in rec.entries, "SideConditionViolated",
          f"{t} does not denote an element of {dom}")
    _need(isinstance(z, Var), "SideConditionViolated",
          "substitution replaces a variable")
    return substitute_sequent(p, z, t)


# --------------------------------------------------------------------------
# equality rules

@_rule("eq_left", 1, side="left", make=Eq, noun="equation", op="=")
@_rule("neq_right", 1, side="right", make=Neq, noun="disequation", op="!=")
def _r_replacement(rule, params, premises, claimed, ctx):
    _need(claimed is not None, "ConclusionMismatch", f"{rule.name} carries "
          "free replacement choices; a conclusion is required")
    p, pos, s, t = premises[0], params["pos"], params["s"], params["t"]
    slots = getattr(claimed, rule.side)
    got = _fml(_at(slots, pos, f"{rule.name} {rule.noun}"))
    _need(got == rule.make(s, t), "SlotMismatch",
          f"conclusion slot {pos} is not the {rule.noun} {s} {rule.op} {t}")
    rest = _on(claimed, rule.side, _without(slots, pos))
    _need(len(rest.left) == len(p.left) and len(rest.right) == len(p.right),
          "SlotMismatch", f"{rule.name} changes no slot counts")
    for where in ("left", "right"):
        for a, b in zip(getattr(p, where), getattr(rest, where)):
            _need(slots_match(a, b, lambda f, g: _replaceable(f, g, s, t)),
                  "SideConditionViolated",
                  f"a {where} slot is not a replacement instance")
    return claimed


def _elim_gate(ctx: RuleContext, t: Term) -> None:
    if isinstance(t, Var):
        return
    for dom in ctx.cfg.substitution_domains:
        rec = ctx.registry.get(dom)
        if isinstance(t, Outcome) and t in rec.entries:
            return
    raise RuleError("SubstitutionNotLicensed",
                    f"eliminating a variable by the closed term {t} needs a "
                    f"substitution license covering it")


@_rule("eq_left_elim", 1, side="left", make=Eq, noun="an equation")
@_rule("neq_right_elim", 1, side="right", make=Neq, noun="a disequation")
def _r_elimination(rule, params, premises, claimed, ctx):
    p, pos = premises[0], params["pos"]
    slots = getattr(p, rule.side)
    f = _fml(_at(slots, pos, rule.name))
    _need(isinstance(f, rule.make) and isinstance(f.lhs, Var), "SlotMismatch",
          f"{rule.side} slot {pos} must be {rule.noun} with a variable on "
          "the left")
    z, t = f.lhs, f.rhs
    _elim_gate(ctx, t)
    stripped = _on(p, rule.side, _without(slots, pos))
    return substitute_sequent(stripped, z, t) if z != t else stripped


# --------------------------------------------------------------------------
# conversion between correlated pairs and index relations

def _pair_components(slot: Slot, what: str):
    _need(isinstance(slot, CorrPair), "SlotMismatch",
          f"{what}: expected a correlated pair")
    i, j = formula_index(slot.a), formula_index(slot.b)
    _need(i is not None and j is not None and i != j, "SideConditionViolated",
          f"{what}: pair components need distinct unique indexes")
    _need(formula_equal(slot.b, reindex(slot.a, i, j)), "SideConditionViolated",
          f"{what}: pair components must agree up to their index")
    return slot.a, i, slot.tag, slot.b, j


@_rule("conv_pair_elim", 1, side="right", far="left", keep="a")
@_rule("conv_pair_elim_l", 1, side="left", far="right", keep="b")
def _r_conv_pair_elim(rule, params, premises, claimed, ctx):
    p, qpos = premises[0], params["qpos"]
    slots = getattr(p, rule.side)
    pair = _at(slots, qpos, rule.name)
    _a, i, tag, _b, j = _pair_components(pair, rule.name)
    kept = _replaced(slots, qpos, Single(getattr(pair, rule.keep)))
    return _beside(_on(p, rule.side, kept), rule.far, Single(IndexRel(i, tag, j)))


@_rule("conv_pair_intro", 1, side="right", far="left",
       make=lambda a, rel: CorrPair(a, rel.tag, reindex(a, rel.i, rel.j)))
@_rule("conv_pair_intro_l", 1, side="left", far="right",
       make=lambda a, rel: CorrPair(reindex(a, rel.j, rel.i), rel.tag, a))
def _r_conv_pair_intro(rule, params, premises, claimed, ctx):
    p, qpos, relpos = premises[0], params["qpos"], params["relpos"]
    slots, far = getattr(p, rule.side), getattr(p, rule.far)
    rel = _fml(_at(far, relpos, f"{rule.name} relation"))
    _need(isinstance(rel, IndexRel), "SlotMismatch",
          f"{rule.far} slot {relpos} is not an index relation")
    a = _fml(_at(slots, qpos, f"{rule.name} principal"))
    # one index before reindexing, which could give a join's operands one
    _need(formula_index(a) is not None, "SideConditionViolated",
          f"{rule.name}: pair components need distinct unique indexes")
    pair = rule.make(a, rel)
    _pair_components(pair, rule.name)
    rest = _on(p, rule.far, _without(far, relpos))
    return _on(rest, rule.side, _replaced(slots, qpos, pair))


# --------------------------------------------------------------------------
# the correlation connective

def _join_license(ctx: RuleContext, s: Sequent, a: Formula, b: Formula) -> None:
    def virtual(dom: str) -> bool:
        return dom in ctx.registry and ctx.registry.get(dom).virtual_singleton

    for slot in s.left + s.right:
        for f in slot_formulas(slot):
            if isinstance(f, (Member, DualMember)) and virtual(f.domain):
                return
    if all(isinstance(f, (Forall, Exists)) and virtual(f.domain)
           for f in (a, b)):
        return
    raise RuleError("NotVirtualSingleton",
                    "the correlation connective needs a virtual singleton "
                    "in context or as quantification domain")


@_rule("join_intro", 1, side="right")
@_rule("join_intro_l", 1, side="left")
def _r_join_intro(rule, params, premises, claimed, ctx):
    p, qpos = premises[0], params["qpos"]
    slots = getattr(p, rule.side)
    slot = _at(slots, qpos, rule.name)
    _need(isinstance(slot, CorrPair), "SlotMismatch",
          f"{rule.name} expects a correlated pair")
    _join_license(ctx, p, slot.a, slot.b)
    i = formula_index(slot.a)
    _need(i is None or i != formula_index(slot.b), "SideConditionViolated",
          f"{rule.name}: pair components need distinct unique indexes")
    join = Single(Join(slot.tag, slot.a, slot.b))
    return _on(p, rule.side, _replaced(slots, qpos, join))


@_rule("join_elim", 1, side="right")
@_rule("join_elim_l", 1, side="left")
def _r_join_elim(rule, params, premises, claimed, ctx):
    p, qpos = premises[0], params["qpos"]
    slots = getattr(p, rule.side)
    f = _fml(_at(slots, qpos, rule.name))
    _need(isinstance(f, Join), "SlotMismatch",
          f"{rule.name} expects a join formula")
    _join_license(ctx, p, f.a, f.b)
    return _on(p, rule.side, _replaced(slots, qpos, CorrPair(f.a, f.tag, f.b)))


# --------------------------------------------------------------------------
# two-premise rules

@_rule("and_r", 2, side="right", far="left", make=And)
@_rule("or_l", 2, side="left", far="right", make=Or)
def _r_additive_two(rule, params, premises, claimed, ctx):
    p1, p2, pos = premises[0], premises[1], params["pos"]
    s1, s2, far = getattr(p1, rule.side), getattr(p2, rule.side), rule.far
    a = _fml(_at(s1, pos, f"{rule.name} first component"))
    b = _fml(_at(s2, pos, f"{rule.name} second component"))
    _need(len(p1.left) == len(p2.left) and len(p1.right) == len(p2.right),
          "SlotMismatch", f"{rule.name} premises must share their contexts")
    _need(all(slot_equal(x, y) for x, y in zip(getattr(p1, far),
                                               getattr(p2, far))),
          "SlotMismatch", f"{rule.name} premises must share the {far} context")
    _need(all(k == pos or slot_equal(x, y)
              for k, (x, y) in enumerate(zip(s1, s2))),
          "SlotMismatch",
          f"{rule.name} premises must share the {rule.side} context")
    _extra(ctx, rule.side, len(s1) > 1)
    return _on(p1, rule.side, _replaced(s1, pos, Single(rule.make(a, b))))


@_rule("times_r", 2, side="right", make=Times)
@_rule("par_l", 2, side="left", make=Par)
def _r_multiplicative_two(rule, params, premises, claimed, ctx):
    p1, p2 = premises
    pos, apos, bpos = params["pos"], params["apos"], params["bpos"]
    s1, s2 = getattr(p1, rule.side), getattr(p2, rule.side)
    a = _fml(_at(s1, apos, f"{rule.name} first component"))
    b = _fml(_at(s2, bpos, f"{rule.name} second component"))
    d1, d2 = _without(s1, apos), _without(s2, bpos)
    _extra(ctx, rule.side, bool(d1) or bool(d2))
    both = Sequent(p1.left + p2.left, p1.right + p2.right)
    principal = Single(rule.make(a, b))
    return _on(both, rule.side, _inserted(d1 + d2, pos, principal))


@_rule("imp_l", 2)
def _r_imp_l(params, premises, claimed, ctx):
    p1, p2, pos = premises[0], premises[1], params["pos"]
    _need(len(p1.right) >= 1 and len(p2.left) >= 1, "SlotMismatch",
          "imp_l premise shapes")
    a = _fml(p1.right[0], "imp_l antecedent")
    b = _fml(p2.left[0], "imp_l succedent")
    _extra(ctx, "right", len(p1.right) > 1)
    _extra(ctx, "left", len(p2.left) > 1)
    return Sequent(_inserted(p1.left + p2.left[1:], pos, Single(Imp(a, b))),
                   p1.right[1:] + p2.right)


@_rule("excl_r", 2)
def _r_excl_r(params, premises, claimed, ctx):
    p1, p2, pos = premises[0], premises[1], params["pos"]
    _need(len(p1.right) >= 1 and len(p2.left) >= 1, "SlotMismatch",
          "excl_r premise shapes")
    b = _fml(p1.right[-1], "excl_r kept side")
    a = _fml(p2.left[-1], "excl_r excluded side")
    _extra(ctx, "left", len(p2.left) > 1)
    _extra(ctx, "right", len(p1.right) > 1)
    return Sequent(p1.left + p2.left[:-1],
                   _inserted(p1.right[:-1] + p2.right, pos, Single(Excl(b, a))))


@_rule("forall_r", 2)
def _r_forall_r(params, premises, claimed, ctx):
    p1, p2 = premises
    pos, t = params["pos"], params["term"]
    z, dom, body = _bound(params), params["domain"], params["body"]
    _need(len(p1.right) >= 1 and len(p2.left) >= 1, "SlotMismatch",
          "forall_r premise shapes")
    memb = _fml(p1.right[0], "forall_r membership")
    _need(memb == _membership(t, dom, params.get("as_eq", False), ctx),
          "SideConditionViolated",
          f"first premise must conclude the membership of {t} in {dom}")
    inst = _fml(p2.left[0], "forall_r instance")
    _need(formula_equal(inst, replace_var(body, z, t)), "SideConditionViolated",
          "second premise must assume the instantiated body")
    _extra(ctx, "right", len(p1.right) > 1)
    _extra(ctx, "left", len(p2.left) > 1)
    return Sequent(_inserted(p1.left + p2.left[1:], pos,
                             Single(Forall(z, dom, body))),
                   p1.right[1:] + p2.right)


@_rule("exists_r", 2)
def _r_exists_r(params, premises, claimed, ctx):
    p1, p2 = premises
    pos, t, d = params["pos"], params["term"], params["dual"]
    z, dom, body = _bound(params), params["domain"], params["body"]
    _need(len(p1.right) >= 1 and len(p2.left) >= 1, "SlotMismatch",
          "exists_r premise shapes")
    inst = _fml(p1.right[-1], "exists_r instance")
    _need(formula_equal(inst, replace_var(body, z, t)), "SideConditionViolated",
          "first premise must conclude the instantiated body")
    dual = _fml(p2.left[-1], "exists_r dual membership")
    _need(dual == ctx.registry.dual_membership(t, dom, d),
          "SideConditionViolated",
          f"second premise must refute the dual membership of {t} in {dom}")
    _extra(ctx, "right", len(p1.right) > 1)
    _extra(ctx, "left", len(p2.left) > 1)
    return Sequent(p1.left + p2.left[:-1],
                   _inserted(p1.right[:-1] + p2.right, pos,
                             Single(Exists(z, dom, body))))


@_rule("cut", 2)
def _r_cut(params, premises, claimed, ctx):
    _flag(ctx, "cut", "cut")
    p1, p2 = premises
    rpos, lpos = params["rpos"], params["lpos"]
    c1 = _at(p1.right, rpos, "cut formula (right premise side)")
    c2 = _at(p2.left, lpos, "cut formula (left premise side)")
    _need(slot_equal(c1, c2), "SlotMismatch",
          "cut formulas do not match")
    left = p2.left[:lpos] + p1.left + p2.left[lpos + 1:]
    right = p1.right[:rpos] + p2.right + p1.right[rpos + 1:]
    return Sequent(left, right)


# --------------------------------------------------------------------------
# derived rules (macros): validated by shape here, expanded by
# kernel.expand_derived

def _vsym_eligible(ctx: RuleContext, dom: str) -> str:
    """Virtual singletons with licensed d-axioms and an inhabitant have
    direction-insensitive quantifiers; returns the licensed duality."""
    rec = ctx.registry.get(dom)
    _need(rec.virtual_singleton and rec.inhabited and rec.duality is not None,
          "SideConditionViolated",
          f"{dom} has no direction-insensitive quantifiers")
    _need((dom, rec.duality) in ctx.cfg.d_axiom_domains, "DAxiomNotLicensed",
          f"symmetric quantifier steps on {dom} need its d-axioms licensed")
    _need(ctx.cfg.cut and ctx.cfg.left_contexts and ctx.cfg.right_contexts,
          "SideConditionViolated",
          "symmetric quantifier steps need cut and both context liberalizations")
    return rec.duality


@_rule("parallel_forall", 1, macro=True)
def _r_parallel_forall(params, premises, claimed, ctx):
    p = premises[0]
    z, dom = _bound(params), params["domain"]
    mpos, qpos = params["mpos"], params["qpos"]
    rec = ctx.registry.get(dom)
    _need(rec.virtual_singleton, "NotVirtualSingleton",
          f"the parallel quantifier rule needs a virtual singleton, got {dom}")
    memb = _fml(_at(p.left, mpos, "parallel_forall membership"))
    _need(memb == Member(z, dom), "SideConditionViolated",
          f"left slot {mpos} is not the membership of {z} in {dom}")
    slot = _at(p.right, qpos, "parallel_forall principal")
    a, i, tag, b, j = _pair_components(slot, "parallel_forall")
    rest = _without(p.left, mpos) + _without(p.right, qpos)
    _need(_var_fresh_for(z, rest), "SideConditionViolated",
          f"{z} occurs free outside the principal pair")
    pair = CorrPair(Forall(z, dom, a), tag, Forall(z, dom, b))
    return Sequent(_without(p.left, mpos), _replaced(p.right, qpos, pair))


# Each symmetric quantifier step is its base rule with the principal
# quantifier swapped: ``base`` is the rule, ``key`` the parameter that
# places its principal formula on ``side``, ``make`` the new quantifier.
@_rule("forall_f_vsym", 1, macro=True, base=_r_exists_f, side="left",
       key="qpos", make=Forall)
@_rule("exists_f_vsym", 1, macro=True, base=_r_forall_f, side="right",
       key="qpos", make=Exists)
@_rule("forall_r_vsym", 2, macro=True, base=_r_exists_r, side="right",
       key="pos", make=Forall)
@_rule("exists_r_vsym", 2, macro=True, base=_r_forall_r, side="left",
       key="pos", make=Exists)
def _r_vsym(rule, params, premises, claimed, ctx):
    _vsym_eligible(ctx, params["domain"])
    out = rule.base(params, premises, claimed and None, ctx)
    slots, pos = getattr(out, rule.side), params[rule.key]
    f = slots[pos].formula
    swapped = Single(rule.make(f.var, f.domain, f.body))
    return _on(out, rule.side, _replaced(slots, pos, swapped))


# --------------------------------------------------------------------------
# the checker

@dataclass(frozen=True)
class ProofNode:
    rule: str
    params: dict
    premises: tuple = ()
    conclusion: Optional[Sequent] = None

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple(self.premises))


def mk(rule: str, params: Optional[dict] = None, *premises: ProofNode,
       conclusion: Optional[Sequent] = None) -> ProofNode:
    return ProofNode(rule, dict(params or {}), tuple(premises), conclusion)


def proof_equal(a: ProofNode, b: ProofNode) -> bool:
    """Equal node for node; each pair of node objects is compared once."""
    done, todo = {}, [(a, b)]  # id pair -> the pair, kept: no id is reused
    while todo:
        x, y = pair = todo.pop()
        if done.setdefault((id(x), id(y)), pair) is pair:
            if x.rule != y.rule or x.params != y.params \
                    or x.conclusion != y.conclusion \
                    or len(x.premises) != len(y.premises):
                return False
            todo.extend(zip(x.premises, y.premises))
    return True


@dataclass(frozen=True)
class CheckFailure:
    path: tuple
    rule: str
    reason: str

    def to_json(self):
        return {"path": list(self.path), "rule": self.rule, "reason": self.reason}


@dataclass
class CheckReport:
    ok: bool
    failures: list
    stats: dict

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "ok": self.ok,
            "failures": [f.to_json() for f in self.failures],
            "stats": self.stats,
        }


def _fold(p: ProofNode, visit):
    """Call ``visit(node, its premises' results in order, trail)`` once per
    node object, after its premises, first premise first, and return the
    root's result.  A node met again keeps its first result and trail (_path)."""
    done, todo = {}, [(p, None, None)]  # id(n) -> (n, result): n keeps its id
    while todo:
        n, trail, qs = todo.pop()
        if qs is not None:  # each premise is done
            done[id(n)] = n, visit(n, [done[id(q)][1] for q in qs], trail)
        elif id(n) not in done:  # read once: a read may build new objects
            todo.append((n, trail, qs := tuple(n.premises)))
            for k in range(len(qs) - 1, -1, -1):  # first premise on top
                todo.append((qs[k], (k, trail), None))
    return done[id(p)][1]


def _path(trail) -> tuple:
    path = []
    while trail:  # a trail is (premise index, the parent's trail)
        k, trail = trail
        path.append(k)
    return tuple(reversed(path))


def check_proof(p: ProofNode, cfg: CalculusConfig, registry: Registry) -> CheckReport:
    """Validate each node object of a proof once; never raises on bad proofs."""
    ctx = RuleContext(cfg.check_licenses(registry), registry)
    failures: list = []
    rules, subst, dax = Counter(), Counter(), Counter()

    def visit(node, concls, trail):
        P = node.params
        rules[node.rule] += 1
        if node.rule == "subst" and isinstance(P.get("domain"), str):
            subst[P["domain"]] += 1
        if node.rule == "d_axiom" and {"domain", "dual"} <= P.keys():
            dax[f"{P['domain']}:{P['dual']}"] += 1
        try:
            if None not in concls:
                return validate_rule(node.rule, P, concls, node.conclusion, ctx)
        except RuleError as e:
            failures.append(CheckFailure(_path(trail), node.rule, str(e)))

    _fold(p, visit)
    stats = {"nodes": sum(rules.values()), "rules": dict(sorted(rules.items())),
             "subst_domains": dict(sorted(subst.items())),
             "d_axiom_pairs": dict(sorted(dax.items()))}
    return CheckReport(ok=not failures, failures=failures, stats=stats)


def annotate(p: ProofNode, cfg: CalculusConfig, registry: Registry) -> ProofNode:
    """Conclude each node, keeping sharing; raises on a bad licence or node."""
    ctx = RuleContext(cfg.check_licenses(registry), registry)
    return _fold(p, lambda node, prems, _: ProofNode(
        node.rule, dict(node.params), tuple(prems),
        validate_rule(node.rule, node.params, [q.conclusion for q in prems],
                      node.conclusion, ctx)))
