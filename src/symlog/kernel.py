"""Proof transformations, none of them trusted: symmetrization, macro
expansion and stock derivations.

Their output goes back through the checker in ``symlog.rules``, which this
module also exports.  The symmetry theorem is a proof transformation: each
rule is replaced by its mate, premise order is reversed, slot positions are
mirrored and each conclusion is mapped by ``symmetrize_sequent``, so the
transformed tree proves the symmetric sequent and passes the checker
unchanged.  Each transformation folds (``rules._fold``) the checker's
annotated proof (``annotate``), so only the checker decides validity.  The
fold visits each node object once, after its premises, so a node shared by
several steps is transformed once and the output shares its image in the
same places; the formula image links of ``symlog.dualities`` are
symmetrization's only memo.
"""
from __future__ import annotations

from .domains import Registry
from .dualities import (
    LiteralInvolution, symmetrize_formula, symmetrize_sequent,
)
from .formulas import (
    Eq, Formula, Outcome, Sequent, Single, Var, free_vars, fresh_var,
    replace_var,
)
from .rules import (
    MACRO_RULES, CalculusConfig, ProofNode, RuleContext, _fold, annotate,
    check_proof, mk, proof_equal,
)

__all__ = [
    "KernelError", "NotSymmetricConfig", "symmetrize_proof", "expand_derived",
    "build_forall_to_exists", "build_exists_to_forall", "build_refl_proof",
    "build_collapse_proof", "collapse_config", "ProofNode", "check_proof",
    "annotate", "proof_equal",
]


class KernelError(Exception):
    """A proof transformation does not apply to the proof it was given."""


class NotSymmetricConfig(KernelError):
    """Symmetrization needs matching left and right context flags."""


# --------------------------------------------------------------------------
# the symmetry transformation

# The mate table: each pair of mates is written once; the way back is
# derived.  An entry names the rule, its mate, whether the two premises
# swap, and what the mirror does to each parameter: FORMULA symmetrizes
# it, TERM swaps its outcome label, COPY keeps it, DUAL gives the mate a
# ``dual`` naming the involution (dropped on the way back), AS_EQ turns
# the equality form of membership into the ``neq`` duality, else into the
# involution's name (NEQ on the way back), and a tuple (k, side, width) is
# a slot position counted on side "l"/"r" of premise k or of the
# conclusion (CONCL), mirrored to ``len - width - pos``.  Parameter names
# pass through _RENAME.

FORMULA, TERM, COPY, DUAL, AS_EQ, NEQ = (
    "formula", "term", "copy", "dual", "as_eq", "neq")
CONCL = "conclusion"

_RENAME = {"apos": "bpos", "bpos": "apos", "lpos": "rpos", "rpos": "lpos",
           "i": "j", "j": "i", "y": "z", "z": "y", "mpos": "dpos",
           "dpos": "mpos"}

_MATE_PAIRS = (
    ("id", "id", False, {"a": FORMULA}),
    ("refl", "neq_refl", False, {"t": TERM}),
    ("member", "dual_member_refuted", False,
     {"domain": COPY, "term": TERM, "dual": DUAL}),
    ("dual_exclusion", "dual_em", False,
     {"domain": COPY, "var": COPY, "dual": COPY}),
    ("focus", "dual_focus", False, {"domain": COPY, "var": COPY, "dual": DUAL}),
    ("d_axiom", "d_axiom", False, {"domain": COPY, "dual": COPY, "z": COPY,
                                   "y": COPY, "hole": COPY, "body": FORMULA}),
    ("and_l1", "or_r2", False, {"pos": (0, "l", 1), "other": FORMULA}),
    ("and_l2", "or_r1", False, {"pos": (0, "l", 1), "other": FORMULA}),
    ("times_l", "par_r", False, {"pos": (0, "l", 2)}),
    ("imp_r", "excl_l", False, {}),
    ("weak_l", "weak_r", False, {"pos": (0, "l", 0), "formula": FORMULA}),
    ("contract_l", "contract_r", False, {"i": (0, "l", 1), "j": (0, "l", 1)}),
    ("expand_l", "expand_r", False, {"pos": (0, "l", 1)}),
    ("subst", "subst", False, {"var": COPY, "term": TERM, "domain": COPY}),
    ("eq_left", "neq_right", False,
     {"pos": (CONCL, "l", 1), "s": TERM, "t": TERM}),
    ("eq_left_elim", "neq_right_elim", False, {"pos": (0, "l", 1)}),
    ("conv_pair_elim", "conv_pair_elim_l", False, {"qpos": (0, "r", 1)}),
    ("conv_pair_intro", "conv_pair_intro_l", False,
     {"qpos": (0, "r", 1), "relpos": (0, "l", 1)}),
    ("join_intro", "join_intro_l", False, {"qpos": (0, "r", 1)}),
    ("join_elim", "join_elim_l", False, {"qpos": (0, "r", 1)}),
    ("and_r", "or_l", True, {"pos": (0, "r", 1)}),
    ("times_r", "par_l", True,
     {"pos": (CONCL, "r", 1), "apos": (0, "r", 1), "bpos": (1, "r", 1)}),
    ("imp_l", "excl_r", True, {"pos": (CONCL, "l", 1)}),
    ("cut", "cut", True, {"rpos": (0, "r", 1), "lpos": (1, "l", 1)}),
)

# The quantifier families, from the membership side.  Each line also pairs
# the ``_vsym`` forms (``exists_f_vsym`` takes ``forall_f``'s parameters).
# Over a domain the involution lists as self-dual the quantifier keeps its
# constructor, so there the mate is the rule's own ``_vsym`` twin instead.
_QUANTIFIER_MATES = (
    ("forall_f", "exists_f", False, {"var": COPY, "domain": COPY,
     "mpos": (0, "l", 1), "qpos": (0, "r", 1), "as_eq": AS_EQ}),
    ("forall_r", "exists_r", True, {"pos": (CONCL, "l", 1), "term": TERM,
     "var": COPY, "domain": COPY, "body": FORMULA, "as_eq": AS_EQ}),
)


def _reverse(params: dict, swap: bool) -> dict:
    """The parameter table of the way back from a mate."""
    out = {}
    for name, kind in params.items():
        back = _RENAME.get(name, name)
        if kind == AS_EQ:
            out["dual"] = NEQ
        elif isinstance(kind, tuple):
            where, side, width = kind
            if swap and where != CONCL:
                where = 1 - where
            out[back] = (where, "r" if side == "l" else "l", width)
        elif kind != DUAL:
            out[back] = kind
    return out


def _mate_tables():
    mates, twins = {}, {}

    def pair(rule, mate, swap, params):
        mates[rule] = (mate, swap, params)
        mates[mate] = (rule, swap, _reverse(params, swap))

    for entry in _MATE_PAIRS:
        pair(*entry)
    for rule, mate, swap, params in _QUANTIFIER_MATES:
        pair(rule, mate, swap, params)
        pair(mate + "_vsym", rule + "_vsym", swap, params)
        for r in (rule, mate):
            twins[r], twins[r + "_vsym"] = r + "_vsym", r
    return mates, twins


_MATES, _VSYM_TWIN = _mate_tables()


def symmetrize_proof(p: ProofNode, inv: LiteralInvolution,
                     cfg: CalculusConfig, registry: Registry) -> ProofNode:
    """Transform a checked proof into the proof of its symmetric sequent.

    Requires a symmetric configuration: the theorem trades left and right
    context liberalizations, so they must agree.  The proof is annotated
    first, so a bad node is refused as bad before any node is mated.
    """
    if cfg.left_contexts != cfg.right_contexts:
        raise NotSymmetricConfig(
            "proof symmetrization needs matching left/right context flags")
    return _sym_node(annotate(p, cfg, registry), inv)


def _sym_node(n: ProofNode, inv: LiteralInvolution) -> ProofNode:
    """Mate each node of the annotated proof ``n``."""
    return _fold(n, lambda node, mates, _: _mate(node, mates, inv))


def _mate(n: ProofNode, mates: list, inv: LiteralInvolution) -> ProofNode:
    """Apply the mate table to the annotated node ``n``, given its premises'
    mates; its conclusion is ``symmetrize_sequent`` of ``n``'s."""
    entry = _MATES.get(n.rule)
    if entry is None:
        hint = "; symmetrize its expanded form" if n.rule in MACRO_RULES else ""
        raise KernelError(f"no symmetric mate for rule {n.rule}{hint}")
    mate, swap, table = entry
    P, c = n.params, n.conclusion
    if n.rule in _VSYM_TWIN and P["domain"] in inv.self_dual_domains:
        mate = _VSYM_TWIN[n.rule]
    out = {}
    for name, kind in table.items():
        to = _RENAME.get(name, name)
        if isinstance(kind, tuple):
            where, side, width = kind
            s = c if where == CONCL else n.premises[where].conclusion
            out[to] = len(s.left if side == "l" else s.right) - width - P[name]
        elif kind == FORMULA:
            out[to] = symmetrize_formula(P[name], inv)
        elif kind == TERM:
            out[to] = inv.swap_term(P[name])
        elif kind == COPY:
            out[to] = P[name]
        elif kind == DUAL:
            out["dual"] = inv.name
        elif kind == AS_EQ:
            out["dual"] = "neq" if P.get("as_eq") else inv.name
        elif kind == NEQ and P["dual"] == "neq":
            out["as_eq"] = True
    return ProofNode(mate, out, tuple(mates[::-1] if swap else mates),
                     symmetrize_sequent(c, inv))


# --------------------------------------------------------------------------
# stock derivations

def build_forall_to_exists(ctx: RuleContext, dom: str, x: Var,
                           body: Formula) -> ProofNode:
    """``forall x in dom . body |- exists x in dom . body`` through the
    domain's declared inhabitant."""
    reg = ctx.registry
    rec = reg.get(dom)
    if not rec.inhabited:
        raise KernelError(f"{dom} has no declared inhabitant")
    w = reg.witness(dom)
    inst = replace_var(body, x, w)
    n1 = mk("member", {"domain": dom, "term": w})
    n2 = mk("id", {"a": inst})
    n3 = mk("forall_r", {"pos": 0, "term": w, "var": x, "domain": dom,
                         "body": body}, n1, n2)
    n4 = mk("dual_member_refuted", {"domain": dom, "term": w, "dual": "d"})
    return mk("exists_r", {"pos": 0, "term": w, "dual": "d", "var": x,
                           "domain": dom, "body": body}, n3, n4)


def build_exists_to_forall(ctx: RuleContext, dom: str, x: Var,
                           body: Formula) -> ProofNode:
    """``exists x in dom . body |- forall x in dom . body`` from the
    domain's licensed d-axiom schema."""
    reg = ctx.registry
    rec = reg.get(dom)
    if rec.duality is None:
        raise KernelError(f"{dom} carries no duality")
    d = rec.duality
    avoid = free_vars(body) | {x}
    z = fresh_var("z", avoid)
    y = fresh_var("y", avoid | {z})
    n1 = mk("d_axiom", {"domain": dom, "dual": d, "z": z, "y": y,
                        "hole": x, "body": body})
    n2 = mk("forall_f", {"var": z, "domain": dom, "mpos": 0, "qpos": 0}, n1)
    return mk("exists_f", {"var": y, "domain": dom, "dual": d,
                           "dpos": 1, "qpos": 0}, n2)


def build_refl_proof(u) -> ProofNode:
    return mk("refl", {"t": u}, conclusion=Sequent((), (Single(Eq(u, u)),)))


def collapse_config(registry: Registry, name: str) -> CalculusConfig:
    return CalculusConfig(
        left_contexts=True, right_contexts=True, weakening=True, cut=True,
        substitution_domains=frozenset({name}),
        d_axiom_domains=frozenset({(name, registry.get(name).duality)}),
        collapse_demo=True)


def build_collapse_proof(registry: Registry, cfg: CalculusConfig, name: str,
                         b: Outcome, a: Outcome) -> ProofNode:
    """With both licenses on ``name``, derive ``|- b = a`` for entries
    ``b``, ``a``: the domain is provably a singleton."""
    d = registry.get(name).duality
    z, y = Var("z"), Var("y")
    hole = Var("x")
    n1 = mk("d_axiom", {"domain": name, "dual": d, "z": z, "y": y,
                        "hole": hole, "body": Eq(hole, a)})
    n2 = mk("subst", {"var": z, "term": b, "domain": name}, n1)
    n3 = mk("subst", {"var": y, "term": a, "domain": name}, n2)
    n4 = mk("refl", {"t": a})
    n5 = mk("cut", {"rpos": 0, "lpos": 1}, n4, n3)
    n6 = mk("member", {"domain": name, "term": b})
    n7 = mk("cut", {"rpos": 0, "lpos": 0}, n6, n5)
    n8 = mk("dual_member_refuted", {"domain": name, "term": a, "dual": d})
    n9 = mk("cut", {"rpos": 1, "lpos": 0}, n7, n8)
    return annotate(n9, cfg, registry)


# --------------------------------------------------------------------------
# macro expansion

def expand_derived(p: ProofNode, cfg: CalculusConfig,
                   registry: Registry) -> ProofNode:
    """Rewrite derived (macro) rule applications into base-rule trees.

    The result has the same conclusion and passes the checker.
    """
    ctx = RuleContext(cfg, registry)

    def visit(n, prems, _):
        n = ProofNode(n.rule, dict(n.params), tuple(prems), n.conclusion)
        return _expand_one(n, ctx) if n.rule in MACRO_RULES else n

    return annotate(_fold(annotate(p, cfg, registry), visit), cfg, registry)


# Each _vsym macro is its base rule, on the macro's parameters, cut against
# a lemma that swaps the principal quantifier on ``side`` at position ``key``.
_VSYM_EXPANSION = {  # macro: (base, side, key, lemma, base parameter defaults)
    "forall_f_vsym": ("exists_f", "left", "qpos", build_forall_to_exists, {}),
    "exists_f_vsym": ("forall_f", "right", "qpos", build_forall_to_exists,
                      {"as_eq": False}),
    "forall_r_vsym": ("exists_r", "right", "pos", build_exists_to_forall, {}),
    "exists_r_vsym": ("forall_r", "left", "pos", build_exists_to_forall, {}),
}


def _expand_one(n: ProofNode, ctx: RuleContext) -> ProofNode:
    P = n.params
    if n.rule == "parallel_forall":
        prem = n.premises[0]
        nleft = len(prem.conclusion.left)
        e1 = mk("conv_pair_elim", {"qpos": P["qpos"]}, prem)
        e2 = mk("forall_f", {"var": P["var"], "domain": P["domain"],
                             "mpos": P["mpos"], "qpos": P["qpos"]}, e1)
        return mk("conv_pair_intro", {"qpos": P["qpos"], "relpos": nleft - 1},
                  e2, conclusion=n.conclusion)
    base, side, key, lemma, defaults = _VSYM_EXPANSION[n.rule]
    pos = P[key]
    e1 = mk(base, {**defaults, **P}, *n.premises)
    target = getattr(n.conclusion, side)[pos].formula
    swap = lemma(ctx, P["domain"], target.var, target.body)
    if side == "left":
        return mk("cut", {"rpos": 0, "lpos": pos}, swap, e1,
                  conclusion=n.conclusion)
    return mk("cut", {"rpos": pos, "lpos": 0}, e1, swap,
              conclusion=n.conclusion)
