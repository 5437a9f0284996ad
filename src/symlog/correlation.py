"""The parallel distribution of the universal quantifier over correlated
pairs.

The indexed comma, second-order conversion and the correlation
connective are rules of the trusted catalogue (``conv_pair_*`` and
``join_*`` in ``rules.py``); this module builds proofs from them.  The
distribution equality holds over virtual singletons only: the forward
proof runs through conversion and quantifier formation, and the converse
is the symmetric image of the forward proof for the swapped pair, relying
on the direction-insensitivity of quantifiers over such domains.
"""
from __future__ import annotations

from .domains import Registry
from .dualities import LiteralInvolution
from .formulas import (
    CorrelationTag, Formula, Join, Member, Var, formula_equal, formula_index,
    free_vars, fresh_var, reindex, replace_var,
)
from .kernel import symmetrize_proof
from .rules import CalculusConfig, ProofNode, RuleError, annotate, mk

__all__ = ["distribute_forall"]


def _build_forward(dom: str, a1: Formula, a2: Formula, tag: CorrelationTag,
                   var: Var) -> ProofNode:
    """The unchecked forward proof for the pair ``a1``, ``a2``."""
    z = fresh_var("z", free_vars(a1) | free_vars(a2) | {var})
    a1z, a2z = replace_var(a1, var, z), replace_var(a2, var, z)
    inst = Join(tag, a1z, a2z)
    f1 = mk("id", {"a": Member(z, dom)})
    f2 = mk("id", {"a": inst})
    f3 = mk("forall_r", {"pos": 0, "term": z, "var": var, "domain": dom,
                         "body": Join(tag, a1, a2)}, f1, f2)
    f4 = mk("join_elim", {"qpos": 0}, f3)
    f5 = mk("conv_pair_elim", {"qpos": 0}, f4)
    f6 = mk("forall_f", {"var": z, "domain": dom, "mpos": 1, "qpos": 0}, f5)
    f7 = mk("conv_pair_intro", {"qpos": 0, "relpos": 1}, f6)
    return mk("join_intro", {"qpos": 0}, f7)


def distribute_forall(dom: str, a1: Formula, a2: Formula, tag: CorrelationTag,
                      cfg: CalculusConfig, registry: Registry,
                      var: Var = Var("x")) -> tuple:
    """Checked proofs of both directions of the distribution equality

        forall x in dom . (a1 join a2)  =  (forall x . a1) join (forall x . a2)

    for a virtual singleton.  ``a1`` and ``a2`` must agree up to their
    (distinct) indexes.  The converse direction is the symmetric proof of
    the forward direction for the swapped pair.
    """
    rec = registry.get(dom)
    if not rec.virtual_singleton:
        raise RuleError("NotVirtualSingleton",
                        f"the distribution equality needs a virtual singleton, "
                        f"got {dom}")
    i, j = formula_index(a1), formula_index(a2)
    if i is None or j is None or i == j:
        raise RuleError("SideConditionViolated",
                        "components need distinct unique indexes")
    if not formula_equal(a2, reindex(a1, i, j)):
        raise RuleError("SideConditionViolated",
                        "components must agree up to their index")
    forward = annotate(_build_forward(dom, a1, a2, tag, var), cfg, registry)
    # symmetrize_proof annotates the swapped proof itself
    swapped = _build_forward(dom, a2, a1, tag, var)
    converse = symmetrize_proof(swapped, _converse_involution(dom, registry),
                                cfg, registry)
    return forward, converse


def _converse_involution(dom: str, registry: Registry) -> LiteralInvolution:
    dual = registry.get(dom).duality
    mapped = registry.involution(dual).swap_domain(dom)
    return registry.involution(dual, {dom, mapped} - {None})
