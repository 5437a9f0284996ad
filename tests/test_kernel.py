"""Rule validation, gating, failure reporting, macro expansion."""
import ast
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symlog.rules
from symlog.corpus import corpus_config, corpus_registry, positive_proofs
from symlog.domains import DomainRecord, standard_registry
from symlog.dualities import (
    IDENTITY_INV, LiteralInvolution, symmetrize_sequent,
)
from symlog.formulas import (
    And, Atom, Const, Eq, IConst, IDENTICAL, IndexRel, Join, Member, Outcome, Var,
    seq, sequent_equal,
)
from symlog.kernel import (
    KernelError, build_collapse_proof, build_exists_to_forall,
    build_forall_to_exists, collapse_config, expand_derived, symmetrize_proof,
)
from symlog.rules import (
    _PARAM_KIND, CalculusConfig, CheckReport, ProofNode, RuleContext, _fold,
    _path, annotate, check_proof, mk, proof_equal,
)
from symlog.scripts import (
    parse_formula, print_proof, proof_from_json, proof_to_json,
)

from genlib import random_formula, random_term

z, y, x = Var("z"), Var("y"), Var("x")
p, q = Atom("p", None, ()), Atom("q", None, ())
t1, t2 = Outcome("t1", Fraction(1, 2)), Outcome("t2", Fraction(1, 2))


def A(t):
    return Atom("A", None, (t,))


def test_identity_axiom(config, registry):
    rep = check_proof(mk("id", {"a": p}), config, registry)
    assert rep.ok and rep.stats["nodes"] == 1


def test_conclusion_mismatch_reported(config, registry):
    bad = mk("id", {"a": p}, conclusion=seq([p], [q]))
    rep = check_proof(bad, config, registry)
    assert not rep.ok
    assert rep.failures[0].reason.startswith("ConclusionMismatch")


def test_arity_mismatch(config, registry):
    bad = mk("cut", {"rpos": 0, "lpos": 0}, mk("id", {"a": p}))
    rep = check_proof(bad, config, registry)
    assert "ArityMismatch" in rep.failures[0].reason


def test_unknown_rule(config, registry):
    rep = check_proof(mk("made_up", {}), config, registry)
    assert "UnknownRule" in rep.failures[0].reason


def test_subst_gating(registry):
    cfg = CalculusConfig(True, True, True, True,
                         substitution_domains=frozenset({"D"}))
    inner = mk("id", {"a": A(z)})
    good = mk("subst", {"var": z, "term": t1, "domain": "D"}, inner)
    assert check_proof(good, cfg, registry).ok
    bare = CalculusConfig(True, True, True, True)
    rep = check_proof(good, bare, registry)
    assert "SubstitutionNotLicensed" in rep.failures[0].reason


def test_d_axiom_gating(registry):
    node = mk("d_axiom", {"domain": "V", "dual": "d", "z": z, "y": y,
                          "hole": x, "body": A(x)})
    licensed = CalculusConfig(True, True, True, True,
                              d_axiom_domains=frozenset({("V", "d")}))
    assert check_proof(node, licensed, registry).ok
    rep = check_proof(node, CalculusConfig(True, True, True, True), registry)
    assert "DAxiomNotLicensed" in rep.failures[0].reason


def test_d_axiom_rejected_on_focused_two_entry(registry, config):
    cfg = CalculusConfig(True, True, True, True,
                         d_axiom_domains=frozenset({("D", "d")}))
    node = mk("d_axiom", {"domain": "D", "dual": "d", "z": z, "y": y,
                          "hole": x, "body": A(x)})
    rep = check_proof(node, cfg, registry)
    assert "DAxiomNotLicensed" in rep.failures[0].reason


def test_context_gating_weakening_and_cut(registry):
    bare = CalculusConfig()
    weak = mk("weak_l", {"pos": 0, "formula": q}, mk("id", {"a": p}))
    rep = check_proof(weak, bare, registry)
    assert "ContextNotLicensed" in rep.failures[0].reason
    cut = mk("cut", {"rpos": 0, "lpos": 0},
             mk("id", {"a": p}), mk("id", {"a": p}))
    rep = check_proof(cut, bare, registry)
    assert "ContextNotLicensed" in rep.failures[0].reason


def test_right_context_gating_on_formation(registry):
    """Forming a conjunction under an extra right slot needs the flag."""
    inner = mk("weak_r", {"pos": 1, "formula": q}, mk("id", {"a": p}))
    node = mk("and_r", {"pos": 0}, inner, inner)
    liberal = CalculusConfig(right_contexts=True, weakening=True)
    assert check_proof(node, liberal, registry).ok
    rep = check_proof(node, CalculusConfig(weakening=True), registry)
    assert not rep.ok
    assert "ContextNotLicensed" in rep.failures[0].reason


def test_forall_f_side_condition(config, registry):
    # z free in the context blocks quantifier formation
    bad_inner = mk("weak_l", {"pos": 0, "formula": A(z)},
                   mk("weak_l", {"pos": 0, "formula": Member(z, "D")},
                      mk("id", {"a": A(z)})))
    node = mk("forall_f", {"var": z, "domain": "D", "mpos": 1, "qpos": 0},
              bad_inner)
    rep = check_proof(node, config, registry)
    assert "SideConditionViolated" in rep.failures[0].reason


def test_eq_left_requires_claimed(config, registry):
    node = mk("eq_left", {"pos": 0, "s": z, "t": t1}, mk("id", {"a": A(t1)}))
    rep = check_proof(node, config, registry)
    assert "ConclusionMismatch" in rep.failures[0].reason
    good = mk("eq_left", {"pos": 1, "s": z, "t": t1}, mk("id", {"a": A(t1)}),
              conclusion=seq([A(t1), Eq(z, t1)], [A(z)]))
    assert check_proof(good, config, registry).ok


def test_eq_left_elim_gated_by_substitution(registry):
    inner = mk("weak_l", {"pos": 0, "formula": Eq(z, t1)},
               mk("id", {"a": A(z)}))
    node = mk("eq_left_elim", {"pos": 0}, inner)
    licensed = CalculusConfig(True, True, True, True,
                              substitution_domains=frozenset({"D"}))
    out = annotate(node, licensed, registry)
    assert sequent_equal(out.conclusion, seq([A(t1)], [A(t1)]))
    bare = CalculusConfig(True, True, True, True)
    rep = check_proof(node, bare, registry)
    assert "SubstitutionNotLicensed" in rep.failures[0].reason


def test_eq_left_elim_variable_target_ungated(registry):
    inner = mk("weak_l", {"pos": 0, "formula": Eq(z, y)},
               mk("id", {"a": A(z)}))
    node = mk("eq_left_elim", {"pos": 0}, inner)
    out = annotate(node, CalculusConfig(True, True, True, True), registry)
    assert sequent_equal(out.conclusion, seq([A(y)], [A(y)]))


def test_membership_axioms(config, registry):
    assert check_proof(mk("member", {"domain": "D", "term": t1}),
                       config, registry).ok
    rep = check_proof(mk("member", {"domain": "D", "term": Outcome("nope", 1)}),
                      config, registry)
    assert not rep.ok


def test_focus_axiom_only_for_focused(config, registry):
    assert check_proof(mk("focus", {"domain": "D", "var": z}),
                       config, registry).ok
    rep = check_proof(mk("focus", {"domain": "Dplus", "var": z}),
                      config, registry)
    assert "SideConditionViolated" in rep.failures[0].reason


def test_join_license(config, registry):
    a1, a2 = Atom("A", IConst(1), (z,)), Atom("A", IConst(2), (z,))
    jn = Join(IDENTICAL, a1, a2)
    ok_inner = mk("weak_l", {"pos": 0, "formula": Member(z, "Dplus")},
                  mk("id", {"a": jn}))
    node = mk("join_elim", {"qpos": 0}, ok_inner)
    assert check_proof(node, config, registry).ok
    bad_inner = mk("weak_l", {"pos": 0, "formula": Member(z, "Ddown")},
                   mk("id", {"a": jn}))
    rep = check_proof(mk("join_elim", {"qpos": 0}, bad_inner), config, registry)
    assert "NotVirtualSingleton" in rep.failures[0].reason


def test_conv_pair_intro_rejects_self_relation(config, registry):
    a1 = Atom("A", IConst(1), (z,))
    self_rel = IndexRel(IConst(1), IDENTICAL, IConst(1))
    context = mk("weak_l", {"pos": 1, "formula": Member(z, "Dplus")},
                 mk("id", {"a": a1}))
    right = mk("join_intro", {"qpos": 0},
               mk("conv_pair_intro", {"qpos": 0, "relpos": 2},
                  mk("weak_l", {"pos": 2, "formula": self_rel}, context)))
    left = mk("join_intro_l", {"qpos": 0},
              mk("conv_pair_intro_l", {"qpos": 0, "relpos": 0},
                 mk("weak_r", {"pos": 0, "formula": self_rel}, context)))
    for node in (right, left):
        rep = check_proof(node, config, registry)
        assert not rep.ok
        assert rep.failures[0].path == (0,)
        assert rep.failures[0].reason.startswith("SideConditionViolated")


def test_failure_paths_locate_nodes(config, registry):
    bad = mk("and_r", {"pos": 0},
             mk("id", {"a": p}),
             mk("member", {"domain": "D", "term": Outcome("nope", 1)}))
    rep = check_proof(bad, config, registry)
    assert rep.failures[0].path == (1,)


def test_stats_track_licensed_uses(registry):
    reg = standard_registry(collapse_demo=True)
    cfg = collapse_config(reg, "V")
    v1, v2 = reg.get("V").entries
    proof = build_collapse_proof(reg, cfg, "V", v2, v1)
    rep = check_proof(proof, cfg, reg)
    assert rep.ok
    assert set(rep.stats["subst_domains"]) == {"V"}
    assert set(rep.stats["d_axiom_pairs"]) == {"V:d"}


def test_expand_derived_idempotent_on_macro_free(config, registry):
    node = annotate(mk("id", {"a": p}), config, registry)
    out = expand_derived(node, config, registry)
    assert out.rule == "id"


def test_vsym_rules_expand_and_check(config, registry):
    ctx = RuleContext(config, registry)
    base = build_exists_to_forall(ctx, "Dplus", x, A(x))
    node = annotate(base, config, registry)
    assert check_proof(node, config, registry).ok


def test_every_vsym_macro_expands_to_a_proof_of_its_conclusion(config,
                                                               registry):
    """The two existential steps on V and their images under the d duality,
    the two universal ones, each expand to a checked proof of the macro's
    conclusion."""
    v1 = Outcome("v1", Fraction(1, 2))
    built = [mk("exists_f_vsym", {"var": z, "domain": "V", "mpos": 0,
                                  "qpos": 0}, mk("id", {"a": Member(z, "V")})),
             mk("exists_r_vsym", {"pos": 0, "term": v1, "var": x,
                                  "domain": "V", "body": A(x)},
                mk("member", {"domain": "V", "term": v1}),
                mk("id", {"a": A(v1)}))]
    inv = LiteralInvolution("d")
    macros = built + [symmetrize_proof(n, inv, config, registry) for n in built]
    assert [n.rule for n in macros] == ["exists_f_vsym", "exists_r_vsym",
                                        "forall_f_vsym", "forall_r_vsym"]
    for node in macros:
        want = annotate(node, config, registry).conclusion
        out = expand_derived(node, config, registry)
        assert out.rule == "cut"
        assert check_proof(out, config, registry).ok
        assert sequent_equal(out.conclusion, want)


def test_exists_to_forall_lemma_avoids_a_free_y(config, registry):
    """The lemma's second variable steers clear of a ``y`` free in the
    body."""
    base = build_exists_to_forall(RuleContext(config, registry), "V", x,
                                  Atom("A", None, (x, y)))
    node = annotate(base, config, registry)
    assert check_proof(node, config, registry).ok


def test_stock_lemmas_refuse_a_domain_without_their_premise(config, registry):
    registry.register_domain(DomainRecord(
        "E", (Outcome("e", Fraction(1)),), focused=True, inhabited=False))
    ctx = RuleContext(config, registry)
    with pytest.raises(KernelError, match="E has no declared inhabitant"):
        build_forall_to_exists(ctx, "E", x, A(x))
    with pytest.raises(KernelError, match="D carries no duality"):
        build_exists_to_forall(ctx, "D", x, A(x))


def test_vsym_expansion_keeps_the_equality_membership():
    from symlog.domains import DomainRecord, Registry

    w = Outcome("w", 1)
    reg = Registry()
    reg.register_domain(DomainRecord("W", (w,), focused=True,
                                     virtual_singleton=True, duality="d"))
    cfg = CalculusConfig(True, True, True, True,
                         d_axiom_domains=frozenset({("W", "d")}))
    node = mk("exists_r_vsym", {"pos": 0, "term": w, "var": x, "domain": "W",
                                "body": A(x), "as_eq": True},
              mk("refl", {"t": w}), mk("id", {"a": A(w)}))
    assert check_proof(node, cfg, reg).ok
    out = expand_derived(node, cfg, reg)
    assert out.premises[1].params["as_eq"]
    assert check_proof(out, cfg, reg).ok


def _focus_interderivable(n: int, pred: str) -> None:
    """The focused-domain lemma for n entries: the conjunction of entry
    instances yields the open instance under the membership, and comes
    back down to every entry instance by substitution."""
    from symlog.domains import DomainRecord, Registry

    entries = tuple(Outcome(f"u{i}", Fraction(1, n)) for i in range(n))
    reg = Registry()
    reg.register_domain(DomainRecord("Dn", entries, focused=True))
    cfg = CalculusConfig(True, True, True, True,
                         substitution_domains=frozenset({"Dn"}))
    At = lambda t: Atom(pred, None, (t,))
    rests = [At(entries[-1])]  # right-nested conjunction suffixes
    for t in reversed(entries[:-1]):
        rests.insert(0, And(At(t), rests[0]))
    gamma = rests[0]

    def select(i):  # gamma |- A(u_i) by conjunct selection
        node = mk("id", {"a": At(entries[i])})
        if i < n - 1:
            node = mk("and_l1", {"pos": 0, "other": rests[i + 1]}, node)
        for j in range(i, 0, -1):
            node = mk("and_l2", {"pos": 0, "other": At(entries[j - 1])}, node)
        return node

    def eq_branch(i):
        t = entries[i]
        return mk("eq_left", {"pos": 1, "s": z, "t": t}, select(i),
                  conclusion=seq([gamma, Eq(z, t)], [At(z)]))

    def fold(i):  # match the right-nested focus disjunction
        if i == n - 1:
            return eq_branch(i)
        return mk("or_l", {"pos": 1}, eq_branch(i), fold(i + 1))

    focus = mk("focus", {"domain": "Dn", "var": z})
    up = mk("cut", {"rpos": 0, "lpos": 1}, focus, fold(0))
    out = annotate(up, cfg, reg)
    assert sequent_equal(out.conclusion,
                         seq([gamma, Member(z, "Dn")], [At(z)]))
    for t in entries:  # and back down to every entry instance
        down = mk("cut", {"rpos": 0, "lpos": 1},
                  mk("member", {"domain": "Dn", "term": t}),
                  mk("subst", {"var": z, "term": t, "domain": "Dn"}, up))
        res = annotate(down, cfg, reg)
        assert sequent_equal(res.conclusion, seq([gamma], [At(t)]))


def test_focus_lemma_small_domains():
    for n in (1, 2, 3):
        for pred in ("G", "H"):
            _focus_interderivable(n, pred)


def test_missing_parameter_is_a_failure(config, registry):
    rep = check_proof(mk("id", {}), config, registry)
    assert not rep.ok
    assert rep.failures[0].reason.startswith("MissingParameter")
    no_other = mk("and_l1", {"pos": 0}, mk("id", {"a": p}))
    rep = check_proof(no_other, config, registry)
    assert rep.failures[0].path == ()
    assert rep.failures[0].reason.startswith("MissingParameter")


def test_unknown_domain_is_a_failure(config, registry):
    rep = check_proof(mk("member", {"domain": "Nowhere", "term": t1}),
                      config, registry)
    assert not rep.ok
    assert rep.failures[0].reason.startswith("UnknownDomain")


def test_substitution_license_on_virtual_singleton(registry):
    cfg = CalculusConfig(True, True, True, True,
                         substitution_domains=frozenset({"V"}))
    node = mk("subst", {"var": z, "term": Outcome("v1", Fraction(1, 2)),
                        "domain": "V"}, mk("id", {"a": A(z)}))
    with pytest.raises(ValueError):
        check_proof(node, cfg, registry)
    demo = CalculusConfig(True, True, True, True,
                          substitution_domains=frozenset({"V"}),
                          collapse_demo=True)
    assert check_proof(node, demo, registry).ok


def test_every_checker_entry_refuses_what_check_proof_refuses():
    reg = corpus_registry()
    v1, v2 = reg.get("V").entries
    demo = collapse_config(reg, "V")
    proof = build_collapse_proof(reg, demo, "V", v2, v1)
    assert check_proof(proof, demo, reg).ok
    cfg = CalculusConfig(True, True, True, True, substitution_domains={"V"},
                         d_axiom_domains={("V", "d")})
    for entry in (check_proof, annotate, expand_derived,
                  lambda p, c, r: symmetrize_proof(p, IDENTITY_INV, c, r),
                  lambda p, c, r: build_collapse_proof(r, c, "V", v2, v1)):
        with pytest.raises(ValueError, match="virtual singleton V requires"):
            entry(proof, cfg, reg)


def test_malformed_d_axiom_reports_without_raising(config, registry):
    rep = check_proof(mk("d_axiom", {"domain": "V"}), config, registry)
    assert rep.failures[0].reason.startswith("MissingParameter")
    assert rep.stats["d_axiom_pairs"] == {}


# a d-axiom whose body binds the variable named by y, so that the rule
# renames that binder away from y before it abstracts the hole
_D_AXIOM = mk("d_axiom", {"domain": "V", "dual": "d", "z": z, "y": y,
                          "hole": x, "body": parse_formula("forall y in V . A(y)")})


def test_d_axiom_with_a_non_variable_hole_is_a_failure(config, registry):
    for hole in (t1, Const("c")):
        node = mk("d_axiom", {**_D_AXIOM.params, "hole": hole})
        rep = check_proof(node, config, registry)
        assert rep.failures[0].reason.startswith("SideConditionViolated")


_PROOFS = [proof for _, _, proof, _ in positive_proofs()] + [_D_AXIOM]
_VALUES = st.one_of(
    st.builds(random_term, st.randoms(use_true_random=False)),
    st.builds(random_formula, st.randoms(use_true_random=False),
              st.integers(1, 3)),
    st.integers(-3, 12), st.booleans(), st.text(max_size=4))


def _with_param(proof: ProofNode, at: int, key: str, value) -> ProofNode:
    """``proof`` with ``key`` set to ``value`` on its node object number
    ``at`` (in pre-order of the distinct node objects, counted modulo their
    number), at every place the object occurs."""
    paths = []
    _fold(proof, lambda n, prems, trail: paths.append(_path(trail)))
    target = sorted(paths)[at % len(paths)]
    return _fold(proof, lambda n, prems, trail: ProofNode(
        n.rule, {**n.params, key: value} if _path(trail) == target
        else n.params, tuple(prems), n.conclusion))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, len(_PROOFS) - 1), st.integers(0, 10 ** 4),
       st.sampled_from(sorted(_PARAM_KIND) + ["zz"]), _VALUES)
@example(len(_PROOFS) - 1, 0, "hole", t1)
def test_check_proof_reports_any_parameter_value(which, at, key, value):
    """check_proof never raises, whatever one parameter holds."""
    proof = _with_param(_PROOFS[which], at, key, value)
    rep = check_proof(proof, corpus_config(), corpus_registry())
    assert isinstance(rep, CheckReport)


def test_wrong_parameter_kind_is_a_failure(config, registry):
    rep = check_proof(mk("id", {"a": "p"}), config, registry)
    assert not rep.ok
    assert rep.failures[0].reason.startswith("BadParameter")
    for params in ({"i": True, "j": 1}, {"i": "x", "j": 1}):
        node = mk("contract_l", params, mk("id", {"a": p}))
        assert check_proof(node, config, registry).failures[0].reason \
            .startswith("BadParameter")


def _weakening_chain(leaf, n: int):
    node = leaf
    for _ in range(n):
        node = mk("weak_l", {"pos": 0, "formula": p}, node)
    return node


def test_check_proof_takes_deep_proofs(config, registry):
    rep = check_proof(_weakening_chain(mk("id", {"a": q}), 3000),
                      config, registry)
    assert rep.ok
    assert rep.stats["nodes"] == 3001
    assert rep.stats["rules"] == {"id": 1, "weak_l": 3000}


def test_check_proof_reports_a_bad_leaf_of_a_deep_proof(config, registry):
    bad = mk("member", {"domain": "D", "term": Outcome("nope", 1)})
    rep = check_proof(_weakening_chain(bad, 3000), config, registry)
    assert not rep.ok
    assert [(f.path, f.rule) for f in rep.failures] == [((0,) * 3000, "member")]


def test_check_proof_reports_a_formula_domain(config, registry):
    odd = mk("subst", {"var": z, "term": t1, "domain": p}, mk("id", {"a": A(z)}))
    rep = check_proof(odd, config, registry)
    assert rep.failures[0].reason.startswith("BadParameter")
    assert rep.stats["subst_domains"] == {}
    json.dumps(rep.to_json())
    rep = check_proof(mk("subst", {"var": z, "term": t1, "domain": "D"}, odd),
                      config, registry)
    assert [f.path for f in rep.failures] == [(0,)]
    assert rep.stats["subst_domains"] == {"D": 1}


@pytest.mark.parametrize("rule,side", [("eq_left_elim", "l"),
                                       ("neq_right_elim", "r")])
def test_subst_domains_names_only_subst_nodes(rule, side):
    """An elimination's validator reads no ``domain``, so a ``domain`` it
    carries is not a substitution: Dplus has no substitution licence."""
    eq = parse_formula("x = t1@1/2" if side == "l" else "x /= t1@1/2")
    weak = mk(f"weak_{side}", {"pos": 0, "formula": eq},
              mk("id", {"a": parse_formula("A(x)")}))
    rep = check_proof(mk(rule, {"pos": 0, "domain": "Dplus"}, weak),
                      corpus_config(), corpus_registry())
    assert rep.ok and rep.stats["subst_domains"] == {}


def _json_chain(obj) -> list:
    rules = []
    while obj["premises"]:
        rules.append(obj["rule"])
        (obj,) = obj["premises"]
    return rules + [obj["rule"]]


def _tall(height: int):
    return seq([p] * height + [q], [q])


# walk: (the chain's height, a check of the walk's result).  Each height
# exceeds the default recursion limit of 1,000.
_DEEP_WALKS = {
    "annotate": (3000, lambda deep, cfg, reg: sequent_equal(
        annotate(deep, cfg, reg).conclusion, _tall(3000))),
    "symmetrize_proof": (3000, lambda deep, cfg, reg: sequent_equal(
        symmetrize_proof(deep, IDENTITY_INV, cfg, reg).conclusion,
        symmetrize_sequent(_tall(3000), IDENTITY_INV))),
    "expand_derived": (3000, lambda deep, cfg, reg: proof_equal(
        expand_derived(deep, cfg, reg), annotate(deep, cfg, reg))),
    "proof_equal": (3000, lambda deep, cfg, reg: proof_equal(
        deep, _weakening_chain(mk("id", {"a": q}), 3000))
        and not proof_equal(deep, _weakening_chain(mk("id", {"a": p}), 3000))),
    "proof_to_json": (3000, lambda deep, cfg, reg:
                      _json_chain(proof_to_json(deep))
                      == ["weak_l"] * 3000 + ["id"]),
    "proof_from_json": (3000, lambda deep, cfg, reg: proof_equal(
        proof_from_json(proof_to_json(deep)), deep)),
    "print_proof": (3000, lambda deep, cfg, reg:
                    print_proof(deep).splitlines()[-2:]
                    == ["  " * 2999 + "weak_l formula={p} pos=0",
                        "  " * 3000 + "id a={q}"]),
}


@pytest.mark.parametrize("walk", sorted(_DEEP_WALKS))
def test_every_walk_takes_deep_proofs(config, registry, walk):
    height, check = _DEEP_WALKS[walk]
    assert check(_weakening_chain(mk("id", {"a": q}), height), config, registry)


def test_symmetrizing_a_tall_proof_costs_about_what_checking_it_costs(
        config, registry):
    """A slot links to its image like a formula, so a mate's conclusion
    maps each slot already mapped through one link: on a 1,000-level
    chain, symmetrize_proof stays within 45 times the time of annotate
    (about 90 times when each node rebuilt each of its slots)."""
    deep = _weakening_chain(mk("id", {"a": q}), 1000)

    def best(walk):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            walk(deep, config, registry)
            times.append(time.perf_counter() - start)
        return min(times)

    sym = best(lambda d, c, r: symmetrize_proof(d, IDENTITY_INV, c, r))
    assert sym < 45 * best(annotate)


_TRUSTED_IMPORTS = {"formulas", "dualities", "domains"}
_CHECKER = ("ProofNode", "check_proof", "annotate", "CheckReport", "_fold")


def test_rules_is_the_whole_trusted_base():
    """rules.py imports, at module level only, the formula, duality and
    domain modules and the standard library, and no other module of the
    package defines the checker."""
    rules_py = Path(symlog.rules.__file__)
    tree = ast.parse(rules_py.read_text())
    imports = [n for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert all(n in tree.body for n in imports), "an import below module level"
    for n in imports:
        if isinstance(n, ast.ImportFrom) and n.level:
            assert n.level == 1 and n.module in _TRUSTED_IMPORTS, n.module
        else:
            names = [n.module] if isinstance(n, ast.ImportFrom) \
                else [a.name for a in n.names]
            assert all(m.split(".")[0] in sys.stdlib_module_names
                       for m in names), names
    for name in ("check_proof", "annotate", "ProofNode", "CheckReport"):
        assert getattr(symlog.rules, name).__module__ == "symlog.rules"
    for path in rules_py.parent.glob("*.py"):
        defined = {n.name for n in ast.parse(path.read_text()).body
                   if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert path == rules_py or not defined & set(_CHECKER), path.name
