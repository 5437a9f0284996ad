"""The proof-level symmetry transformation: soundness and involutivity."""
import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

import symlog.rules
from symlog.corpus import positive_proofs
from symlog.dualities import (
    IDENTITY_INV, PERP_INV, TOP_INV, LiteralInvolution, symmetrize_sequent,
)
from symlog.formulas import (
    IDENTICAL, Atom, Eq, IConst, Join, Member, Neq, Outcome, Sequent, Single,
    Var, sequent_equal,
)
from symlog.kernel import (
    _MATES, KernelError, NotSymmetricConfig, _sym_node, expand_derived,
    symmetrize_proof,
)
from symlog.rules import (
    RULES, CalculusConfig, ProofNode, RuleContext, RuleError, _fold,
    annotate, check_proof, mk, proof_equal, validate_rule,
)
from symlog.scripts import (
    _preorder, print_proof, proof_from_json, proof_to_json,
)

from genlib import proof_context, random_proof

p, q = Atom("p", None, ()), Atom("q", None, ())


def test_rejects_asymmetric_config(registry):
    cfg = CalculusConfig(left_contexts=True, right_contexts=False)
    with pytest.raises(NotSymmetricConfig):
        symmetrize_proof(mk("id", {"a": p}), IDENTITY_INV, cfg, registry)


def test_identity_node_maps_to_itself(config, registry):
    node = mk("id", {"a": p})
    out = symmetrize_proof(node, IDENTITY_INV, config, registry)
    assert out.rule == "id"
    assert check_proof(out, config, registry).ok


def test_detachment_proof_symmetrizes(config, registry):
    node = mk("imp_l", {"pos": 0}, mk("id", {"a": p}), mk("id", {"a": q}))
    out = symmetrize_proof(node, IDENTITY_INV, config, registry)
    assert check_proof(out, config, registry).ok
    want = symmetrize_sequent(annotate(node, config, registry).conclusion,
                              IDENTITY_INV)
    assert sequent_equal(annotate(out, config, registry).conclusion, want)


def test_corpus_proofs_symmetrize():
    cfg, reg = proof_context()
    for item, name, proof, inv in positive_proofs():
        out = symmetrize_proof(proof, inv, cfg, reg)
        rep = check_proof(out, cfg, reg)
        assert rep.ok, f"{item}/{name}: {rep.failures[:1]}"
        assert sequent_equal(out.conclusion,
                             symmetrize_sequent(proof.conclusion, inv))
        back = symmetrize_proof(out, inv, cfg, reg)
        assert proof_equal(back, annotate(proof, cfg, reg)), f"{item}/{name}"


# sha256 of every corpus proof's image and double image (or refusal) under
# each involution below and its manifest one, as symmetrize_proof gave them
# while each mate's conclusion was built through a private slot cache
IMAGE_DIGEST = "bfaedf1735affbe67db7ed5de4b70e822db24d6b89891b57059785d0e828b1bb"
IMAGE_INVS = (IDENTITY_INV, PERP_INV, TOP_INV, LiteralInvolution("d"),
              LiteralInvolution("d", self_dual_domains={"V"}))


def _image_digest() -> str:
    cfg, reg = proof_context()
    h = hashlib.sha256()
    for item, name, proof, manifest in positive_proofs():
        for k, inv in enumerate(IMAGE_INVS + (manifest,)):
            try:
                once = symmetrize_proof(proof, inv, cfg, reg)
                twice = symmetrize_proof(once, inv, cfg, reg)
                out = [proof_to_json(once), proof_to_json(twice)]
            except (KernelError, RuleError) as e:
                out = f"{type(e).__name__}: {e}"
            h.update(json.dumps([item, name, k, out], sort_keys=True).encode())
    return h.hexdigest()


def test_image_digest_unchanged():
    assert _image_digest() == IMAGE_DIGEST


def test_random_proofs_symmetrize():
    cfg, reg = proof_context()
    rng = random.Random(20260808)
    for k in range(300):
        proof = random_proof(rng, cfg, reg, max_depth=6)
        out = symmetrize_proof(proof, IDENTITY_INV, cfg, reg)
        rep = check_proof(out, cfg, reg)
        assert rep.ok, (k, proof.rule, rep.failures[:1])
        assert sequent_equal(out.conclusion,
                             symmetrize_sequent(proof.conclusion, IDENTITY_INV))
        back = symmetrize_proof(out, IDENTITY_INV, cfg, reg)
        assert proof_equal(back, proof), k


# --------------------------------------------------------------------------
# coverage: every rule in the catalogue has a mate

x, y, z = Var("x"), Var("y"), Var("z")
t1 = Outcome("t1", Fraction(1, 2))
v1 = Outcome("v1", Fraction(1, 2))

# one value for every parameter any rule reads; positions are arbitrary
# because the mirror only has to invert itself
_ANY_PARAMS = {
    "a": p, "other": q, "formula": q, "body": p, "t": y, "s": y, "term": y,
    "var": z, "hole": x, "y": y, "z": z, "domain": "V", "dual": "d",
    "as_eq": False, "pos": 0, "qpos": 1, "mpos": 0, "dpos": 2, "apos": 1,
    "bpos": 2, "lpos": 0, "rpos": 1, "relpos": 2, "i": 0, "j": 1,
}
_THREE = Sequent((Single(p),) * 3, (Single(q),) * 3)


def _dummy(rule: str) -> ProofNode:
    arity = RULES[rule][0]
    prem = ProofNode("id", {"a": p}, (), _THREE)
    return ProofNode(rule, dict(_ANY_PARAMS), (prem,) * arity, _THREE)


@pytest.mark.parametrize("self_dual", [frozenset(), frozenset({"V"})])
def test_every_rule_has_an_involutive_mate(self_dual):
    inv = LiteralInvolution("d", self_dual_domains=self_dual)
    for rule in RULES:
        node = _dummy(rule)
        if rule == "parallel_forall":
            with pytest.raises(KernelError):
                _sym_node(node, inv)
            continue
        once = _sym_node(node, inv)
        assert once.rule in RULES, rule
        twice = _sym_node(once, inv)
        assert twice.rule == rule, (rule, once.rule, twice.rule)
        thrice = _sym_node(twice, inv)
        assert thrice.rule == once.rule and thrice.params == once.params, rule


def _round_trip(proof, inv, cfg, reg):
    out = symmetrize_proof(proof, inv, cfg, reg)
    rep = check_proof(out, cfg, reg)
    assert rep.ok, rep.failures[:1]
    back = symmetrize_proof(out, inv, cfg, reg)
    assert proof_equal(back, annotate(proof, cfg, reg))
    return out


def test_eq_left_elim_symmetrizes(config, registry):
    inner = mk("weak_l", {"pos": 1, "formula": p}, mk("id", {"a": Eq(z, t1)}))
    out = _round_trip(mk("eq_left_elim", {"pos": 0}, inner),
                      IDENTITY_INV, config, registry)
    assert out.rule == "neq_right_elim"


def test_neq_right_elim_symmetrizes(config, registry):
    inner = mk("weak_r", {"pos": 0, "formula": q}, mk("id", {"a": Neq(z, t1)}))
    out = _round_trip(mk("neq_right_elim", {"pos": 1}, inner),
                      IDENTITY_INV, config, registry)
    assert out.rule == "eq_left_elim"


@pytest.mark.parametrize("self_dual,mate", [(frozenset(), "forall_f_vsym"),
                                            (frozenset({"V"}), "exists_f")])
def test_exists_f_vsym_symmetrizes(config, registry, self_dual, mate):
    inv = LiteralInvolution("d", self_dual_domains=self_dual)
    node = mk("exists_f_vsym", {"var": z, "domain": "V", "mpos": 0, "qpos": 0},
              mk("id", {"a": Member(z, "V")}))
    assert _round_trip(node, inv, config, registry).rule == mate


@pytest.mark.parametrize("self_dual,mate", [(frozenset(), "forall_r_vsym"),
                                            (frozenset({"V"}), "exists_r")])
def test_exists_r_vsym_symmetrizes(config, registry, self_dual, mate):
    inv = LiteralInvolution("d", self_dual_domains=self_dual)
    body = Atom("A", None, (x,))
    node = mk("exists_r_vsym", {"pos": 0, "term": v1, "var": x, "domain": "V",
                                "body": body},
              mk("member", {"domain": "V", "term": v1}),
              mk("id", {"a": Atom("A", None, (v1,))}))
    assert _round_trip(node, inv, config, registry).rule == mate


def test_mate_table_covers_the_catalogue():
    assert set(_MATES) == set(RULES) - {"parallel_forall"}
    for rule, (mate, _swap, _params) in _MATES.items():
        assert _MATES[mate][0] == rule


# --------------------------------------------------------------------------
# refusals: every node is validated before a missing mate is reported


def _parallel_forall() -> ProofNode:
    """Corpus item C12's macro node, which checks but has no mate."""
    def pair(t):
        return Join(IDENTICAL, Atom("A", IConst(1), (t,)),
                    Atom("A", IConst(2), (t,)))

    return mk("parallel_forall", {"var": z, "domain": "Dplus", "mpos": 1,
                                  "qpos": 0},
              mk("join_elim", {"qpos": 0},
                 mk("forall_r", {"pos": 0, "term": z, "var": x,
                                 "domain": "Dplus", "body": pair(x)},
                    mk("id", {"a": Member(z, "Dplus")}),
                    mk("id", {"a": pair(z)}))))


def test_a_valid_macro_proof_is_refused_with_a_hint(config, registry):
    assert check_proof(_parallel_forall(), config, registry).ok
    with pytest.raises(KernelError, match="no symmetric mate for rule "
                       "parallel_forall; symmetrize its expanded form"):
        symmetrize_proof(_parallel_forall(), IDENTITY_INV, config, registry)


def test_a_bad_node_after_a_mateless_one_is_refused_as_bad(config, registry):
    bad = mk("id", {"a": p}, conclusion=Sequent((Single(q),), (Single(q),)))
    proof = mk("cut", {"rpos": 0, "lpos": 0}, _parallel_forall(), bad)
    with pytest.raises(RuleError) as e:
        symmetrize_proof(proof, IDENTITY_INV, config, registry)
    assert e.value.code == "ConclusionMismatch" and "id:" in e.value.message


# --------------------------------------------------------------------------
# cost: a node object met again is validated and mated once


def _doubling(config, registry, levels: int) -> ProofNode:
    """An ``id`` leaf under ``levels`` ``and_r`` steps, each taking the same
    object as both premises: ``levels + 1`` distinct nodes, ``2^(levels +
    1) - 1`` occurrences."""
    ctx = RuleContext(config, registry)
    node = ProofNode("id", {"a": p}, (), validate_rule(
        "id", {"a": p}, [], None, ctx))
    for _ in range(levels):
        node = ProofNode("and_r", {"pos": 0}, (node, node), validate_rule(
            "and_r", {"pos": 0}, [node.conclusion] * 2, None, ctx))
    return node


def _spy_validate_rule(monkeypatch, module) -> list:
    """The rule names of ``module``'s ``validate_rule`` calls from now on."""
    calls = []

    def spy(*args):
        calls.append(args[0])
        return validate_rule(*args)

    monkeypatch.setattr(module, "validate_rule", spy)
    return calls


def _assert_doubled(proof: ProofNode, rule: str, levels: int) -> None:
    """``proof`` is ``levels`` ``rule`` steps, each taking one object as
    both premises, over an ``id`` leaf."""
    for _ in range(levels):
        assert proof.rule == rule and proof.premises[0] is proof.premises[1]
        proof = proof.premises[0]
    assert proof.rule == "id" and not proof.premises


def test_a_shared_node_is_mated_once_and_its_image_stays_shared(
        config, registry, monkeypatch):
    proof = _doubling(config, registry, 12)
    calls = _spy_validate_rule(monkeypatch, symlog.rules)
    img = symmetrize_proof(proof, IDENTITY_INV, config, registry)
    monkeypatch.undo()
    assert len(calls) == 13
    _assert_doubled(img, "or_l", 12)
    assert check_proof(img, config, registry).ok
    assert sequent_equal(img.conclusion, symmetrize_sequent(
        proof.conclusion, IDENTITY_INV))


def test_proof_equal_cost_grows_with_the_distinct_nodes(config, registry):
    """Each pair of node objects is compared once, so twice the levels cost
    about twice as much (comparing each occurrence makes it about 256
    times)."""
    def best(levels):
        proof, times = _doubling(config, registry, levels), []
        for _ in range(3):
            start = time.perf_counter()
            assert proof_equal(proof, proof)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best(16) < 4 * best(8)


# --------------------------------------------------------------------------
# a shared node gives the answers its unshared copies give


def _unshare(proof: ProofNode) -> ProofNode:
    """``proof`` with every occurrence a fresh node with its own params.
    It recurses rather than folds, since ``_fold`` keeps the sharing."""
    return ProofNode(proof.rule, dict(proof.params),
                     tuple(map(_unshare, proof.premises)), proof.conclusion)


def _replace(proof: ProofNode, old: ProofNode, new: ProofNode) -> ProofNode:
    """``proof`` with the object ``old`` replaced by ``new``, keeping the
    sharing."""
    return _fold(proof, lambda n, prems, _: new if n is old else ProofNode(
        n.rule, n.params, tuple(prems), n.conclusion))


def _first_shared(proof: ProofNode):
    """The first node in pre-order that occurs twice in ``proof``, if any."""
    seen = set()
    for n, _depth in _preorder(proof):
        if id(n) in seen:
            return n
        seen.add(id(n))
    return None


def _misclaimed(node: ProofNode, cfg, reg) -> ProofNode:
    """``node`` claiming one left formula more than it concludes."""
    c = annotate(node, cfg, reg).conclusion
    return ProofNode(node.rule, dict(node.params), node.premises,
                     Sequent(c.left + (Single(q),), c.right))


def _random_proofs() -> list:
    """200 seeded ``genlib.random_proof``s; binary steps make some share."""
    cfg, reg = proof_context()
    rng = random.Random(20261020)
    return [random_proof(rng, cfg, reg, max_depth=6) for _ in range(200)]


def _refusal(proof, inv, cfg, reg):
    with pytest.raises(RuleError) as e:
        symmetrize_proof(proof, inv, cfg, reg)
    return e.value.code, e.value.message


def _shared_and_unshared_agree(proof, inv, cfg, reg) -> bool:
    """Check ``proof`` against its unshared copy; say whether it shares."""
    assert _first_shared(_unshare(proof)) is None
    out = symmetrize_proof(proof, inv, cfg, reg)
    flat = symmetrize_proof(_unshare(proof), inv, cfg, reg)
    assert proof_equal(out, flat)
    assert print_proof(out) == print_proof(flat)
    assert json.dumps(proof_to_json(out), sort_keys=True) == \
        json.dumps(proof_to_json(flat), sort_keys=True)
    shared = _first_shared(proof)
    if shared is None:
        return False
    bad = _replace(proof, shared, _misclaimed(shared, cfg, reg))
    assert _first_shared(bad) is not None
    assert _refusal(bad, inv, cfg, reg) == \
        _refusal(_unshare(bad), inv, cfg, reg)
    return True


def test_shared_and_unshared_random_proofs_symmetrize_alike():
    cfg, reg = proof_context()
    shared = sum(_shared_and_unshared_agree(proof, IDENTITY_INV, cfg, reg)
                 for proof in _random_proofs())
    assert shared >= 50


def test_shared_and_unshared_corpus_proofs_symmetrize_alike():
    cfg, reg = proof_context()
    for _item, _name, proof, inv in positive_proofs():
        _shared_and_unshared_agree(proof, inv, cfg, reg)


def test_a_shared_mateless_node_is_refused_as_its_copies_are(config, registry):
    pf = _parallel_forall()
    proof = mk("or_l", {"pos": 0}, pf, pf)
    assert check_proof(proof, config, registry).ok
    messages = []
    for each in (proof, _unshare(proof)):
        with pytest.raises(KernelError) as e:
            symmetrize_proof(each, IDENTITY_INV, config, registry)
        messages.append((type(e.value), str(e.value)))
    assert messages[0] == messages[1]


# --------------------------------------------------------------------------
# the checker, annotate and expand_derived work once per node object


def test_a_shared_node_is_checked_once(config, registry, monkeypatch):
    proof = _doubling(config, registry, 12)
    calls = _spy_validate_rule(monkeypatch, symlog.rules)
    rep = check_proof(proof, config, registry)
    assert rep.ok and len(calls) == 13
    assert rep.stats["nodes"] == 13 and rep.stats["rules"] == {
        "and_r": 12, "id": 1}


def test_a_shared_node_is_annotated_once_and_stays_shared(
        config, registry, monkeypatch):
    proof = _doubling(config, registry, 12)
    calls = _spy_validate_rule(monkeypatch, symlog.rules)
    out = annotate(proof, config, registry)
    assert len(calls) == 13
    _assert_doubled(out, "and_r", 12)
    assert proof_equal(out, proof)


def test_expansion_keeps_the_sharing(config, registry):
    _assert_doubled(expand_derived(_doubling(config, registry, 12), config,
                                   registry), "and_r", 12)
    pf = _parallel_forall()
    out = expand_derived(mk("or_l", {"pos": 0}, pf, pf), config, registry)
    assert out.premises[0] is out.premises[1]
    assert out.premises[0].rule == "conv_pair_intro"
    assert check_proof(out, config, registry).ok


def _first_path(proof: ProofNode, node: ProofNode) -> tuple:
    """The path of ``node``'s first occurrence in ``proof``.  A node's
    occurrences are disjoint subtrees, so pre-order and post-order meet
    them in the same order."""
    todo = [(proof, ())]
    while todo:
        n, path = todo.pop()
        if n is node:
            return path
        todo += [(q, path + (k,)) for k, q in enumerate(n.premises)][::-1]
    raise AssertionError("node not in proof")


def _reasons(rep) -> set:
    return {(f.rule, f.reason) for f in rep.failures}


def _reports_agree(proof, cfg, reg) -> None:
    """``proof`` and its unshared copy get one verdict and one set of
    failures, and the same report when ``proof`` shares no node."""
    rep, flat = check_proof(proof, cfg, reg), \
        check_proof(_unshare(proof), cfg, reg)
    assert rep.ok == flat.ok and _reasons(rep) == _reasons(flat)
    assert rep.stats["nodes"] == len({id(n) for n, _ in _preorder(proof)})
    if _first_shared(proof) is None:
        assert rep == flat


def test_shared_and_unshared_random_proofs_check_alike():
    cfg, reg = proof_context()
    rng = random.Random(20261021)
    shared = 0
    for proof in _random_proofs():
        old = rng.choice([n for n, _ in _preorder(proof)])
        mutant = _replace(proof, old, _misclaimed(old, cfg, reg))
        for each in (proof, mutant):
            _reports_agree(each, cfg, reg)
        assert not check_proof(mutant, cfg, reg).ok
        node = _first_shared(proof)
        if node is None:
            continue
        shared += 1
        new = _misclaimed(node, cfg, reg)
        bad = _replace(proof, node, new)
        _reports_agree(bad, cfg, reg)
        assert [(f.path, f.rule) for f in check_proof(bad, cfg, reg).failures] \
            == [(_first_path(bad, new), node.rule)]
    assert shared >= 50


def test_json_round_trip_keeps_every_proof():
    corpus = [proof for _i, _n, proof, _inv in positive_proofs()]
    for proof in _random_proofs() + corpus:
        assert proof_equal(proof_from_json(proof_to_json(proof)), proof)
