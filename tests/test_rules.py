"""The rule catalogue: a digest of what ``validate_rule`` answers.

The digest pins, for a seeded set of calls that reaches every rule, the
conclusion each call reconstructs or the ``RuleError`` it raises.  A
refactor of ``rules.py`` that keeps the digest keeps every rule's answer.
Random calls check that ``validate_rule`` raises nothing but ``RuleError``.
"""
import ast
import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

from symlog.corpus import positive_proofs
from symlog.domains import DomainRecord, Registry, standard_registry
from symlog.dualities import IDENTITY_INV, LiteralInvolution, symmetrize_sequent
from symlog.formulas import (
    Atom, CorrPair, Eq, Forall, IConst, IDENTICAL, IndexRel, Join, Member,
    Neq, Or, Outcome, Sequent, Single, Var,
)
from symlog.kernel import symmetrize_proof
from symlog.rules import (
    RULES, CalculusConfig, RuleContext, RuleError, annotate, mk, rule_arity,
    validate_rule,
)

import checker_reach
from genlib import proof_context, random_proof, random_rule_calls

_FLAGS = ("left_contexts", "right_contexts", "weakening", "cut")
# bit k of a mask switches _FLAGS[k] on; 15 is the proofs' own setting
_FLAG_MASKS = (0, 1, 2, 4, 8, 7)

# rules whose premises and conclusion are each other's with the sides
# swapped; any other rule is fed its own premises swapped
_SIDE_TWINS = (
    ("and_l1", "or_r1"), ("and_l2", "or_r2"), ("times_l", "par_r"),
    ("weak_l", "weak_r"), ("contract_l", "contract_r"),
    ("expand_l", "expand_r"), ("eq_left", "neq_right"),
    ("eq_left_elim", "neq_right_elim"), ("join_intro", "join_intro_l"),
    ("join_elim", "join_elim_l"), ("and_r", "or_l"), ("times_r", "par_l"),
)
_TWIN = dict(_SIDE_TWINS + tuple((b, a) for a, b in _SIDE_TWINS))
_CLAIMING = {"eq_left", "neq_right"}  # the rules that need a conclusion

x, y, z = Var("x"), Var("y"), Var("z")
t1 = Outcome("t1", Fraction(1, 2))
v1 = Outcome("v1", Fraction(1, 2))


def _flip(s: Sequent) -> Sequent:
    return Sequent(s.right, s.left)


def _nodes(proof):
    todo = [proof]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(node.premises)


def _hand_built(cfg, reg) -> list:
    """Proofs that accept the rules random proofs never accept."""
    A = lambda t: Atom("A", None, (t,))
    p, q = Atom("p", None, ()), Atom("q", None, ())
    proofs = [
        mk("eq_left_elim", {"pos": 0}, mk("weak_l", {"pos": 1, "formula": p},
                                          mk("id", {"a": Eq(z, t1)}))),
        mk("neq_right_elim", {"pos": 1},
           mk("weak_r", {"pos": 0, "formula": q}, mk("id", {"a": Neq(z, y)}))),
        mk("exists_f_vsym", {"var": z, "domain": "V", "mpos": 0, "qpos": 0},
           mk("id", {"a": Member(z, "V")})),
        mk("exists_r_vsym", {"pos": 0, "term": v1, "var": x, "domain": "V",
                             "body": A(x)},
           mk("member", {"domain": "V", "term": v1}), mk("id", {"a": A(v1)})),
        mk("imp_l", {"pos": 0}, mk("id", {"a": p}), mk("id", {"a": q})),
    ]
    out = []
    for proof in proofs:
        for self_dual in (frozenset(), frozenset({"V"})):
            inv = LiteralInvolution("d", self_dual_domains=self_dual)
            out.append(annotate(proof, cfg, reg))
            out.append(symmetrize_proof(proof, inv, cfg, reg))
    # parallel_forall has no mate: it is symmetrized in its expanded form
    pair = Join(IDENTICAL, Atom("A", IConst(1), (x,)), Atom("A", IConst(2), (x,)))
    at_z = Join(IDENTICAL, Atom("A", IConst(1), (z,)), Atom("A", IConst(2), (z,)))
    pairs = mk("join_elim", {"qpos": 0}, mk(
        "forall_r", {"pos": 0, "term": z, "var": x, "domain": "Dplus",
                     "body": pair},
        mk("id", {"a": Member(z, "Dplus")}), mk("id", {"a": at_z})))
    out.append(annotate(mk("parallel_forall", {"var": z, "domain": "Dplus",
                                               "mpos": 1, "qpos": 0}, pairs),
                        cfg, reg))
    return out


def _proofs(cfg, reg, seed: int, count: int) -> list:
    """The corpus proofs, ``count`` random proofs and the hand-built ones,
    each with its symmetric image, every node annotated."""
    corpus = [(proof, inv) for _i, _n, proof, inv in positive_proofs()]
    rng = random.Random(seed)
    corpus += [(random_proof(rng, cfg, reg), IDENTITY_INV)
               for _ in range(count)]
    out = []
    for proof, inv in corpus:
        out.append(annotate(proof, cfg, reg))
        out.append(symmetrize_proof(proof, inv, cfg, reg))
    return out + _hand_built(cfg, reg)


def rule_calls(seed: int = 8, count: int = 60):
    """Seeded ``validate_rule`` calls: (rule, params, premises, claimed,
    context).  Each proof node gives its own call, its premises swapped side
    for side and fed to its twin, each position shifted by -1, +1 and +2,
    each parameter left out, and its own call under other flags."""
    cfg, reg = proof_context()
    ctx = RuleContext(cfg, reg)
    flagged = [RuleContext(dataclasses.replace(cfg, **{
        f: bool(mask >> k & 1) for k, f in enumerate(_FLAGS)}), reg)
        for mask in _FLAG_MASKS]
    for node in (n for proof in _proofs(cfg, reg, seed, count)
                 for n in _nodes(proof)):
        rule, params, claimed = node.rule, node.params, node.conclusion
        prems = [q.conclusion for q in node.premises]
        keep = claimed if rule in _CLAIMING else None
        yield rule, params, prems, claimed, ctx
        yield (_TWIN.get(rule, rule), params, [_flip(s) for s in prems],
               _flip(keep) if keep else None, ctx)
        for key, value in params.items():
            if type(value) is int:
                for d in (-1, 1, 2):
                    yield rule, {**params, key: value + d}, prems, keep, ctx
            rest = {k: v for k, v in params.items() if k != key}
            yield rule, rest, prems, keep, ctx
        for other in flagged:
            yield rule, params, prems, keep, other


def rule_outcome(rule, params, prems, claimed, ctx) -> tuple:
    """(accepted, the conclusion's repr or the RuleError text)."""
    try:
        return True, repr(validate_rule(rule, params, prems, claimed, ctx))
    except RuleError as e:
        return False, str(e)


# sha256 over rule_calls()'s outcomes, one "rule<TAB>outcome" line each,
# computed before the side-mirrored rules were written once
_OUTCOMES_DIGEST = ("5c1eceaff817d9838ec1b103d4d652b6"
                    "47558b56eaa91033cceb55606f271752")


def test_rule_outcomes_digest_unchanged():
    h = hashlib.sha256()
    called, accepted = set(), set()
    for call in rule_calls():
        ok, out = rule_outcome(*call)
        called.add(call[0])
        if ok:
            accepted.add(call[0])
        h.update(f"{call[0]}\t{out}\n".encode())
    assert called == accepted == set(RULES)
    assert h.hexdigest() == _OUTCOMES_DIGEST


def test_validate_rule_raises_only_rule_errors():
    """Random calls of every rule, mostly ill-formed, under both context
    flags: each returns a conclusion or raises a RuleError."""
    cfg, reg = proof_context()
    ctxs = [RuleContext(dataclasses.replace(
        cfg, left_contexts=left, right_contexts=right), reg)
        for left in (False, True) for right in (False, True)]
    rng = random.Random(1)
    arities = {name: arity for name, (arity, _fn) in RULES.items()}
    raised = []
    for call in random_rule_calls(rng, arities, 20_000):
        try:
            validate_rule(*call, rng.choice(ctxs))
        except RuleError:
            pass
        except Exception as e:
            raised.append((call[0], repr(e)))
    assert not raised, raised[:3]


def _refusal(rule, params, prems, claimed=None, **changes) -> tuple:
    """The code and message of the refusal of the step to ``claimed``,
    under the proofs' context with its configuration's ``changes``."""
    cfg, reg = proof_context()
    cfg = dataclasses.replace(cfg, **changes)
    with pytest.raises(RuleError) as e:
        validate_rule(rule, params, prems, claimed, RuleContext(cfg, reg))
    return e.value.code, e.value.message


def _side_condition(rule, params, prems) -> str:
    code, message = _refusal(rule, params, prems)
    assert code == "SideConditionViolated"
    return message


_A1, _A2 = Atom("A", IConst(1), (z,)), Atom("A", IConst(2), (z,))
_IN_DPLUS = Single(Member(z, "Dplus"))


@pytest.mark.parametrize("rule", ["join_intro", "join_intro_l"])
def test_join_intro_rejects_a_pair_with_one_index(rule):
    pair = CorrPair(_A1, IDENTICAL, _A1)
    prem = Sequent((_IN_DPLUS, pair), (pair,))
    assert _side_condition(rule, {"qpos": 1 if rule.endswith("_l") else 0},
                           [prem]) \
        == f"{rule}: pair components need distinct unique indexes"


@pytest.mark.parametrize("rule", ["conv_pair_intro", "conv_pair_intro_l"])
def test_conv_pair_intro_rejects_a_join_principal(rule):
    join, rel = Single(Join(IDENTICAL, _A1, _A2)), Single(
        IndexRel(IConst(1), IDENTICAL, IConst(2)))
    prem = Sequent((join,), (rel,)) if rule.endswith("_l") \
        else Sequent((rel,), (join,))
    assert _side_condition(rule, {"qpos": 0, "relpos": 0}, [prem]) \
        == f"{rule}: pair components need distinct unique indexes"


_DOWN = Outcome("down", Fraction(1, 2))
_A = lambda t: Atom("A", None, (t,))


@pytest.mark.parametrize("rule, params, prems", [
    ("forall_f", {"mpos": 0, "qpos": 0},
     [Sequent((Single(Member(_DOWN, "Dplus")),), (Single(_A(_DOWN)),))]),
    ("exists_f", {"dual": "top", "dpos": 0, "qpos": 0},
     [Sequent((Single(_A(_DOWN)),), (Single(Member(_DOWN, "Dminus")),))]),
    ("parallel_forall", {"mpos": 0, "qpos": 0},
     [Sequent((Single(Member(_DOWN, "Dplus")),), (CorrPair(
         Atom("A", IConst(1), (_DOWN,)), IDENTICAL,
         Atom("A", IConst(2), (_DOWN,))),))]),
    ("forall_r", {"pos": 0, "term": z,
                  "body": Forall(z, "Dplus", Atom("A", None, (_DOWN, z)))},
     [Sequent((), (Single(Member(z, "Dplus")),)),
      Sequent((Single(_A(z)),), ())]),
    ("exists_r", {"pos": 0, "term": z, "dual": "top",
                  "body": Forall(z, "Dplus", Atom("A", None, (_DOWN, z)))},
     [Sequent((), (Single(_A(z)),)),
      Sequent((Single(Member(z, "Dminus")),), ())]),
], ids=["forall_f", "exists_f", "parallel_forall", "forall_r", "exists_r"])
def test_a_bound_variable_is_a_variable(rule, params, prems):
    """An outcome in place of the bound variable is a side condition
    failure, not a quantifier over an outcome."""
    _side_condition(rule, {**params, "var": _DOWN, "domain": "Dplus"}, prems)


_UP = Outcome("up", Fraction(1))


@pytest.mark.parametrize("rule, params, prems, refusal", [
    ("focus", {"domain": "Dplus", "var": z}, [],
     ("SideConditionViolated", "Dplus is not focused")),
    ("dual_focus", {"domain": "Dplus", "var": z, "dual": "top"}, [],
     ("SideConditionViolated", "Dplus is not focused")),
    ("subst", {"var": z, "term": _UP, "domain": "D"},
     [Sequent((Single(Member(z, "D")),), (Single(_A(z)),))],
     ("SideConditionViolated", "up@1 does not denote an element of D")),
    ("subst", {"var": z, "term": y, "domain": "D"},
     [Sequent((Single(Member(z, "D")),), (Single(_A(z)),))],
     ("SideConditionViolated", "y does not denote an element of D")),
    ("parallel_forall", {"var": z, "domain": "D", "mpos": 0, "qpos": 0},
     [Sequent((Single(Member(z, "D")),), (CorrPair(_A1, IDENTICAL, _A2),))],
     ("NotVirtualSingleton",
      "the parallel quantifier rule needs a virtual singleton, got D")),
], ids=["focus-unfocused", "dual-focus-unfocused", "subst-foreign-outcome",
        "subst-variable", "parallel-forall-not-virtual"])
def test_domain_side_conditions_refuse(rule, params, prems, refusal):
    """Each step would be accepted but for the kind of its domain or the
    term it substitutes: an unfocused domain, a term that is no entry of
    the domain, a domain that is not a virtual singleton."""
    assert _refusal(rule, params, prems) == refusal


@pytest.mark.parametrize("dom, chain", [
    ("D", Or(Eq(z, t1), Eq(z, Outcome("t2", Fraction(1, 2))))),
    ("Ddown", Eq(z, Outcome("down", Fraction(1)))),
], ids=["two-entries", "singleton"])
def test_focus_concludes_the_chain_of_entry_equations(dom, chain):
    """z's membership in a focused domain entails its equations with the
    entries, joined by or with the first entry outermost."""
    cfg, reg = proof_context()
    got = validate_rule("focus", {"domain": dom, "var": z}, [], None,
                        RuleContext(cfg, reg))
    assert got == Sequent((Single(Member(z, dom)),), (Single(chain),))


@pytest.mark.parametrize("rule, params", [
    ("focus", {"domain": "E", "var": z}),
    ("dual_focus", {"domain": "E", "var": z, "dual": "d"}),
], ids=["focus", "dual_focus"])
def test_focus_refuses_a_domain_without_entries(rule, params):
    """A focused domain without entries has no chain to conclude."""
    reg = Registry()
    reg.register_domain(DomainRecord("E", (), focused=True))
    with pytest.raises(RuleError) as e:
        validate_rule(rule, params, [], None, RuleContext(CalculusConfig(), reg))
    assert (e.value.code, e.value.message) == \
        ("SideConditionViolated", "E has no entries")


def test_dual_focus_is_the_identity_image_of_focus():
    """dual_focus builds its chain of disequations itself, and its
    conclusion is the IDENTITY_INV image of focus's, the mirror that
    symmetrize_proof relies on: over every focused domain of the standard
    registry and a three-entry one."""
    reg = standard_registry()
    third = Fraction(1, 3)
    reg.register_domain(DomainRecord(
        "T", tuple(Outcome(f"s{k}", third) for k in range(3)), focused=True))
    ctx = RuleContext(CalculusConfig(), reg)
    focused = [dom for dom in reg.names() if reg.get(dom).focused]
    assert focused == ["Ddown", "Dup", "D", "T"]
    for dom in focused:
        focus = validate_rule("focus", {"domain": dom, "var": z}, [], None, ctx)
        mirror = validate_rule("dual_focus", {"domain": dom, "var": z,
                                              "dual": "identity"}, [], None, ctx)
        assert mirror == symmetrize_sequent(focus, IDENTITY_INV)


_B2 = Atom("B", IConst(2), (z,))
_SC = "SideConditionViolated"


@pytest.mark.parametrize("rule, params, prems, changes, refusal", [
    ("dual_exclusion", {"domain": "Dplus", "var": _DOWN, "dual": "top"}, [],
     {}, (_SC, "dual exclusion is issued for variables only")),
    ("forall_r", {"pos": 0, "term": z, "var": x, "domain": "Dplus",
                  "body": _A(x), "as_eq": True},
     [Sequent((), (Single(Eq(z, _DOWN)),)), Sequent((Single(_A(z)),), ())],
     {}, (_SC, "the equality form of membership needs an extensional "
           "singleton")),
    ("subst", {"var": _DOWN, "term": t1, "domain": "D"},
     [Sequent((), (Single(_A(_DOWN)),))], {},
     (_SC, "substitution replaces a variable")),
    ("conv_pair_elim", {"qpos": 0},
     [Sequent((), (CorrPair(_A1, IDENTICAL, _B2),))], {},
     (_SC, "conv_pair_elim: pair components must agree up to their index")),
    ("exists_r", {"pos": 0, "term": z, "var": x, "domain": "Dplus",
                  "dual": "top", "body": _A(x)},
     [Sequent((), (Single(_A(z)),)), Sequent((Single(_A(y)),), ())], {},
     (_SC, "second premise must refute the dual membership of z in Dplus")),
    ("exists_f_vsym", {"var": z, "domain": "Ddown", "mpos": 0, "qpos": 0},
     [Sequent((Single(Member(z, "Ddown")),), (Single(_A(z)),))], {},
     (_SC, "Ddown has no direction-insensitive quantifiers")),
    ("exists_f_vsym", {"var": z, "domain": "V", "mpos": 0, "qpos": 0},
     [Sequent((Single(Member(z, "V")),), (Single(_A(z)),))],
     {"d_axiom_domains": frozenset()},
     ("DAxiomNotLicensed",
      "symmetric quantifier steps on V need its d-axioms licensed")),
    ("parallel_forall", {"var": z, "domain": "Dplus", "mpos": 0, "qpos": 0},
     [Sequent((_IN_DPLUS, Single(_A(z))), (CorrPair(_A1, IDENTICAL, _A2),))],
     {},
     (_SC, "z occurs free outside the principal pair")),
], ids=["dual-exclusion-outcome", "as-eq-not-singleton", "subst-outcome",
        "pair-disagrees", "exists-r-not-dual", "vsym-not-virtual",
        "vsym-unlicensed", "parallel-forall-not-fresh"])
def test_side_conditions_refuse(rule, params, prems, changes, refusal):
    """Each step would be accepted but for one side condition, which no
    other test reaches: a variable where an outcome stands, a membership
    form, a pair's agreement, a dual membership, a macro's domain or
    licence, a fresh variable."""
    assert _refusal(rule, params, prems, **changes) == refusal


def test_rule_arity_refuses_an_unknown_rule():
    with pytest.raises(RuleError) as e:
        rule_arity("no_such_rule")
    assert (e.value.code, e.value.message) == ("UnknownRule", "no_such_rule")


def test_rule_arity_reads_the_catalogue():
    assert (rule_arity("id"), rule_arity("weak_l"), rule_arity("cut")) == \
        (0, 1, 2)


_p, _q, _r = (Atom(n, None, ()) for n in "pqr")
_t = Var("t")
_SM = "SlotMismatch"


@pytest.mark.parametrize("rule, params, prems, claimed, refusal", [
    ("and_r", {"pos": 0},
     [Sequent((Single(_p),), (Single(_q),)),
      Sequent((Single(_p),), (Single(_r), Single(_p)))], None,
     (_SM, "and_r premises must share their contexts")),
    ("and_r", {"pos": 0},
     [Sequent((Single(_p),), (Single(_q),)),
      Sequent((Single(_r),), (Single(_r),))], None,
     (_SM, "and_r premises must share the left context")),
    ("or_l", {"pos": 0},
     [Sequent((Single(_q),), (Single(_p),)),
      Sequent((Single(_r),), (Single(_r),))], None,
     (_SM, "or_l premises must share the right context")),
    ("eq_left", {"pos": 0, "s": z, "t": _t},
     [Sequent((Single(_A(_t)), Single(_p)), (Single(_A(z)),))],
     Sequent((Single(Eq(z, _t)), Single(_A(_t))), (Single(_A(z)),)),
     (_SM, "eq_left changes no slot counts")),
    ("eq_left", {"pos": 0, "s": z, "t": _t},
     [Sequent((Single(_p),), (Single(_q),))],
     Sequent((Single(Eq(z, _t)), Single(_p)), (Single(_r),)),
     (_SC, "a right slot is not a replacement instance")),
], ids=["and-r-slot-counts", "and-r-far-context", "or-l-far-context",
        "eq-left-slot-counts", "eq-left-not-an-instance"])
def test_context_checks_refuse(rule, params, prems, claimed, refusal):
    """Each step would be accepted but for the contexts its premises and
    conclusion share: the slot counts of the premises or of the premise
    and conclusion, the far context of a two-premise rule, a slot that is
    no replacement instance."""
    assert _refusal(rule, params, prems, claimed) == refusal


def test_checker_reach_follows_the_checker_out_of_rules():
    """``tests/checker_reach.py`` reaches what the checker calls in the
    other trusted modules and none of what only search, symmetrization or
    the corpus calls."""
    _, names = checker_reach.reachable()
    assert {"replace_var", "formula_equal", "dual_member",
            "license_d_axiom", "_check", "_r_vsym"} <= names
    assert not {"apply_duality", "symmetrize_formula", "symmetrize_sequent",
                "standard_registry", "consistency_guard", "fresh_var",
                "substitute"} & names
    # and no rule can call the symmetry map: rules imports only these
    tree = ast.parse((checker_reach.SRC / "rules.py").read_text())
    ours = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            and (n.level or n.module.startswith("symlog"))}
    ours |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
             for a in n.names if a.name.startswith("symlog")}
    assert ours == {"formulas", "domains"}
