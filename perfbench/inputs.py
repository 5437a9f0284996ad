"""Seeded workload inputs, each paired with a known answer.

The generators belong to the benchmark and import nothing from the
program's tests, so editing a test cannot change a workload.  The known
answers come from outside the code under test:

* ``corpus``: ``corpus_data/manifest.json``, the documented exit codes
  (0 success, 1 failed check or unproved goal), and the paper's duality
  tables and qubit dictionary;
* ``proofs``: construction.  A proof grown through ``validate_rule`` must
  be accepted, symmetrize to a proof that checks, and survive both round
  trips; a mutant is invalid by construction and must be rejected;
* ``search``: construction for the ladder (chains are provable, the other
  goals are corpus negatives or lack the goal atom), and the search
  contract for every goal: a returned proof checks, proves the goal, and
  has height <= reported depth <= requested depth.

Importing this module imports the program, so ``run.py`` puts the
checkout's ``src`` on the path first.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from symlog import cli
from symlog.corpus import build_items, corpus_config, corpus_registry
from symlog.correlation import distribute_forall
from symlog.domains import standard_registry
from symlog.dualities import (
    IDENTITY_INV, PERP_INV, TOP_INV, LiteralInvolution, apply_duality,
    symmetrize_sequent,
)
from symlog.formulas import (
    And, Atom, DualMember, Eq, Excl, Exists, Forall, IConst, IDENTICAL, Imp,
    Join, Member, Neq, OPPOSITE, Or, Outcome, Par, Sequent, Single, Times,
    Var, seq, sequent_equal,
)
from symlog.kernel import (
    ProofNode, check_proof, proof_equal, symmetrize_proof,
)
from symlog.qubits import BellState, Qubit, bell_formula, state_formula
from symlog.rules import (
    CalculusConfig, RuleContext, RuleError, rule_arity, validate_rule,
)
from symlog.scripts import parse_script, print_proof, print_sequent
from symlog.search import search_proof

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
# The declarations behind corpus_config() and corpus_registry(), as a
# script header, so printed proofs and goals parse under the same domains.
PRELUDE = (DATA / "prelude.blq").read_text()


class Wrong(Exception):
    """A verdict that contradicts the input's known answer."""


class Defect(Exception):
    """A right verdict that breaks a documented contract."""


@dataclass
class Tally:
    """Exact counts of one pass; equal seeds give equal counts."""
    nodes_checked: int = 0
    parse_bytes: int = 0
    proofs_found: int = 0
    depth_overrun: int = 0
    proof_nodes: int = 0
    nodes_rejected: int = 0
    # (proof, cfg, registry) of every accepted proof, for the rules replay
    accepted: list = field(default_factory=list)

    def counts(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "accepted"}


@dataclass
class Case:
    id: str
    answer: Optional[str]           # "positive", "negative" or None
    run: Callable                   # run(tracer, tally); raises Wrong/Defect


@dataclass
class Workload:
    cases: list
    digest: str                     # sha256 of the generated inputs
    cold_argv: list                 # arguments after ``-m symlog.cli``
    cold_expect: Callable           # (exit code, stdout) -> None or raise Wrong
    first: list                     # the cases set-up runs to a first verdict
    files: dict = field(default_factory=dict)   # work-dir name -> text
    replay: Optional[Callable] = None           # layer replay, traced runs


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def proof_nodes(p: ProofNode) -> int:
    return 1 + sum(proof_nodes(q) for q in p.premises)


def proof_height(p: ProofNode) -> int:
    return 1 + max((proof_height(q) for q in p.premises), default=0)


def checked(tr, tally: Tally, p: ProofNode, cfg, reg, what: str) -> None:
    """Check a proof that must be accepted."""
    with tr.span("kernel.check"):
        rep = check_proof(p, cfg, reg)
    tally.nodes_checked += proof_nodes(p)
    if not rep.ok:
        raise Wrong(f"{what} rejected: {rep.failures[0].reason}")
    if tr.enabled:
        tally.accepted.append((p, cfg, reg))


# --------------------------------------------------------------------------
# rule families, for the rules replay

FAMILIES = {
    "axiom": ("id", "member", "dual_member_refuted", "dual_exclusion",
              "dual_em", "focus", "dual_focus", "d_axiom"),
    "additive": ("and_l1", "and_l2", "or_r1", "or_r2", "and_r", "or_l"),
    "multiplicative": ("times_l", "par_r", "times_r", "par_l"),
    "implication": ("imp_r", "excl_l", "imp_l", "excl_r"),
    "quantifier": ("forall_f", "exists_f", "forall_r", "exists_r",
                   "parallel_forall", "forall_f_vsym", "exists_f_vsym",
                   "forall_r_vsym", "exists_r_vsym"),
    "equality": ("refl", "neq_refl", "subst", "eq_left", "neq_right",
                 "eq_left_elim", "neq_right_elim"),
    "correlation": ("conv_pair_elim", "conv_pair_intro", "conv_pair_elim_l",
                    "conv_pair_intro_l", "join_intro", "join_elim",
                    "join_intro_l", "join_elim_l"),
    "structural": ("weak_l", "weak_r", "contract_l", "contract_r",
                   "expand_l", "expand_r", "cut"),
}
FAMILY_OF = {rule: fam for fam, rules in FAMILIES.items() for rule in rules}


def replay_rules(tr, accepted: list) -> None:
    """Re-validate every node of every accepted proof, one span per
    ``validate_rule`` call, named after the rule's family."""
    for p, cfg, reg in accepted:
        ctx = RuleContext(cfg, reg)

        def go(node: ProofNode):
            concls = [go(q) for q in node.premises]
            with tr.span("rules.validate." + FAMILY_OF.get(node.rule, "other")):
                return validate_rule(node.rule, node.params, concls,
                                     node.conclusion, ctx)

        go(p)


# --------------------------------------------------------------------------
# corpus: the shipped corpus through ``cli.main``, as users type it

# The involution each item's proofs are symmetrized under: the duality tag
# of the domain the item is about (C7 covers one domain of each kind).
_ITEM_INVOLUTION = {"C1": "d", "C2": "d", "C3": "d", "C5": "d", "C6": "identity",
                    "C9": "top", "C10": "identity", "C11": "top", "C12": "top",
                    "C13": "identity", "C14": "top", "C15": "top"}
_PROOF_INVOLUTION = {"exists_to_forall_V": "d", "exists_to_forall_Dplus": "top"}
_NAMED_INVS = {"identity": IDENTITY_INV, "perp": PERP_INV, "top": TOP_INV}

# perp swaps the sharp outcomes and their domains, top swaps the phase
# domains; correlated-pair formulas are fixed points of both.
_DUAL_EXPECT = {
    ("sharp", "perp"): "A(up@1) |- forall x in Dup . A(x)",
    ("sharp", "top"): "A(down@1) |- forall x in Ddown . A(x)",
    ("phase", "perp"): "forall x in Dplus . A(x) |- exists x in Dminus . A(x)",
    ("phase", "top"): "forall x in Dminus . A(x) |- exists x in Dplus . A(x)",
    ("mixed", "perp"): "A(up@1) & A(down@1) |- forall x in Ddown . A(x)",
    ("mixed", "top"): "A(down@1) & A(up@1) |- forall x in Dup . A(x)",
    ("bell", "perp"): "|- forall x in Dplus . A_1(x) join_i A_2(x)",
    ("bell", "top"): "|- forall x in Dplus . A_1(x) join_i A_2(x)",
}
_QUBIT_DOMAIN = {"down": "Ddown", "up": "Dup", "plus": "Dplus", "minus": "Dminus"}
_STANDARD_DOMAINS = ("Ddown", "Dup", "Dplus", "Dminus", "D", "V")
# the goals of the C4 and C16 negatives, searched through the CLI
_CORPUS_NEGATIVES = """
sequent c4_neg : A(down@1/2) & A(up@1/2) |- forall x in Dplus . A(x)
sequent c16 : p -> q, q |- p
"""


def run_cli(argv: list) -> tuple:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _expect_rc(want: int, rc: int) -> None:
    if rc != want:
        raise Wrong(f"exit code {rc}, expected {want}")


def _expect_corpus(manifest: dict):
    def check(rc: int, out: str) -> None:
        _expect_rc(0, rc)
        lines = out.splitlines()
        want = [f"{it['id']:4} pass [{it['expectation']}] {it['title']}:"
                for it in manifest["items"]]
        if len(lines) != len(want) or not all(
                line.startswith(w) for line, w in zip(lines, want)):
            raise Wrong("corpus report differs from the manifest")
    return check


def _expect_lines(want_rc: int, want: list):
    def check(rc: int, out: str) -> None:
        _expect_rc(want_rc, rc)
        if out.splitlines()[:len(want)] != want:
            raise Wrong(f"output {out.splitlines()[:len(want)]!r}, "
                        f"expected {want!r}")
    return check


def _expect_first_word(want_rc: int, word: str, at: int = 0):
    def check(rc: int, out: str) -> None:
        _expect_rc(want_rc, rc)
        words = out.split()
        if len(words) <= at or words[at] != word:
            raise Wrong(f"output {out[:60]!r}, expected {word!r}")
    return check


def _expect_detach(rc: int, out: str) -> None:
    """C17: proved within depth 4; the printed proof indents each premise
    two spaces deeper, so its height is the deepest indent plus one."""
    _expect_rc(0, rc)
    lines = out.splitlines()
    head = lines[0].split()
    if head[0] != "proved":
        raise Wrong(f"detachment: {lines[0]}")
    depth = int(head[-1].rstrip(")"))
    height = 1 + max((len(x) - len(x.lstrip(" "))) // 2 for x in lines[1:])
    if not height <= depth <= 4:
        raise Defect(f"proof height {height}, reported depth {depth}, cap 4")


def _cli_case(cid: str, answer, argv: list, expect) -> Case:
    command = argv[0]

    def run(tr, tally):
        with tr.span("cli.cmd." + command, cid):
            rc, out = run_cli(argv)
        if command == "search" and rc == 0:   # one printed line per node
            tally.proofs_found += 1
            tally.proof_nodes += len(out.splitlines()) - 1
        expect(rc, out)

    return Case(cid, answer, run)


def corpus_workload(seed: int, root: Path, work: Path) -> Workload:
    data = root / "src" / "symlog" / "corpus_data"
    manifest = json.loads((data / "manifest.json").read_text())
    scripts = {it["id"]: (data / it["file"], it["proofs"])
               for it in manifest["items"] if "file" in it}
    dual_blq = str(DATA / "dual.blq")
    search_blq = str(work / "search_corpus.blq")

    cases = [_cli_case("corpus", "positive", ["corpus"],
                       _expect_corpus(manifest))]
    for item_id, (path, proofs) in scripts.items():
        cases.append(_cli_case(f"check:{item_id}", "positive",
                               ["check", str(path)],
                               _expect_lines(0, [f"{p}: ok" for p in proofs])))
        for name in proofs:
            inv = _PROOF_INVOLUTION.get(name) or _ITEM_INVOLUTION[item_id]
            cases.append(_cli_case(
                f"sym:{item_id}:{name}", "positive",
                ["sym", str(path), "--name", name, "--involution", inv],
                lambda rc, out: _expect_rc(0, rc)))
    for (name, duality), text in _DUAL_EXPECT.items():
        cases.append(_cli_case(f"dual:{name}:{duality}", None,
                               ["dual", dual_blq, "--name", name,
                                "--duality", duality],
                               _expect_lines(0, [text])))
    for dom in _STANDARD_DOMAINS:
        cases.append(_cli_case(f"guard:{dom}", None, ["guard", dom],
                               _expect_lines(0, ["consistent"])))
    cases.append(_cli_case(
        "guard:V:collapse-demo", "positive", ["guard", "V", "--collapse-demo"],
        _expect_lines(0, ["collapse", "|- v2@1/2 = v1@1/2",
                          "|- v1@1/2 = v2@1/2"])))
    for q, dom in _QUBIT_DOMAIN.items():
        cases.append(_cli_case(
            f"qstate:{q}", None, ["qstate", str(DATA / f"qubit_{q}.json")],
            _expect_first_word(0, dom, at=1)))
    for phase in ("plus", "minus"):
        for corr, join in (("identical", "join_i"), ("opposite", "join_o")):
            dom = "Dplus" if phase == "plus" else "Dminus"
            cases.append(_cli_case(
                f"bell:{phase}:{corr}", None,
                ["bell", "--phase", phase, "--correlation", corr],
                _expect_lines(0, [f"(forall x in {dom} . A_1(x) {join} A_2(x))"])))
    for name in ("c4_neg", "c16"):
        cases.append(_cli_case(f"search:{name}", "negative",
                               ["search", search_blq, "--name", name,
                                "--depth", "8"],
                               _expect_lines(1, ["not-found (depth 8)"])))
    cases.append(_cli_case("search:c17", "positive",
                           ["search", str(DATA / "detach.blq"), "--name", "c17",
                            "--depth", "4"], _expect_detach))
    first = [c for c in cases if c.id == "check:C1"]
    random.Random(seed).shuffle(cases)

    texts = {item_id: path.read_text(encoding="utf-8")
             for item_id, (path, _) in scripts.items()}

    def replay(tr, tally):
        _corpus_replay(tr, tally, texts, scripts)

    return Workload(
        cases,
        digest([c.id for c in cases] + sorted(texts.items())),
        ["corpus"], _expect_corpus(manifest), first, replay=replay,
        files={"search_corpus.blq": PRELUDE + _CORPUS_NEGATIVES})


def _involution(name: str) -> LiteralInvolution:
    return _NAMED_INVS.get(name) or LiteralInvolution(name)


def _corpus_replay(tr, tally: Tally, texts: dict, scripts: dict) -> None:
    """The layers ``cli.main`` calls on the corpus, called one by one so
    each gets its own span."""
    for item_id, text in texts.items():
        with tr.span("scripts.parse", item_id):
            sc = parse_script(text)
        tally.parse_bytes += len(text.encode())
        cfg, reg = sc.config(), sc.registry()
        for name in scripts[item_id][1]:
            p = sc.proofs[name]
            checked(tr, tally, p, cfg, reg, name)
            with tr.span("scripts.print", item_id):
                print_proof(p)
            inv = _involution(_PROOF_INVOLUTION.get(name)
                              or _ITEM_INVOLUTION[item_id])
            with tr.span("kernel.symmetrize", item_id):
                sym = symmetrize_proof(p, inv, cfg, reg)
            with tr.span("dualities.symmetrize_sequent", item_id):
                want = symmetrize_sequent(p.conclusion, inv)
            with tr.span("formulas.sequent_equal", item_id):
                sequent_equal(sym.conclusion, want)
    with tr.span("domains.standard_registry"):
        reg = standard_registry()
    demo = standard_registry(collapse_demo=True)
    with tr.span("domains.consistency_guard"):
        demo.consistency_guard("V")
    cfg = corpus_config()
    x = Var("x")
    a1, a2 = Atom("A", IConst(1), (x,)), Atom("A", IConst(2), (x,))
    for dom, tag in (("Dplus", IDENTICAL), ("Dminus", OPPOSITE)):
        with tr.span("correlation.distribute_forall"):
            distribute_forall(dom, a1, a2, tag, cfg, reg)
    h = 0.7071067811865476
    for q in (Qubit(1.0, 0.0), Qubit(0.0, 1.0), Qubit(h, h, 0.0),
              Qubit(h, h, 3.141592653589793)):
        with tr.span("qubits.state_formula"):
            f = state_formula(q, reg)
        for duality in ("perp", "top"):
            with tr.span("dualities.apply_duality"):
                apply_duality(f, duality)
    for phase in ("plus", "minus"):
        for tag in (IDENTICAL, OPPOSITE):
            with tr.span("qubits.bell_formula"):
                bell_formula(BellState(phase, tag))
    for item in build_items():
        with tr.span("corpus.item." + item.id):
            item.run()


# --------------------------------------------------------------------------
# proofs: random checkable proofs grown downward, and invalid mutants

_VARS = (Var("z"), Var("y"), Var("w"), Var("v"))
_OUTCOMES = (Outcome("t1", Fraction(1, 2)), Outcome("t2", Fraction(1, 2)),
             Outcome("down", Fraction(1)), Outcome("up", Fraction(1)))
_DOMAINS = ("D", "Ddown", "Dup", "Dplus", "Dminus", "V")
_BINARY = (And, Or, Times, Par, Imp, Excl)


# (unary steps, binary steps, size, proofs) per size class: the acceptance
# shape (at most five steps, median four nodes; see acceptance_plans), then
# classes of 25, 93 and
# 189 nodes.  A binary step puts the proof on both sides of and_r / or_l,
# doubling it; spacing the binary steps evenly fixes a class's node count,
# and redrawing until _grow's size is within 10 % of the class's keeps its
# printed size steady across seeds.  The counts put the median verdict
# inside the acceptance class, whose many members keep it steady, and the
# 90th percentile near the middle of the 25-node class, away from the gaps
# between classes.
_CLASSES = ((None, None, None, 180), (6, 2, 470, 20), (10, 4, 2200, 15),
            (12, 5, 4800, 10))


def formula_size(f) -> int:
    """Roughly the printed length in words.  The benchmark counts sizes
    itself so that its inputs do not depend on how the program prints or
    represents formulas."""
    if isinstance(f, (And, Or, Times, Par, Imp, Excl, Join)):
        return 1 + formula_size(f.a) + formula_size(f.b)
    if isinstance(f, (Forall, Exists)):
        return 3 + formula_size(f.body)
    if isinstance(f, Atom):
        return 1 + len(f.args)
    return 4 if isinstance(f, DualMember) else 3


def _sequent_size(s: Sequent) -> int:
    return sum(formula_size(x.formula) for x in s.left + s.right)


def _term(rng):
    return rng.choice(_VARS + _OUTCOMES)


def _formula(rng, depth: int):
    if depth <= 0:
        kind = rng.randrange(6)
        if kind == 0:
            return Atom(rng.choice("pqr"), None,
                        tuple(_term(rng) for _ in range(rng.randrange(2))))
        if kind == 1:
            return Member(_term(rng), rng.choice(_DOMAINS))
        if kind == 2:
            return DualMember(_term(rng), rng.choice(_DOMAINS), "identity")
        if kind == 3:
            return Eq(_term(rng), _term(rng))
        if kind == 4:
            return Neq(_term(rng), _term(rng))
        return Atom("A", IConst(rng.choice((1, 2))), (_term(rng),))
    kind = rng.randrange(8)
    if kind < 6:
        return _BINARY[kind](_formula(rng, depth - 1), _formula(rng, depth - 1))
    ctor = Forall if kind == 6 else Exists
    return ctor(rng.choice(_VARS), rng.choice(_DOMAINS),
                _formula(rng, depth - 1))


def _axiom(rng, reg) -> ProofNode:
    kind = rng.randrange(6)
    if kind == 0:
        return ProofNode("id", {"a": _formula(rng, rng.randrange(3))})
    if kind == 1:
        return ProofNode("refl", {"t": _term(rng)})
    if kind == 2:
        return ProofNode("neq_refl", {"t": _term(rng)})
    dom = rng.choice(_DOMAINS)
    if kind == 3:
        return ProofNode("member", {"domain": dom,
                                    "term": rng.choice(reg.get(dom).entries)})
    rule = "dual_exclusion" if kind == 4 else "dual_em"
    return ProofNode(rule, {"domain": dom, "var": rng.choice(_VARS),
                            "dual": "identity"})


def _unary_moves(rng, s: Sequent) -> list:
    left = [i for i, x in enumerate(s.left) if isinstance(x, Single)]
    right = [i for i, x in enumerate(s.right) if isinstance(x, Single)]
    other = lambda: _formula(rng, rng.randrange(2))
    moves = [("weak_l", {"pos": rng.randrange(len(s.left) + 1),
                         "formula": other()}),
             ("weak_r", {"pos": rng.randrange(len(s.right) + 1),
                         "formula": other()})]
    if left:
        pos = rng.choice(left)
        moves += [(rng.choice(("and_l1", "and_l2")), {"pos": pos, "other": other()}),
                  ("expand_l", {"pos": pos})]
    if right:
        pos = rng.choice(right)
        moves += [(rng.choice(("or_r1", "or_r2")), {"pos": pos, "other": other()}),
                  ("expand_r", {"pos": pos})]
    pairs_l = [i for i in left if i + 1 in left]
    pairs_r = [i for i in right if i + 1 in right]
    if pairs_l:
        moves.append(("times_l", {"pos": rng.choice(pairs_l)}))
    if pairs_r:
        moves.append(("par_r", {"pos": rng.choice(pairs_r)}))
    for side, rule in ((s.left, "contract_l"), (s.right, "contract_r")):
        same = [i for i in range(len(side) - 1) if side[i] == side[i + 1]]
        if same:
            i = rng.choice(same)
            moves.append((rule, {"i": i, "j": i + 1}))
    if s.left and s.right:
        moves += [("imp_r", {}), ("excl_l", {})]
    rng.shuffle(moves)
    return moves


def _step(rng, node: ProofNode, binary: bool, ctx) -> ProofNode:
    """One downward step; the same node when no chosen rule applies."""
    s = node.conclusion
    if binary:
        # and_r / or_l double the principal formula; taking the smallest one
        # keeps repeated doubling from blowing up a single formula
        moves = []
        for side, rule in ((s.right, "and_r"), (s.left, "or_l")):
            sizes = {i: formula_size(x.formula) for i, x in enumerate(side)
                     if isinstance(x, Single)}
            if sizes:
                least = min(sizes.values())
                moves.append((rule, {"pos": rng.choice(
                    [i for i, n in sizes.items() if n == least])}))
        rng.shuffle(moves)
        premises = (node, node)
    else:
        moves = _unary_moves(rng, s)
        premises = (node,)
    for rule, params in moves:
        try:
            concl = validate_rule(rule, params, [p.conclusion for p in premises],
                                  None, ctx)
        except RuleError:
            continue
        return ProofNode(rule, params, premises, concl)
    return node


def random_proof(rng, size: tuple, ctx) -> ProofNode:
    """A proof the checker must accept, grown downward from an axiom.
    ``size`` is a class of ``_CLASSES``, or a plan: a list that says for
    each step whether it is binary."""
    if isinstance(size, list):
        return _grow(rng, size, ctx)[0]
    unary, binary, target = size
    every = (unary + binary) // binary
    plan = [k % every == every - 1 for k in range(unary + binary)]
    while True:
        node, total = _grow(rng, plan, ctx)
        if 0.9 * target <= total <= 1.1 * target:
            return node


def acceptance_plans(n: int) -> list:
    """Plans of the acceptance shape: at most five steps, a quarter of them
    binary.  Verdict times depend mostly on the plan, so the plans are the
    same for every seed (drawn once, from seed 0); the seed draws the
    axioms, formulas and rules."""
    layout = random.Random(0)
    return [[layout.random() < 0.25 for _ in range(layout.randrange(6))]
            for _ in range(n)]


def _grow(rng, plan, ctx) -> tuple:
    """A grown proof and its formula size summed over every node."""
    while True:
        leaf = _axiom(rng, ctx.registry)
        try:
            concl = validate_rule(leaf.rule, leaf.params, [], None, ctx)
        except RuleError:
            continue
        node = ProofNode(leaf.rule, leaf.params, (), concl)
        break
    total = _sequent_size(node.conclusion)
    for is_binary in plan:
        grown = _step(rng, node, is_binary, ctx)
        if grown is not node:
            total = (2 if is_binary else 1) * total + _sequent_size(grown.conclusion)
            node = grown
    return node, total


def mutate(rng, p: ProofNode, kind: int) -> ProofNode:
    """A copy of ``p`` that is invalid by construction."""
    if kind == 0:   # the conclusion claims one formula more
        extra = Single(_formula(rng, 1))
        c = p.conclusion
        concl = Sequent(c.left, c.right + (extra,)) if rng.random() < 0.5 \
            else Sequent((extra,) + c.left, c.right)
        return ProofNode(p.rule, p.params, p.premises, concl)
    if kind == 1:   # a premise count that does not match rule_arity
        if rule_arity(p.rule) > 0:
            return ProofNode(p.rule, p.params, p.premises[:-1], p.conclusion)
        return ProofNode(p.rule, p.params, (p,), p.conclusion)
    # a required parameter removed from the node nearest the root that has one
    path, node = [], p
    while not node.params:
        path.append(0)
        node = node.premises[0]
    key = rng.choice(sorted(node.params))
    params = {k: v for k, v in node.params.items() if k != key}
    return _replace_at(p, path, ProofNode(node.rule, params, node.premises,
                                          node.conclusion))


def _replace_at(p: ProofNode, path: list, new: ProofNode) -> ProofNode:
    if not path:
        return new
    prems = list(p.premises)
    prems[path[0]] = _replace_at(prems[path[0]], path[1:], new)
    return ProofNode(p.rule, p.params, tuple(prems), p.conclusion)


# the qubit dictionary's duality tables, as the paper states them
_PERP_LABELS = {"down": "up", "up": "down"}
_DUAL_DOMAINS = {"perp": {"Ddown": "Dup", "Dup": "Ddown"},
                 "top": {"Dplus": "Dminus", "Dminus": "Dplus"}}


def _dictionary_formula(rng):
    x = Var("x")
    kind = rng.randrange(4)
    sharp = lambda: Atom(rng.choice("AB"), None,
                         (Outcome(rng.choice(("down", "up")), Fraction(1)),))
    if kind == 0:
        return sharp()
    if kind == 1:
        return And(sharp(), sharp())
    if kind == 2:
        ctor = rng.choice((Forall, Exists))
        return ctor(x, rng.choice(("Ddown", "Dup", "Dplus", "Dminus")),
                    Atom(rng.choice("AB"), None, (x,)))
    tag = rng.choice((IDENTICAL, OPPOSITE))
    return Forall(x, rng.choice(("Dplus", "Dminus")),
                  Join(tag, Atom("A", IConst(1), (x,)), Atom("A", IConst(2), (x,))))


def _expected_dual(f, duality: str):
    if isinstance(f, Atom):
        o = f.args[0]
        label = _PERP_LABELS[o.label] if duality == "perp" else o.label
        return Atom(f.pred, f.index, (Outcome(label, o.prob),))
    if isinstance(f, And):
        return And(_expected_dual(f.a, duality), _expected_dual(f.b, duality))
    if isinstance(f.body, Join):
        return f
    return type(f)(f.var, _DUAL_DOMAINS[duality].get(f.domain, f.domain), f.body)


def proofs_workload(seed: int, n_dual: int) -> Workload:
    rng = random.Random(seed)
    cfg, reg = corpus_config(), corpus_registry()
    ctx = RuleContext(cfg, reg)
    valid = [random_proof(rng, plan, ctx)
             for plan in acceptance_plans(_CLASSES[0][3])]
    valid += [random_proof(rng, cls[:3], ctx)
              for cls in _CLASSES[1:] for _ in range(cls[3])]
    # two acceptance-shaped proofs in five, and every larger proof, get an
    # invalid copy; the larger ones carry most of the reject time, so
    # taking them all keeps it steady across seeds
    n_small = _CLASSES[0][3]
    picked = [k for k in range(len(valid)) if k >= n_small or k % 5 in (1, 3)]
    mutants = [mutate(rng, valid[k], j % 3) for j, k in enumerate(picked)]
    dual = [(_dictionary_formula(rng), rng.choice(("perp", "top")))
            for _ in range(n_dual)]

    def valid_case(k: int, p: ProofNode) -> Case:
        name = f"g{k}"

        def run(tr, tally):
            checked(tr, tally, p, cfg, reg, "generated proof")
            with tr.span("kernel.symmetrize"):
                sym = symmetrize_proof(p, IDENTITY_INV, cfg, reg)
            checked(tr, tally, sym, cfg, reg, "symmetrized proof")
            with tr.span("dualities.symmetrize_sequent"):
                want = symmetrize_sequent(p.conclusion, IDENTITY_INV)
            with tr.span("formulas.sequent_equal"):
                same = sequent_equal(sym.conclusion, want)
            if not same:
                raise Wrong("symmetrized proof proves another sequent")
            with tr.span("kernel.symmetrize"):
                back = symmetrize_proof(sym, IDENTITY_INV, cfg, reg)
            with tr.span("kernel.proof_equal"):
                same = proof_equal(back, p)
            if not same:
                raise Wrong("double symmetrization changed the proof")
            with tr.span("scripts.print"):
                text = (f"{PRELUDE}proof {name} : "
                        f"{print_sequent(p.conclusion)}\n{print_proof(p)}\n")
            with tr.span("scripts.parse"):
                sc = parse_script(text)
            tally.parse_bytes += len(text.encode())
            with tr.span("kernel.proof_equal"):
                same = proof_equal(sc.proofs[name], p)
            if not same:
                raise Wrong("print/parse round trip changed the proof")

        return Case(f"proof:{name}", "positive", run)

    def mutant_case(k: int, m: ProofNode) -> Case:
        def run(tr, tally):
            with tr.span("kernel.reject"):
                rep = check_proof(m, cfg, reg)
            tally.nodes_rejected += proof_nodes(m)
            if rep.ok:
                raise Wrong("invalid proof accepted")

        return Case(f"mutant:{('extra', 'arity', 'param')[k % 3]}:{k}",
                    "negative", run)

    def dual_case(k: int, f, duality: str) -> Case:
        want = _expected_dual(f, duality)

        def run(tr, tally):
            with tr.span("dualities.apply_duality"):
                img = apply_duality(f, duality)
                back = apply_duality(img, duality)
            if img != want or back != f:
                raise Wrong(f"{duality} image differs from the dictionary")

        return Case(f"dual:{k}", None, run)

    first = [valid_case(0, valid[0])]
    cases = (first + [valid_case(k, p) for k, p in enumerate(valid) if k]
             + [mutant_case(k, m) for k, m in enumerate(mutants)]
             + [dual_case(k, f, d) for k, (f, d) in enumerate(dual)])
    rng.shuffle(cases)

    # the cold command checks twenty acceptance-shaped proofs
    small = range(20)
    script = PRELUDE + "".join(
        f"proof g{k} : {print_sequent(valid[k].conclusion)}\n"
        f"{print_proof(valid[k])}\n" for k in small)
    fname = f"proofs-{seed}.blq"
    return Workload(
        cases, digest(valid + mutants + dual),
        ["check", fname],
        _expect_lines(0, [f"g{k}: ok" for k in small]),
        first, files={fname: script})


# --------------------------------------------------------------------------
# search: the fixed ladder plus a seeded stream of small random goals

def _p(i):
    return Atom(f"p{i}", None, ())


_V1, _V2 = Outcome("v1", Fraction(1, 2)), Outcome("v2", Fraction(1, 2))
_NO_SUBST = CalculusConfig(True, True, True, True,
                           d_axiom_domains=frozenset({("V", "d")}))
_NO_DAX = CalculusConfig(True, True, True, True,
                         substitution_domains=frozenset({"V"}),
                         collapse_demo=True)


def ladder() -> list:
    """(name, goal, depth, config or None for corpus_config(), provable)."""
    x = Var("x")
    a = lambda t: Atom("A", None, (t,))
    down, up = Outcome("down", Fraction(1, 2)), Outcome("up", Fraction(1, 2))
    out = []
    for k in range(3, 7):
        goal = seq([Imp(_p(i), _p(i + 1)) for i in range(k)] + [_p(0)], [_p(k)])
        out.append((f"chain{k}", goal, k + 3, None, True))
    for n in range(3, 6):
        goal = seq([And(_p(i), _p(i + 1)) for i in range(n)], [_p(11)])
        out.append((f"and{n}", goal, 7, None, False))
    out.append(("c4_neg", seq([And(a(down), a(up))], [Forall(x, "Dplus", a(x))]),
                8, None, False))
    out.append(("c8_no_subst", seq([], [Eq(_V2, _V1)]), 8, _NO_SUBST, False))
    out.append(("c8_no_dax", seq([], [Eq(_V2, _V1)]), 8, _NO_DAX, False))
    out.append(("c16", seq([Imp(Atom("p", None, ()), Atom("q", None, ())),
                            Atom("q", None, ())], [Atom("p", None, ())]),
                8, None, False))
    return out


def _balanced(rng, items, n: int) -> list:
    col = [items[i % len(items)] for i in range(n)]
    rng.shuffle(col)
    return col


def random_goals(rng, n: int) -> list:
    """Three one-connective formulas over p, q, r on the left, one on the
    right.  Search cost depends on the connectives and on which atom
    positions hold the same atom, so that layout is the same for every
    seed (drawn once, from seed 0, each atom position from a shuffled
    column that holds p, q and r equally often); the seed renames the
    atoms of each goal by a permutation of p, q and r."""
    atoms = [Atom(c, None, ()) for c in "pqr"]
    layout = random.Random(0)
    conn = [_balanced(layout, _BINARY, n) for _ in range(4)]
    args = [_balanced(layout, range(3), n) for _ in range(8)]
    goals = []
    for i in range(n):
        name = rng.sample(atoms, 3)
        goals.append(seq([conn[k][i](name[args[2 * k][i]],
                                     name[args[2 * k + 1][i]])
                          for k in range(3)],
                         [conn[3][i](name[args[6][i]], name[args[7][i]])]))
    return goals


RANDOM_DEPTH = 6


def search_workload(seed: int, n_random: int) -> Workload:
    rng = random.Random(seed)
    cfg, reg = corpus_config(), corpus_registry()
    goals = [(name, g, d, c or cfg, prov) for name, g, d, c, prov in ladder()]
    goals += [(f"r{k:03d}", g, RANDOM_DEPTH, cfg, None)
              for k, g in enumerate(random_goals(rng, n_random))]
    text = PRELUDE + "".join(
        f"sequent {name} : {print_sequent(g)}\n" for name, g, *_ in goals)
    parsed: dict = {}

    def parse_run(tr, tally):
        with tr.span("scripts.parse"):
            sc = parse_script(text)
        tally.parse_bytes += len(text.encode())
        if any(sc.sequents.get(name) != g for name, g, *_ in goals):
            raise Wrong("goal script parsed to other sequents")
        parsed.clear()
        parsed.update(sc.sequents)

    def goal_case(name, goal, depth, c, provable) -> Case:
        span = "search.random" if provable is None else "search.goal." + name

        def run(tr, tally):
            with tr.span(span):
                out = search_proof(parsed[name], c, reg, depth=depth,
                                   max_depth=max(depth, 8))
            if provable is not None and out.found != provable:
                raise Wrong(f"{name}: {out.status}, expected "
                            f"{'proved' if provable else 'no proof'}")
            if not out.found:
                return
            tally.proofs_found += 1
            tally.proof_nodes += proof_nodes(out.proof)
            checked(tr, tally, out.proof, c, reg, "search proof")
            with tr.span("formulas.sequent_equal"):
                same = sequent_equal(out.proof.conclusion, goal)
            if not same:
                raise Wrong(f"{name}: the proof proves another sequent")
            with tr.span("scripts.print"):
                print_proof(out.proof)
            height = proof_height(out.proof)
            if not height <= out.depth <= depth:
                tally.depth_overrun += 1
                raise Defect(f"{name}: proof height {height}, reported depth "
                             f"{out.depth}, requested {depth}")

        return Case(f"search:{name}",
                    None if provable is None else
                    ("positive" if provable else "negative"), run)

    by_name = {g[0]: goal_case(*g) for g in goals}
    negatives = [by_name[n] for n in ("and3", "and4", "and5", "c4_neg",
                                      "c8_no_subst", "c8_no_dax", "c16")]
    stream = [by_name[g[0]] for g in goals if g[4] is None]
    q = [stream[k * len(stream) // 4:(k + 1) * len(stream) // 4]
         for k in range(4)]
    # A pass runs each chain once; chain6 alone takes most of it.  The
    # cheaper ladder goals recur four times and the random stream twice,
    # once on each side of chain6, in quarters between the other goals, so
    # their times are sampled across the whole pass, not in one burst.
    cases = ([Case("parse:goals", None, parse_run)]
             + [by_name["chain3"], by_name["chain4"]] + q[0] + negatives
             + q[1] + [by_name["chain5"]] + q[2] + negatives + q[3]
             + [by_name["chain6"]] + q[3] + negatives + q[2] + q[1]
             + negatives + q[0])
    fname = "ladder.blq"
    return Workload(
        cases, digest([text]),
        ["search", fname, "--name", "chain3", "--depth", "6"],
        _expect_first_word(0, "proved"), cases[:2], files={fname: text})


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    if name == "corpus":
        return corpus_workload(seed, root, work)
    if name == "proofs":
        return proofs_workload(seed, n_dual=30)
    if name == "search":
        return search_workload(seed, n_random=200)
    raise ValueError(f"unknown workload {name!r}")
