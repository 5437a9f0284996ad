"""The regression corpus: every stock derivation of the calculus, with its
expected outcome, runnable as a single battery.

The corpus is its shipped files.  ``corpus_data/manifest.json`` lists each
item's id, title and expectation; an item that holds proofs also names its
``.blq`` script, the proofs in it, and the involution their symmetric
images are taken under (``involution`` plus the ``self_dual`` domains, or
``involutions`` per proof).  This module is the runner: it parses each
script once per run, checks every proof, and adds the claims an item makes
beyond its proofs (a round trip, a table, fixed points, a macro expansion).
C4, C8, C16 and C17 are bounded searches and the licensing collapse, and
C18 symmetrizes every shipped proof.  ``export_corpus`` writes the scripts
back out in printed form, together with the manifest.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .correlation import distribute_forall
from .domains import Registry, standard_registry
from .dualities import apply_duality, symmetrize_sequent
from .formulas import (
    And, Atom, Eq, Forall, Formula, IConst, IDENTICAL, Imp, Join, Member,
    OPPOSITE, Outcome, Var, seq, sequent_equal,
)
from .kernel import collapse_config, expand_derived, symmetrize_proof
from .qubits import BellState, bell_formula
from .rules import CalculusConfig, annotate, check_proof, mk, proof_equal
from .scripts import parse_script, print_script
from .search import search_proof

__all__ = [
    "CorpusItem", "CorpusResult", "corpus_registry", "corpus_config",
    "build_items", "run_corpus", "positive_proofs", "export_corpus",
]

NEGATIVE_DEPTH = 8
_DATA_DIR = Path(__file__).resolve().parent / "corpus_data"

_x, _z = Var("x"), Var("z")
_half = Fraction(1, 2)


def _A(t, index=None) -> Formula:
    return Atom("A", index, (t,))


def corpus_registry(collapse_demo: bool = False) -> Registry:
    return standard_registry(collapse_demo=collapse_demo)


def corpus_config() -> CalculusConfig:
    return CalculusConfig(
        left_contexts=True, right_contexts=True, weakening=True, cut=True,
        substitution_domains=frozenset({"D", "Ddown", "Dup"}),
        d_axiom_domains=frozenset({("Dplus", "top"), ("Dminus", "top"),
                                   ("V", "d"), ("Ddown", "neq"),
                                   ("Dup", "neq")}))


@dataclass
class CorpusResult:
    item: str
    title: str
    expectation: str
    ok: bool
    detail: str


@dataclass
class CorpusItem:
    id: str
    title: str
    expectation: str  # "proves" | "not-found-at-depth(8)" | "collapses"
    run: Callable[[], CorpusResult]


# --------------------------------------------------------------------------
# loading the shipped scripts

def _manifest() -> dict:
    text = (_DATA_DIR / "manifest.json").read_text(encoding="utf-8")
    return json.loads(text)


def _load(manifest: dict) -> dict:
    """Parse each script the manifest names: item id -> a list of
    (proof name, proof, involution) in manifest order."""
    out = {}
    for entry in manifest["items"]:
        if "file" not in entry:
            continue
        text = (_DATA_DIR / entry["file"]).read_text(encoding="utf-8")
        sc = parse_script(text)
        reg = sc.registry()
        invs = (entry.get("involutions")
                or dict.fromkeys(entry["proofs"], entry["involution"]))
        self_dual = entry.get("self_dual", ())
        out[entry["id"]] = [
            (name, sc.proofs[name], reg.involution(invs[name], self_dual))
            for name in entry["proofs"]]
    return out


def _flat(loaded: dict) -> list:
    return [(item_id, name, proof, inv)
            for item_id, proofs in loaded.items()
            for name, proof, inv in proofs]


def positive_proofs() -> list:
    """Every proof of the shipped corpus scripts with the involution its
    symmetric image is taken under: (item, name, proof, involution)."""
    return _flat(_load(_manifest()))


# --------------------------------------------------------------------------
# item runners: (the item's proofs, every loaded item) -> (ok, detail)

def _failures(proofs: list) -> list:
    cfg, reg = corpus_config(), corpus_registry()
    bad = []
    for name, p, _inv in proofs:
        rep = check_proof(p, cfg, reg)
        if not rep.ok:
            bad.append(f"{name}: {rep.failures[0].reason}")
    return bad


def _verdict(bad: list, detail: str) -> tuple:
    return not bad, "; ".join(bad) or detail


def _proves(own: list, loaded: dict) -> tuple:
    return _verdict(_failures(own), f"{len(own)} proofs")


def _c4(own: list, loaded: dict) -> tuple:
    cfg, reg = corpus_config(), corpus_registry()
    t1, t2 = Outcome("t1", _half), Outcome("t2", _half)
    down, up = Outcome("down", _half), Outcome("up", _half)
    pos = search_proof(seq([And(_A(t1), _A(t2))], [Forall(_x, "D", _A(_x))]),
                       cfg, reg, depth=6)
    neg = search_proof(seq([And(_A(down), _A(up))],
                           [Forall(_x, "Dplus", _A(_x))]),
                       cfg, reg, depth=NEGATIVE_DEPTH)
    return (pos.found and pos.depth <= 6 and not neg.found,
            f"focused proved at depth {pos.depth}; "
            f"unfocused {neg.status} at depth {NEGATIVE_DEPTH}")


def _c8(own: list, loaded: dict) -> tuple:
    reg = corpus_registry(collapse_demo=True)
    status, proofs = reg.consistency_guard("V")
    if status != "collapse" or len(proofs) != 2:
        return False, f"guard said {status}"
    cfg = collapse_config(reg, "V")
    ok = all(check_proof(p, cfg, reg).ok for p in proofs)
    ok = ok and all(len(p.conclusion.left) == 0
                    and len(p.conclusion.right) == 1 for p in proofs)
    # with either license missing no equality is derivable at the bound
    plain = corpus_registry()
    goal = seq([], [Eq(Outcome("v2", _half), Outcome("v1", _half))])
    no_subst = CalculusConfig(True, True, True, True,
                              d_axiom_domains=frozenset({("V", "d")}))
    no_dax = CalculusConfig(True, True, True, True,
                            substitution_domains=frozenset({"V"}),
                            collapse_demo=True)
    n1 = search_proof(goal, no_subst, plain, depth=NEGATIVE_DEPTH)
    n2 = search_proof(goal, no_dax, plain, depth=NEGATIVE_DEPTH)
    ok = ok and not n1.found and not n2.found
    return ok, (f"2 collapse proofs checked; negatives {n1.status}/"
                f"{n2.status} at depth {NEGATIVE_DEPTH}")


def _c11(own: list, loaded: dict) -> tuple:
    bad = _failures(own)
    p = own[0][1]
    if not sequent_equal(p.conclusion, p.premises[0].premises[0].conclusion):
        bad.append("conversion round trip lost the sequent")
    return _verdict(bad, f"{len(own)} proofs")


def _c12(own: list, loaded: dict) -> tuple:
    """The macro form of the parallel quantifier rule has no symmetric mate,
    so no script holds it: build it here, and require that it expands to
    the shipped ``parallel_forall_expanded_Dplus``."""
    cfg, reg = corpus_config(), corpus_registry()
    a1, a2 = IConst(1), IConst(2)
    macro = mk("parallel_forall", {"var": _z, "domain": "Dplus", "mpos": 1,
                                   "qpos": 0},
               mk("join_elim", {"qpos": 0},
                  mk("forall_r", {"pos": 0, "term": _z, "var": _x,
                                  "domain": "Dplus",
                                  "body": Join(IDENTICAL, _A(_x, a1),
                                               _A(_x, a2))},
                     mk("id", {"a": Member(_z, "Dplus")}),
                     mk("id", {"a": Join(IDENTICAL, _A(_z, a1),
                                         _A(_z, a2))}))))
    bad = _failures([("parallel_forall_Dplus", macro, None)] + own)
    shipped = {name: p for name, p, _inv in own}
    if not bad and not proof_equal(expand_derived(macro, cfg, reg),
                                   shipped["parallel_forall_expanded_Dplus"]):
        bad.append("parallel_forall_Dplus: expansion differs from "
                   "parallel_forall_expanded_Dplus")
    return _verdict(bad, f"{len(own) + 1} proofs")


def _c13(own: list, loaded: dict) -> tuple:
    bad = []
    fa_down = Forall(_x, "Ddown", _A(_x))
    if apply_duality(fa_down, "perp") != Forall(_x, "Dup", _A(_x)):
        bad.append("sharp table failed")
    if apply_duality(apply_duality(fa_down, "perp"), "perp") != fa_down:
        bad.append("sharp duality not involutive")
    return _verdict(bad + _failures(own), "table + dual-domain bridge")


def _c15(own: list, loaded: dict) -> tuple:
    cfg, reg = corpus_config(), corpus_registry()
    bad = _failures(own)
    for phase, dom in (("plus", "Dplus"), ("minus", "Dminus")):
        for tag in (IDENTICAL, OPPOSITE):
            b = bell_formula(BellState(phase, tag))
            if apply_duality(b, "perp") != b:
                bad.append(f"{phase}/{tag.kind} not a perp fixed point")
            pair = distribute_forall(dom, _A(_x, IConst(1)), _A(_x, IConst(2)),
                                     tag, cfg, reg)
            if not all(check_proof(p, cfg, reg).ok for p in pair):
                bad.append(f"{phase}/{tag.kind} distribution")
    return _verdict(bad, "4 states")


def _c16(own: list, loaded: dict) -> tuple:
    p, q = Atom("p", None, ()), Atom("q", None, ())
    out = search_proof(seq([Imp(p, q), q], [p]), corpus_config(),
                       corpus_registry(), depth=NEGATIVE_DEPTH)
    return not out.found, out.status


def _c17(own: list, loaded: dict) -> tuple:
    p, q = Atom("p", None, ()), Atom("q", None, ())
    out = search_proof(seq([Imp(p, q), p], [q]),
                       CalculusConfig(right_contexts=True), corpus_registry(),
                       depth=4)
    return out.found, f"{out.status} at depth {out.depth}"


def _c18(own: list, loaded: dict) -> tuple:
    cfg, reg = corpus_config(), corpus_registry()
    bad = []
    proofs = _flat(loaded)
    for item_id, name, proof, inv in proofs:
        sym = symmetrize_proof(proof, inv, cfg, reg)
        rep = check_proof(sym, cfg, reg)
        if not rep.ok:
            bad.append(f"{item_id}/{name}: {rep.failures[0].reason}")
        elif not sequent_equal(sym.conclusion,
                               symmetrize_sequent(proof.conclusion, inv)):
            bad.append(f"{item_id}/{name}: wrong symmetric conclusion")
        elif not proof_equal(symmetrize_proof(sym, inv, cfg, reg),
                             annotate(proof, cfg, reg)):
            bad.append(f"{item_id}/{name}: double transform changed the proof")
    return not bad, "; ".join(bad[:3]) or f"{len(proofs)} proofs"


_RUNNERS = {"C4": _c4, "C8": _c8, "C11": _c11, "C12": _c12, "C13": _c13,
            "C15": _c15, "C16": _c16, "C17": _c17, "C18": _c18}


# --------------------------------------------------------------------------
# the corpus

def _item(entry: dict, loaded: dict) -> CorpusItem:
    item_id, title = entry["id"], entry["title"]
    runner = _RUNNERS.get(item_id, _proves)

    def run() -> CorpusResult:
        try:
            ok, detail = runner(loaded.get(item_id, []), loaded)
        except Exception as e:  # a runner that breaks is a corpus failure
            ok, detail = False, f"{type(e).__name__}: {e}"
        return CorpusResult(item_id, title, entry["expectation"], ok, detail)

    return CorpusItem(item_id, title, entry["expectation"], run)


def build_items() -> list:
    """Every corpus item in manifest order.  The scripts are parsed once
    here, and the items, C18 included, share the parsed proofs."""
    manifest = _manifest()
    loaded = _load(manifest)
    return [_item(entry, loaded) for entry in manifest["items"]]


def run_corpus() -> list:
    """Run every corpus item, returning results in item order."""
    return [item.run() for item in build_items()]


def export_corpus(directory) -> dict:
    """Write each shipped corpus script in printed form, plus the manifest
    of every item's expectation.  Returns the manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = _manifest()
    for entry in manifest["items"]:
        if "file" in entry:
            text = (_DATA_DIR / entry["file"]).read_text(encoding="utf-8")
            (directory / entry["file"]).write_text(
                print_script(parse_script(text)))
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
