"""The regression corpus: all items green, exports checkable."""
import hashlib
import json
import time
from pathlib import Path

from symlog.corpus import (
    build_items, corpus_config, corpus_registry, positive_proofs, run_corpus,
)
from symlog.kernel import symmetrize_proof
from symlog.rules import check_proof
from symlog.scripts import parse_script, proof_to_json

CORPUS_DIR = Path(__file__).resolve().parent.parent / "src/symlog/corpus_data"


def test_all_items_green():
    start = time.time()
    results = run_corpus()
    elapsed = time.time() - start
    assert len(results) == 18
    for r in results:
        assert r.ok, f"{r.item}: {r.detail}"
    assert elapsed < 10.0


def test_expectations_cover_the_three_kinds():
    kinds = {item.expectation for item in build_items()}
    assert "proves" in kinds
    assert "not-found-at-depth(8)" in kinds
    assert "collapses" in kinds


def test_positive_proofs_all_check():
    from genlib import proof_context
    cfg, reg = proof_context()
    seen = set()
    licensed_pairs = {f"{d}:{t}" for d, t in cfg.d_axiom_domains}
    for item, name, proof, _inv in positive_proofs():
        assert (item, name) not in seen, "duplicate proof name"
        seen.add((item, name))
        rep = check_proof(proof, cfg, reg)
        assert rep.ok, f"{item}/{name}"
        # gated rules stay inside the licensed sets
        assert set(rep.stats["subst_domains"]) <= cfg.substitution_domains
        assert set(rep.stats["d_axiom_pairs"]) <= licensed_pairs
    assert len(seen) >= 30


def test_manifest_lists_every_item():
    manifest = json.loads((CORPUS_DIR / "manifest.json").read_text())
    ids = [entry["id"] for entry in manifest["items"]]
    assert ids == [f"C{i}" for i in range(1, 19)]
    for entry in manifest["items"]:
        if "file" in entry:
            assert (CORPUS_DIR / entry["file"]).exists()


def test_shipped_scripts_check():
    for path in sorted(CORPUS_DIR.glob("*.blq")):
        sc = parse_script(path.read_text())
        reg = sc.registry()
        cfg = sc.config()
        for name, proof in sc.proofs.items():
            assert check_proof(proof, cfg, reg).ok, f"{path.name}:{name}"


def test_proof_json_round_trip():
    from symlog.scripts import proof_from_json, proof_to_json
    from symlog.rules import proof_equal
    from genlib import proof_context
    cfg, reg = proof_context()
    for _item, _name, proof, _inv in positive_proofs()[:10]:
        blob = json.dumps(proof_to_json(proof), sort_keys=True)
        back = proof_from_json(json.loads(blob))
        assert proof_equal(back, proof)
        assert check_proof(back, cfg, reg).ok


def test_check_report_json_shape():
    from genlib import proof_context
    cfg, reg = proof_context()
    _item, _name, proof, _inv = positive_proofs()[0]
    rep = check_proof(proof, cfg, reg).to_json()
    assert rep["schema"] == 1 and rep["ok"] is True
    assert set(rep["stats"]) == {"nodes", "rules", "subst_domains",
                                 "d_axiom_pairs"}


# sha256 over positive_proofs(), computed when every corpus proof was still
# built in Python: each proof, its symmetric image, and the name and tables
# of the involution it is symmetrized under.
_POSITIVE_DIGEST = ("e63d091aa08fb68d4b92d938a95198978d2cf60a"
                    "3a2c7081dbc75f4a0efff687")


def test_positive_proofs_digest_unchanged():
    cfg, reg = corpus_config(), corpus_registry()
    h = hashlib.sha256()
    for item, name, proof, inv in positive_proofs():
        sym = symmetrize_proof(proof, inv, cfg, reg)
        entry = [item, name, proof_to_json(proof), proof_to_json(sym),
                 inv.name, sorted(inv.label_swap.items()),
                 sorted(inv.domain_table.items()),
                 sorted(inv.self_dual_domains)]
        h.update(json.dumps(entry, sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == _POSITIVE_DIGEST


def test_shipped_scripts_declare_the_corpus_context():
    """Each script repeats the corpus's domains, tables and licences in its
    prelude; they must stay equal to corpus_config()/corpus_registry()."""
    cfg, reg = corpus_config(), corpus_registry()
    want = {n: reg.get(n) for n in reg.names()}
    for path in sorted(CORPUS_DIR.glob("*.blq")):
        sc = parse_script(path.read_text())
        assert sc.config() == cfg, path.name
        got = sc.registry()
        assert {n: got.get(n) for n in got.names()} == want, path.name
        assert got.involutions == reg.involutions, path.name
