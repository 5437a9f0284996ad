"""Symmetry of proofs, not just of formulas.

Every rule of the calculus has a mate: swapping rules, reversing premise
order, and mirroring slot positions turns a proof of ``G |- D`` into a
proof of the symmetric sequent.  Detachment demonstrates the asymmetry of
consequence itself: its symmetric image is a perfectly good derivation,
while the *reversed* sequent is underivable in every extension we search.
"""
from symlog import (
    Atom, CalculusConfig, IDENTITY_INV, Imp, check_proof, mk, seq,
    search_proof, standard_registry, symmetrize_proof,
)
from symlog.rules import annotate
from symlog.scripts import print_proof, print_sequent

reg = standard_registry()
cfg = CalculusConfig(left_contexts=True, right_contexts=True,
                     weakening=True, cut=True)

p, q = Atom("p", None, ()), Atom("q", None, ())

print("== a two-line derivation of detachment ==")
proof = annotate(mk("imp_l", {"pos": 0},
                    mk("id", {"a": p}), mk("id", {"a": q})), cfg, reg)
print(print_proof(proof))
print("checker says:", check_proof(proof, cfg, reg).ok)

print("\n== its symmetric image ==")
sym = symmetrize_proof(proof, IDENTITY_INV, cfg, reg)
print(print_proof(sym))
print("checker says:", check_proof(sym, cfg, reg).ok)

print("\n== transforming twice returns the original ==")
back = symmetrize_proof(sym, IDENTITY_INV, cfg, reg)
print(print_sequent(back.conclusion))

print("\n== the reversed sequent is nowhere derivable ==")
reversal = seq([Imp(p, q), q], [p])
out = search_proof(reversal, cfg, reg, depth=8)
print(print_sequent(reversal), "->", out.status, f"(depth {out.depth})")
