"""Correlated pairs: the indexed comma, conversion, and entangled states.

Two right-hand formulas that agree up to their index can be fused into a
correlated pair, which second-order conversion (the catalogue rules
``conv_pair_elim`` and ``conv_pair_intro``) trades for an index relation
on the left.  Over a virtual singleton, the pair internalizes as
a connective that distributes through the universal quantifier in both
directions, giving the four two-particle states as generalized phase
literals: fixed points of both dualities.
"""
from symlog import (
    Atom, CalculusConfig, IDENTICAL, OPPOSITE, Var, check_proof,
    standard_registry,
)
from symlog.correlation import distribute_forall
from symlog.dualities import apply_duality
from symlog.formulas import CorrPair, IConst, IndexRel, Member, Sequent, Single
from symlog.qubits import BellState, bell_formula
from symlog.rules import RuleContext, validate_rule
from symlog.scripts import print_formula, print_sequent

reg = standard_registry()
cfg = CalculusConfig(True, True, True, True,
                     d_axiom_domains=frozenset({("Dplus", "top"),
                                                ("Dminus", "top")}))

x, z = Var("x"), Var("z")
a1, a2 = Atom("A", IConst(1), (z,)), Atom("A", IConst(2), (z,))

ctx = RuleContext(cfg, reg)
print("== second-order conversion: conv_pair_elim, then conv_pair_intro ==")
s = Sequent((Single(Member(z, "Dplus")),), (CorrPair(a1, IDENTICAL, a2),))
print("  ", print_sequent(s))
rel = IndexRel(IConst(1), IDENTICAL, IConst(2))
t = validate_rule("conv_pair_elim", {"qpos": 0}, [s], None, ctx)
print("  ", print_sequent(t), "  [conv_pair_elim]")
back = validate_rule("conv_pair_intro",
                     {"qpos": 0, "relpos": t.left.index(Single(rel))},
                     [t], None, ctx)
print("   conv_pair_intro restores the pair:", back == s)

print("\n== the distribution equality, both directions ==")
b1, b2 = Atom("A", IConst(1), (x,)), Atom("A", IConst(2), (x,))
fwd, conv = distribute_forall("Dplus", b1, b2, IDENTICAL, cfg, reg)
for label, proof in (("forward ", fwd), ("converse", conv)):
    ok = check_proof(proof, cfg, reg).ok
    print(f"  {label}: {print_sequent(proof.conclusion)}  [{'ok' if ok else 'BROKEN'}]")

print("\n== the four correlated two-particle states ==")
for phase in ("plus", "minus"):
    for tag in (IDENTICAL, OPPOSITE):
        f = bell_formula(BellState(phase, tag))
        fixed = apply_duality(f, "perp") == f and apply_duality(f, "top") == f
        print(f"  {print_formula(f):55}  duality-fixed: {fixed}")
