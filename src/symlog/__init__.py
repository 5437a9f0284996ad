"""symlog: a sequent calculus over random first-order domains.

The calculus extends a visibility-disciplined propositional core with
bounded quantifiers over finite outcome domains, equality, dual
memberships, virtual singletons with their d-axiom schemas, and a
correlation connective over indexed formulas.  A small numeric layer maps
single-qubit states and two-qubit correlated pairs onto the same domains
and cross-checks the logical dualities against the bit-flip and
phase-flip gate actions.
"""
from .formulas import (
    And, Atom, Const, CorrPair, CorrelationTag, DualMember, Eq, Excl, Exists,
    Forall, Formula, IConst, IDENTICAL, IVar, Imp, IndexRel, Join, Member,
    Neq, OPPOSITE, Or, Outcome, Par, Sequent, Single, Times, Var, formula_equal,
    free_vars, seq, sequent_equal, substitute,
)
from .domains import (
    DAxiomSchema, DomainRecord, EmptyDomain, FocusedNonSingleton,
    InvariantViolation, Registry, RegistryError, standard_registry,
)
from .dualities import (
    IDENTITY_INV, LiteralInvolution, PERP_INV, TOP_INV, UnclassifiedLiteral,
    apply_duality, symmetrize_formula, symmetrize_sequent,
)
from .rules import (
    CalculusConfig, CheckReport, ProofNode, RuleError, check_proof, mk,
    proof_equal,
)
from .kernel import NotSymmetricConfig, expand_derived, symmetrize_proof
from .search import SearchOutcome, search_proof
from .correlation import distribute_forall
from .qubits import (
    BellState, GateTag, NonDyadicProbability, Qubit, apply_gate, bell_formula,
    collapse, duality_correspondence, inner_product, measurement_domain,
    state_formula,
)

__version__ = "0.1.0"
