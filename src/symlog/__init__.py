"""symlog: a sequent calculus over random first-order domains.

The calculus extends a visibility-disciplined propositional core with
bounded quantifiers over finite outcome domains, equality, dual
memberships, virtual singletons with their d-axiom schemas, and a
correlation connective over indexed formulas.  A small numeric layer maps
single-qubit states and two-qubit correlated pairs onto the same domains
and cross-checks the logical dualities against the bit-flip and
phase-flip gate actions.  Importing the package loads none of its modules:
``from symlog import X`` loads X's module on first use (PEP 562).
"""
from importlib import import_module

_EXPORTS = {
    "formulas": "And Atom Const CorrPair CorrelationTag DualMember Eq Excl "
                "Exists Forall Formula IConst IDENTICAL IVar Imp IndexRel "
                "Join Member Neq OPPOSITE Or Outcome Par Sequent Single Times "
                "Var formula_equal free_vars seq sequent_equal substitute",
    "domains": "DAxiomSchema DomainRecord EmptyDomain FocusedNonSingleton "
               "InvariantViolation Registry RegistryError standard_registry",
    "dualities": "IDENTITY_INV LiteralInvolution PERP_INV TOP_INV "
                 "UnclassifiedLiteral apply_duality symmetrize_formula "
                 "symmetrize_sequent",
    "rules": "CalculusConfig CheckReport ProofNode RuleError check_proof mk "
             "proof_equal",
    "kernel": "NotSymmetricConfig expand_derived symmetrize_proof",
    "search": "SearchOutcome search_proof",
    "correlation": "distribute_forall",
    "qubits": "BellState GateTag NonDyadicProbability Qubit apply_gate "
              "bell_formula collapse duality_correspondence inner_product "
              "measurement_domain state_formula",
}
__all__ = [name for names in _EXPORTS.values() for name in names.split()]
__version__ = "0.1.0"


def _loader(namespace: dict, exports):
    """A module ``__getattr__`` that loads each name of ``exports``, pairs
    of a module and its names, on first use and keeps it in ``namespace``."""
    home = {name: m for m, names in exports for name in names.split()}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}")
        value = namespace[name] = getattr(
            import_module(f"{__name__}.{home[name]}"), name)
        return value
    return __getattr__


__getattr__ = _loader(globals(), _EXPORTS.items())


def __dir__() -> list:
    return sorted({*globals(), *__all__})
