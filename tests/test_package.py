"""The package's exports: each name loads its module on first use."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symlog

SRC = Path(__file__).resolve().parent.parent / "src"

# Every name the package exports, by the module it comes from.
HOMES = {
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


def test_each_export_is_its_home_modules_object():
    assert sorted(symlog.__all__) == sorted(
        name for names in HOMES.values() for name in names.split())
    for module, names in HOMES.items():
        home = importlib.import_module(f"symlog.{module}")
        for name in names.split():
            assert getattr(symlog, name) is getattr(home, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from symlog import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(symlog.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        symlog.nope


def test_dir_lists_the_exports_and_the_version_stays():
    assert set(symlog.__all__) <= set(dir(symlog))
    assert symlog.__version__ == "0.1.0"


def test_import_loads_a_module_on_first_use():
    """In a fresh interpreter: importing the package loads none of its
    modules, an export loads its own, and a submodule still imports."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = ("import sys\n"
            "def loaded(): return sorted(m for m in sys.modules "
            "if m.startswith('symlog.'))\n"
            "import symlog\n"
            "print(*loaded())\n"
            "from symlog import Qubit\n"
            "print(*loaded())\n"
            "from symlog import cli\n"
            "print(cli.__name__, cli.main.__module__)\n")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "",
        "symlog.domains symlog.dualities symlog.formulas symlog.qubits",
        "symlog.cli symlog.cli",
    ]
