"""Check that each pinned side condition of ``rules.py`` is still pinned.

A check is pinned when a test fails without it.  For each ``_need`` call
listed in ``PINNED``, by its enclosing function and a piece of its
message, this script replaces the call's condition with ``True`` in a
temporary copy of ``src/`` and ``tests/``, runs ``tests/test_rules.py``
there, and reports the mutant as a survivor if that run passes.  The
unmutated copy must pass first.  Exits 1 if any mutant survives or a
listed call is not found exactly once.

Run it from anywhere with ``python tests/pinned_mutants.py``; it uses the
standard library and pytest only.  Pytest does not collect it.
"""
import ast
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RULES = Path("src/symlog/rules.py")

# (enclosing function, a piece of the _need call's message)
PINNED = [
    ("_r_focus", "is not focused"),
    ("_r_focus", "has no entries"),
    ("_r_subst", "does not denote an element of"),
    ("_r_parallel_forall", "needs a virtual singleton"),
    ("_r_dual_exclusion", "is issued for variables only"),
    ("_membership", "needs an extensional singleton"),
    ("_r_subst", "substitution replaces a variable"),
    ("_pair_components", "must agree up to their index"),
    ("_r_exists_r", "must refute the dual membership"),
    ("_vsym_eligible", "no direction-insensitive quantifiers"),
    ("_vsym_eligible", "need its d-axioms licensed"),
    ("_r_parallel_forall", "occurs free outside the principal pair"),
    ("rule_arity", "name"),
    ("_r_additive_two", "must share their contexts"),
    ("_r_additive_two", "must share the {far} context"),
    ("_r_replacement", "changes no slot counts"),
    ("_r_replacement", "is not a replacement instance"),
]


def condition(source: str, function: str, message: str) -> ast.expr:
    """The condition of the one ``_need`` call in ``function`` whose
    message holds ``message``."""
    tree = ast.parse(source)
    found = [call.args[0]
             for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and fn.name == function
             for call in ast.walk(fn)
             if isinstance(call, ast.Call)
             and getattr(call.func, "id", None) == "_need"
             and message in ast.get_source_segment(source, call.args[2])]
    if len(found) != 1:
        raise LookupError(f"{len(found)} _need calls in {function} "
                          f"say {message!r}")
    return found[0]


def mutant(source: str, function: str, message: str) -> str:
    """``source`` with that condition replaced by ``True``."""
    cond = condition(source, function, message)
    data = source.encode()  # ast's column offsets count UTF-8 bytes
    lines = data.splitlines(keepends=True)
    start = sum(map(len, lines[:cond.lineno - 1])) + cond.col_offset
    end = sum(map(len, lines[:cond.end_lineno - 1])) + cond.end_col_offset
    return (data[:start] + b"True" + data[end:]).decode()


def passes(copy: Path) -> bool:
    """Whether ``tests/test_rules.py`` passes in ``copy``."""
    run = subprocess.run(
        # -B: a mutant of the same size written within a second of the
        # last would otherwise run from the last one's cached bytecode
        [sys.executable, "-B", "-m", "pytest", "-q", "-x",
         "-p", "no:cacheprovider", "tests/test_rules.py"],
        cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    source = (ROOT / RULES).read_text()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if not passes(copy):
            print("tests/test_rules.py fails on the unmutated copy")
            return 1
        survivors = 0
        for function, message in PINNED:
            (copy / RULES).write_text(mutant(source, function, message))
            killed = not passes(copy)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {function}: "
                  f"{message}")
    print(f"{len(PINNED) - survivors} of {len(PINNED)} pinned checks pinned")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
