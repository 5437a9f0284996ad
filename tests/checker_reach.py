"""Count the function lines the proof checker can reach.

The checker's verdicts depend on more than ``rules.py``: it calls into
``formulas``, ``dualities`` and ``domains`` too.  This script parses those
four modules with ``ast`` and walks from ``check_proof``, ``validate_rule``,
``annotate`` and every validator registered with ``@_rule``.  A reached
function reaches every function or method of the four modules that has
the name of a name or attribute it reads, and a reached class reaches its
dunder methods and its bases'.  The walk matches by name only, so it
over-approximates.  Module-level code, which runs at import, is not
counted.

Run it from anywhere with ``python tests/checker_reach.py``.  It prints
each module's reachable and total function lines, then the reachable
total on the last line.  It uses the standard library only, and pytest
does not collect it.
"""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "symlog"
MODULES = ("rules", "formulas", "dualities", "domains")
ROOTS = ("check_proof", "validate_rule", "annotate")


def _definitions():
    """(functions, classes): each name's function and method definitions
    as (module, node), and each class name's (dunder methods, base names)."""
    functions, classes = {}, {}
    for module in MODULES:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        for node in tree.body:
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs = [d for d in node.body if isinstance(d, ast.FunctionDef)]
                classes[node.name] = (
                    [(module, d) for d in defs
                     if d.name.startswith("__") and d.name.endswith("__")],
                    [b.id for b in node.bases if isinstance(b, ast.Name)])
            for d in defs:
                if isinstance(d, ast.FunctionDef):
                    functions.setdefault(d.name, []).append((module, d))
    return functions, classes


def _validators(functions) -> list:
    """The definitions decorated ``@_rule(...)``: the registered validators."""
    return [(m, d) for defs in functions.values() for m, d in defs
            if any(isinstance(dec, ast.Call)
                   and getattr(dec.func, "id", None) == "_rule"
                   for dec in d.decorator_list)]


def reachable() -> tuple:
    """({module: (reachable function lines, all function lines)}, the
    names of the reached functions)."""
    functions, classes = _definitions()
    todo = [md for name in ROOTS for md in functions[name]]
    todo += _validators(functions)
    seen, named = set(), set()
    while todo:
        module, node = todo.pop()
        if (module, node.lineno) in seen:
            continue
        seen.add((module, node.lineno))
        for sub in ast.walk(node):
            name = (sub.id if isinstance(sub, ast.Name) else
                    sub.attr if isinstance(sub, ast.Attribute) else None)
            if name is None or name in named:
                continue
            named.add(name)
            todo += functions.get(name, [])
            bases = [name]
            while bases:  # a class reached by name, and its bases
                dunders, more = classes.get(bases.pop(), ((), ()))
                todo += dunders
                bases += more
    lines = {m: [0, 0] for m in MODULES}
    reached = set()
    for defs in functions.values():
        for module, d in defs:
            size = d.end_lineno - d.lineno + 1
            lines[module][1] += size
            if (module, d.lineno) in seen:
                lines[module][0] += size
                reached.add(d.name)
    return lines, reached


def main() -> int:
    lines, _ = reachable()
    for module, (got, total) in lines.items():
        print(f"{module:10} {got:5} of {total:5} function lines reachable")
    print(sum(got for got, _ in lines.values()), "checker-reachable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
