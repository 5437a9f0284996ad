"""Batch entry point.

Commands::

    symlog check FILE.blq            validate every proof in a script
    symlog sym FILE --name P         symmetrize a named proof
    symlog dual FILE --name S --duality perp|top
    symlog search FILE --name S --depth N
    symlog corpus                    run the full regression corpus
    symlog qstate FILE.json          the logical image of a qubit state
    symlog bell --phase P --correlation C
    symlog guard DOMAIN [--collapse-demo]

Exit codes: 0 on a successful run, 1 on a failed check or an unproved
search goal, 2 on usage or parse errors, 3 on an internal error (any
other exception, a ValueError raised while checking or searching too).
Diagnostics go to stderr, reports to stdout.  Context-liberalization flags
are never assumed: they come from the script's ``flags`` line or, for
check, sym and search, the command line, or stay off.  Each command
loads only the modules it runs.  ``main(argv)`` may be called repeatedly
in one process: it builds its parser once, on the first call.
"""
from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import sys

from . import _loader
from .domains import RegistryError, standard_registry
from .dualities import UnclassifiedLiteral, UnknownDuality, apply_duality
from .formulas import IDENTICAL, OPPOSITE, map_sequent
from .rules import RuleError, check_proof
from .scripts import (
    _FLAG_NAMES, ParseError, Script, parse_script, print_formula, print_proof,
    print_sequent, proof_to_json,
)

# Each command that runs a module check does not: that module and the names
# the command takes from it, loaded on first use.  main catches the usage
# errors of the loaded ones: a class never loaded cannot have been raised.
_LAZY = {"sym": ("kernel", "symmetrize_proof"),
         "search": ("search", "DEFAULT_MAX_DEPTH search_proof"),
         "corpus": ("corpus", "run_corpus"),
         "qstate": ("qubits", "Qubit collapse measurement_domain state_formula"),
         "bell": ("qubits", "BellState bell_formula")}
_LAZY_ERRORS = {"symlog.kernel": "KernelError", "symlog.search": "DepthLimitError",
                "symlog.qubits": "NonDyadicProbability"}
__getattr__ = _loader(globals(), _LAZY.values())


class UsageError(Exception):
    """A command line, environment or input file the command cannot use."""


def _err(msg: str) -> None:
    print(f"symlog: {msg}", file=sys.stderr)


def _load_script(path: str) -> Script:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_script(fh.read())


def _load(args) -> tuple:
    """The script of ``check``, ``sym`` or ``search`` widened by the command
    line, its registry and its configuration, with the licences checked
    against the registry."""
    sc = _load_script(args.file)
    sc.flags.update((flag, True) for flag in _FLAG_NAMES if getattr(args, flag))
    sc.subst_licenses += args.subst or []
    for spec in args.d_axiom or []:
        dom, _, dual = spec.partition(":")
        if not dual:
            raise UsageError(f"--d-axiom wants DOMAIN:DUALITY, got {spec!r}")
        sc.daxiom_licenses.append((dom, dual))
    reg, cfg = sc.registry(), sc.config()
    for dom in sc.subst_licenses + [d for d, _ in sc.daxiom_licenses]:
        if dom not in reg:
            raise UsageError(f"a licence names the undeclared domain {dom!r}")
    try:
        cfg.check_licenses(reg)
    except ValueError as e:  # the only error check_licenses raises
        raise UsageError(str(e)) from None
    return sc, reg, cfg


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _add_config_flags(sub) -> None:
    for flag in _FLAG_NAMES:
        sub.add_argument("--" + flag.replace("_", "-"), action="store_true",
                         dest=flag)
    sub.add_argument("--subst", action="append", metavar="DOMAIN")
    sub.add_argument("--d-axiom", action="append", metavar="DOMAIN:DUALITY",
                     dest="d_axiom")


@functools.cache  # static data; parse_args builds a fresh namespace per call
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="symlog", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate every proof in a script")
    p.add_argument("file")
    _add_config_flags(p)

    p = sub.add_parser("sym", help="symmetrize a named proof")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--involution", default="identity",
                   help="a duality name; the script's dualtable of that "
                        "name gives its domain table")
    _add_config_flags(p)

    p = sub.add_parser("dual", help="apply a duality to a named sequent")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--duality", required=True, choices=("perp", "top"))

    p = sub.add_parser("search", help="bounded proof search for a named sequent")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--report-only", action="store_true",
                   help="exit 0 even when nothing is found")
    _add_config_flags(p)

    p = sub.add_parser("corpus", help="run the regression corpus")

    p = sub.add_parser("qstate", help="the logical image of a qubit state")
    p.add_argument("file", help='JSON: {"alpha": .., "beta": .., "phi": ..}')

    p = sub.add_parser("bell", help="print a correlated two-particle state")
    p.add_argument("--phase", required=True, choices=("plus", "minus"))
    p.add_argument("--correlation", required=True,
                   choices=("identical", "opposite"))

    p = sub.add_parser("guard", help="check a domain's license consistency")
    p.add_argument("domain")
    p.add_argument("--collapse-demo", action="store_true",
                   dest="collapse_demo")
    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")
    return ap


def _cmd_check(args) -> int:
    sc, reg, cfg = _load(args)
    results = {}
    ok = True
    for name, proof in sc.proofs.items():
        rep = check_proof(proof, cfg, reg)
        results[name] = rep.to_json()
        ok &= rep.ok
    lines = [f"{name}: {'ok' if r['ok'] else 'FAIL'}"
             for name, r in results.items()]
    _emit(args, {"schema": 1, "ok": ok, "proofs": results}, "\n".join(lines))
    return 0 if ok else 1


def _cmd_sym(args) -> int:
    sc, reg, cfg = _load(args)
    if args.name not in sc.proofs:
        _err(f"no proof named {args.name!r}")
        return 2
    sym = symmetrize_proof(sc.proofs[args.name],
                           reg.involution(args.involution), cfg, reg)
    rep = check_proof(sym, cfg, reg)
    _emit(args, {"schema": 1, "ok": rep.ok, "proof": proof_to_json(sym)},
          print_proof(sym))
    return 0 if rep.ok else 1


def _cmd_dual(args) -> int:
    sc = _load_script(args.file)
    target = sc.sequents.get(args.name)
    if target is None:
        _err(f"no sequent named {args.name!r}")
        return 2

    out = map_sequent(target, lambda f: apply_duality(f, args.duality))
    _emit(args, {"schema": 1, "sequent": print_sequent(out)},
          print_sequent(out))
    return 0


def _depth_default() -> int:
    env = os.environ.get("SYMLOG_DEPTH")
    if env is None:
        return DEFAULT_MAX_DEPTH
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"SYMLOG_DEPTH wants a whole number, got {env!r}") \
            from None


def _cmd_search(args) -> int:
    sc, reg, cfg = _load(args)
    goal = sc.sequents.get(args.name)
    if goal is None:
        _err(f"no sequent named {args.name!r}")
        return 2
    depth = args.depth if args.depth is not None else _depth_default()
    max_depth = args.max_depth if args.max_depth is not None \
        else max(depth, DEFAULT_MAX_DEPTH)
    out = search_proof(goal, cfg, reg, depth=depth, max_depth=max_depth)
    text = f"{out.status} (depth {out.depth})"
    if out.found:
        text += "\n" + print_proof(out.proof)
    _emit(args, out.to_json(), text)
    if out.found:
        return 0
    return 0 if args.report_only else 1


def _cmd_corpus(args) -> int:
    results = run_corpus()
    ok = all(r.ok for r in results)
    lines = [f"{r.item:4} {'pass' if r.ok else 'FAIL'} [{r.expectation}] "
             f"{r.title}: {r.detail}" for r in results]
    payload = {"schema": 1, "ok": ok,
               "items": [{"id": r.item, "title": r.title,
                          "expectation": r.expectation, "ok": r.ok,
                          "detail": r.detail} for r in results]}
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def _cmd_qstate(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        amps = [complex(data["alpha"]), complex(data["beta"])]
        amps[1] *= cmath.exp(1j * float(data.get("phi", 0.0)))
        q = Qubit.from_amplitudes(amps)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise UsageError(f"{args.file}: not a qubit state: "
                         f"{type(e).__name__}: {e}") from None
    reg = standard_registry()
    rec = measurement_domain(q)
    state = state_formula(q, reg)
    after = collapse(q)
    payload = {"schema": 1, "domain": rec.name,
               "entries": [f"{e.label}@{e.prob}" for e in rec.entries],
               "focused": rec.focused,
               "state": print_formula(state),
               "collapse": print_formula(after)}
    text = (f"domain {rec.name} = {{ {', '.join(payload['entries'])} }}"
            f"{' focused' if rec.focused else ''}\n"
            f"state:    {payload['state']}\n"
            f"collapse: {payload['collapse']}")
    _emit(args, payload, text)
    return 0


def _cmd_bell(args) -> int:
    tag = IDENTICAL if args.correlation == "identical" else OPPOSITE
    f = bell_formula(BellState(args.phase, tag))
    text = f"({print_formula(f)})"
    _emit(args, {"schema": 1, "formula": text}, text)
    return 0


def _cmd_guard(args) -> int:
    reg = standard_registry(collapse_demo=args.collapse_demo)
    status, proofs = reg.consistency_guard(args.domain)
    payload = {"schema": 1, "status": status,
               "proofs": [print_sequent(p.conclusion) for p in (proofs or [])]}
    text = status if not proofs else \
        status + "\n" + "\n".join(payload["proofs"])
    _emit(args, payload, text)
    return 0


_COMMANDS = {
    "check": _cmd_check, "sym": _cmd_sym, "dual": _cmd_dual,
    "search": _cmd_search, "corpus": _cmd_corpus, "qstate": _cmd_qstate,
    "bell": _cmd_bell, "guard": _cmd_guard,
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    for name in _LAZY.get(args.command, ("", ""))[1].split():
        getattr(sys.modules[__name__], name)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, RegistryError, RuleError, UsageError,
            UnclassifiedLiteral, UnknownDuality, OSError, UnicodeDecodeError,
            json.JSONDecodeError, *(getattr(sys.modules[m], n) for m, n
                                    in _LAZY_ERRORS.items() if m in sys.modules)) as e:
        _err(str(e))
        return 2
    except Exception as e:
        _err(f"internal error: {type(e).__name__}: {e}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
