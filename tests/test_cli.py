"""End-to-end runs of every command."""
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from symlog.cli import main

CORPUS_DIR = Path(__file__).resolve().parent.parent / "src/symlog/corpus_data"

EXT = """\
flags right_contexts
sequent detach : p -> q, p |- q
sequent imp_reversal : p -> q, q |- p
"""


@pytest.fixture
def ext_script(tmp_path):
    path = tmp_path / "ext.blq"
    path.write_text(EXT)
    return str(path)


def test_check_command(capsys):
    rc = main(["check", str(CORPUS_DIR / "c1.blq")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok" in out


def test_python_m_symlog_runs_the_command_line():
    src = str(CORPUS_DIR.parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "symlog", "check", str(CORPUS_DIR / "c12.blq")],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "ok" in run.stdout


# The modules check does not run.
_NOT_FOR_CHECK = ("symlog.corpus", "symlog.correlation", "symlog.kernel",
                  "symlog.qubits", "symlog.search")


@pytest.mark.parametrize("argv, absent", [
    ([], _NOT_FOR_CHECK),
    (["check", str(CORPUS_DIR / "c1.blq")], _NOT_FOR_CHECK),
    (["search", "{ext}", "--name", "detach"],
     ("symlog.corpus", "symlog.correlation", "symlog.kernel",
      "symlog.qubits")),
    (["sym", str(CORPUS_DIR / "c1.blq"), "--name", "exists_eq_entails_member",
      "--involution", "d"],
     ("symlog.corpus", "symlog.correlation", "symlog.qubits",
      "symlog.search")),
], ids=["import", "check", "search", "sym"])
def test_commands_load_only_the_modules_they_run(ext_script, argv, absent):
    """In a fresh interpreter, as a shell starts one: importing the command
    line and running a command loads none of the modules it does not run."""
    src = str(CORPUS_DIR.parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys\nimport symlog.cli\n"
            "rc = symlog.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(rc, *sorted(sys.modules))\n")
    run = subprocess.run(
        [sys.executable, "-c", code, *(a.format(ext=ext_script) for a in argv)],
        env=env, capture_output=True, text=True, timeout=120)
    rc, *loaded = run.stdout.splitlines()[-1].split()
    assert rc == "0", run.stderr
    assert "symlog.cli" in loaded
    assert sorted(set(absent) & set(loaded)) == []


def test_check_reports_failure(tmp_path, capsys):
    bad = tmp_path / "bad.blq"
    bad.write_text("proof broken : p |- q\n  id a={p}\n")
    rc = main(["check", str(bad)])
    assert rc == 1


def test_search_found(ext_script, capsys):
    rc = main(["search", ext_script, "--name", "detach", "--depth", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("proved")


def test_search_not_found_exits_one(ext_script, capsys):
    rc = main(["search", ext_script, "--name", "imp_reversal", "--depth", "8",
               "--left-contexts", "--weakening", "--cut"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "not-found" in out


def test_search_report_only(ext_script):
    rc = main(["search", ext_script, "--name", "imp_reversal", "--depth", "4",
               "--report-only"])
    assert rc == 0


def test_search_env_depth(ext_script, monkeypatch):
    monkeypatch.setenv("SYMLOG_DEPTH", "3")
    rc = main(["search", ext_script, "--name", "detach"])
    assert rc == 0


def test_sym_command(capsys):
    rc = main(["sym", str(CORPUS_DIR / "c1.blq"), "--name",
               "exists_eq_entails_member", "--involution", "d"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "forall" in out


SCRIPT_TABLE = """\
domain A = { a@1 } focused
domain B = { b@1 } focused
dualtable e { A <-> B }
proof m : |- a@1 in A
  member domain=A term=a@1
"""

NO_TOP_TABLE = """\
domain Dplus = { down@1/2, up@1/2 } virtual duality top
domain Dminus = { down@1/2, up@1/2 } virtual duality top
proof m : |- down@1/2 in Dplus
  member domain=Dplus term=down@1/2
"""


@pytest.mark.parametrize("text, involution, image", [
    (SCRIPT_TABLE, "e", "a@1 in B |-"),
    (NO_TOP_TABLE, "top", "(down@1/2 in Dplus)^top |-"),
], ids=["declared-table", "undeclared-top"])
def test_sym_reads_the_scripts_duality_tables(tmp_path, capsys, text,
                                              involution, image):
    """``sym --involution NAME`` renders memberships through the script's
    own ``dualtable NAME``, as the checker does, and through no other."""
    path = tmp_path / "table.blq"
    path.write_text(text)
    rc = main(["sym", str(path), "--name", "m", "--involution", involution])
    out = capsys.readouterr().out
    assert out.strip().endswith(" : " + image)
    assert rc == 0


def test_check_rejects_merged_non_involution(tmp_path, capsys):
    path = tmp_path / "merged.blq"
    path.write_text("domain A = { a@1 }\ndomain B = { b@1 }\n"
                    "domain C = { c@1 }\n"
                    "dualtable e { A <-> B }\ndualtable e { A <-> C }\n")
    assert main(["check", str(path)]) == 2
    assert "not an involution" in capsys.readouterr().err


def test_dual_command(tmp_path, capsys):
    script = tmp_path / "s.blq"
    script.write_text(
        "domain Dplus = { down@1/2, up@1/2 } virtual duality top\n"
        "domain Dminus = { down@1/2, up@1/2 } virtual duality top\n"
        "sequent s : |- forall x in Dplus . A(x)\n")
    rc = main(["dual", str(script), "--name", "s", "--duality", "top"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Dminus" in out


def test_corpus_command(capsys):
    rc = main(["corpus", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["ok"] and len(payload["items"]) == 18


def test_qstate_command(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"alpha": 1 / math.sqrt(2),
                                "beta": 1 / math.sqrt(2),
                                "phi": math.pi}))
    rc = main(["qstate", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["domain"] == "Dminus"
    assert payload["collapse"] == "A(down@1/2) & A(up@1/2)"


def test_bell_command(capsys):
    rc = main(["bell", "--phase", "minus", "--correlation", "opposite"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert out == "(forall x in Dminus . A_1(x) join_o A_2(x))"


def test_guard_command(capsys):
    rc = main(["guard", "V", "--collapse-demo"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("collapse")
    rc = main(["guard", "V"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("consistent")


def test_usage_error_exit_code():
    assert main(["dual", "nowhere.blq", "--name", "x"]) == 2
    assert main(["check", "does-not-exist.blq"]) == 2


def test_json_reports_deterministic(ext_script, capsys):
    main(["search", ext_script, "--name", "detach", "--format", "json"])
    first = capsys.readouterr().out
    main(["search", ext_script, "--name", "detach", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["schema"] == 1


_GUARD = {  # (domain, collapse-demo mode): the guard's full report
    ("Ddown", False): "consistent\n|- down@1 = down@1\n",
    ("Dup", False): "consistent\n|- up@1 = up@1\n",
    ("Dplus", False): "consistent\n",
    ("Dminus", False): "consistent\n",
    ("D", False): "consistent\n",
    ("V", False): "consistent\n",
    ("Ddown", True): "consistent\n|- down@1 = down@1\n",
    ("Dup", True): "consistent\n|- up@1 = up@1\n",
    ("Dplus", True): "consistent\n",
    ("Dminus", True): "consistent\n",
    ("D", True): "consistent\n",
    ("V", True): "collapse\n|- v2@1/2 = v1@1/2\n|- v1@1/2 = v2@1/2\n",
}


@pytest.mark.parametrize(
    "domain, demo",
    [pytest.param(dom, demo, id=dom + ("-collapse-demo" if demo else ""))
     for dom, demo in _GUARD])
def test_guard_standard_domains(domain, demo, capsys):
    rc = main(["guard", domain] + ["--collapse-demo"] * demo)
    assert rc == 0
    assert capsys.readouterr().out == _GUARD[domain, demo]


def test_check_reports_missing_parameter(tmp_path, capsys):
    bad = tmp_path / "bare.blq"
    bad.write_text("proof p : p |- p\n  id\n")
    rc = main(["check", str(bad)])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "p: FAIL"


SELF_RELATION = """\
domain Dplus = { down@1/2, up@1/2 } virtual duality top
flags left_contexts right_contexts weakening cut
proof p : A_1(z), z in Dplus |- q
cut lpos=0 rpos=0
  join_intro qpos=0
    conv_pair_intro qpos=0 relpos=2
      weak_l formula={1 ~i 1} pos=2
        weak_l formula={z in Dplus} pos=1
          id a={A_1(z)}
  id a={q}
"""


def test_check_rejects_self_relation_pair(tmp_path, capsys):
    bad = tmp_path / "self.blq"
    bad.write_text(SELF_RELATION)
    rc = main(["check", str(bad)])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "p: FAIL"


SUBST_ON_VIRTUAL = """\
domain V = { v1@1/2, v2@1/2 } virtual duality d
license subst V
proof s : A(v1@1/2) |- A(v1@1/2)
subst var=z term=v1@1/2 domain=V
  id a={A(z)}
"""


def test_check_rejects_substitution_on_virtual_singleton(tmp_path, capsys):
    path = tmp_path / "subst_v.blq"
    path.write_text(SUBST_ON_VIRTUAL)
    assert main(["check", str(path)]) == 2
    assert "collapse-demo" in capsys.readouterr().err
    demo = tmp_path / "subst_v_demo.blq"
    demo.write_text("flags collapse_demo\n" + SUBST_ON_VIRTUAL)
    assert main(["check", str(demo)]) == 0


SUBST_ON_VIRTUAL_DOMAIN = SUBST_ON_VIRTUAL.replace(
    "virtual duality d", "virtual duality d subst") \
    + "sequent g : A(v1@1/2) |- A(v1@1/2)\n"


@pytest.mark.parametrize("argv", [["check"], ["sym", "--name", "s"],
                                  ["search", "--name", "g"]],
                         ids=["check", "sym", "search"])
def test_collapse_demo_flag_reaches_the_scripts_registry(tmp_path, capsys,
                                                         argv):
    path = tmp_path / "subst_domain.blq"
    path.write_text(SUBST_ON_VIRTUAL_DOMAIN)
    command = [argv[0], str(path), *argv[1:]]
    assert main(command) == 2
    assert "requires collapse-demo mode" in capsys.readouterr().err
    assert main(command + ["--collapse-demo"]) == 0


SUBST_WORD = """\
domain D = { t1@1/2, t2@1/2 } focused subst
proof s : A(t1@1/2) |- A(t1@1/2)
subst var=z term=t1@1/2 domain=D
  id a={A(z)}
"""


def test_domain_subst_word_licenses_substitution(tmp_path, capsys):
    """A domain line's ``subst`` word is ``license subst NAME``."""
    path = tmp_path / "subst_word.blq"
    path.write_text(SUBST_WORD)
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "s: ok\n"


def test_commands_reject_flags_they_ignore(ext_script, capsys):
    for argv in (["search", ext_script, "--name", "detach", "--expect-proof"],
                 ["corpus", "--cut"], ["qstate", "q.json", "--subst", "D"],
                 ["bell", "--phase", "plus", "--correlation", "identical",
                  "--left-contexts"],
                 ["dual", ext_script, "--name", "detach", "--duality", "top",
                  "--weakening"],
                 ["guard", "V", "--d-axiom", "V:d"]):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_check_reports_a_d_axiom_with_a_non_variable_hole(tmp_path, capsys):
    bad = tmp_path / "hole.blq"
    bad.write_text("domain V = { v1@1/2, v2@1/2 } virtual duality d\n"
                   "license daxiom V d\n"
                   "proof p : z in V |- z in V\n"
                   "d_axiom domain=V dual=d z=z y=y hole=v1@1/2 "
                   "body={forall y in V . A(y)}\n")
    assert main(["check", str(bad)]) == 1
    assert capsys.readouterr().out.strip() == "p: FAIL"


@pytest.mark.parametrize("text", [
    "flags weakening\n"
    "proof bad : p |-\n"
    "conv_pair_intro qpos=0 relpos=1\n"
    "  weak_l pos=1 formula={1 ~i 2}\n"
    "    id a={A_1(z) join_i A_2(z)}\n",
    "domain Dplus = { down@1/2, up@1/2 } virtual duality top\n"
    "proof bad : p |-\n"
    "forall_r pos=0 term=z var=down@1/2 domain=Dplus "
    "body={forall z in Dplus . A(down@1/2, z)}\n"
    "  id a={z in Dplus}\n"
    "  id a={A(z)}\n",
], ids=["join-principal", "outcome-bound-variable"])
def test_check_reports_a_bad_proof_without_an_internal_error(tmp_path, capsys,
                                                             text):
    bad = tmp_path / "bad.blq"
    bad.write_text(text)
    assert main(["check", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out.strip() == "bad: FAIL"
    assert err == ""


def test_check_reports_wrong_parameter_kind(tmp_path, capsys):
    bad = tmp_path / "kind.blq"
    bad.write_text("proof p : p, p |- p\ncontract_l i=x j=1\n  id a={p}\n")
    rc = main(["check", str(bad)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out.strip() == "p: FAIL"
    assert err == ""


def _nested_and(depth: int) -> str:
    text = "p"
    for _ in range(depth):
        text = f"({text} & p)"
    return text


@pytest.mark.parametrize("formula", [_nested_and(1200),
                                     "(" * 2000 + "p" + ")" * 2000])
def test_search_rejects_deep_nesting(tmp_path, capsys, formula):
    path = tmp_path / "deep.blq"
    path.write_text(f"sequent deep : {formula} |- p\n")
    rc = main(["search", str(path), "--name", "deep", "--depth", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1
    assert "nested at most" in err


def test_check_accepts_nesting_at_the_limit(tmp_path, capsys):
    from symlog.scripts import MAX_NESTING
    deep = "forall x in D . " * (MAX_NESTING - 1) + "p"
    path = tmp_path / "limit.blq"
    path.write_text(f"domain D = {{ t@1 }}\nproof p : {deep} |- {deep}\n"
                    f"id a={{{deep}}}\n")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "p: ok"
    path.write_text(f"domain D = {{ t@1 }}\nsequent s : exists y in D . {deep} |-\n")
    assert main(["check", str(path)]) == 2


def _weakening_chain(n: int) -> str:
    """A script with one proof n + 1 nodes tall: n weak_l steps over id."""
    steps = "".join("  " * k + "weak_l pos=0 formula={q}\n" for k in range(n))
    return (f"flags weakening\nproof p : {'q, ' * n}p |- p\n{steps}"
            f"{'  ' * n}id a={{p}}\n")


def test_check_bounds_proof_nesting(tmp_path, capsys):
    from symlog.scripts import MAX_NESTING
    path = tmp_path / "tall.blq"
    path.write_text(_weakening_chain(MAX_NESTING - 1))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "p: ok"
    for n in (MAX_NESTING, 1500):
        path.write_text(_weakening_chain(n))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"a proof nested at most {MAX_NESTING} levels deep" in err


def test_internal_error_exits_three(monkeypatch, capsys):
    import symlog.cli as cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "corpus", boom)
    assert main(["corpus"]) == 3
    assert capsys.readouterr().err == "symlog: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("text, expected, found", [
    ("domain D = { a@1/0 }\n", "a non-zero denominator", "0"),
    ("domain D = { a@1/2, b@3/2 }\n", "a probability in (0, 1]", "3/2"),
    ("domain D = { a@1 }\nsequent s : A(a@0) |- A(a@1)\n",
     "a probability in (0, 1]", "0"),
    ("sequent s : A(a@2/0) |- A(a@1)\n", "a non-zero denominator", "0"),
], ids=["domain-zero-denominator", "domain-above-one", "term-zero",
        "term-zero-denominator"])
def test_check_rejects_bad_probability(tmp_path, capsys, text, expected,
                                       found):
    path = tmp_path / "prob.blq"
    path.write_text(text)
    rc = main(["check", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert re.fullmatch(rf"symlog: \d+:\d+: expected {re.escape(expected)}, "
                        rf"found '{re.escape(found)}'\n", err), err


OVERLAP = """\
domain D = { t1@1/2, t2@1/2 } focused
flags weakening
license subst D
license daxiom D d
sequent s : z in D |- z in D
proof pr : z in D |- z in D
id a={z in D} : z in D |- z in D
"""

# The parallel_forall macro of corpus item C12, which has no symmetric mate,
# over c12.blq's declarations.
PARALLEL_FORALL = """\
proof pf : forall x in Dplus . A_1(x) join_i A_2(x) |- forall z in Dplus . A_1(z) ,_i forall z in Dplus . A_2(z)
parallel_forall domain=Dplus mpos=1 qpos=0 var=z
  join_elim qpos=0
    forall_r body={A_1(x) join_i A_2(x)} domain=Dplus pos=0 term=z var=x
      id a={z in Dplus}
      id a={A_1(z) join_i A_2(z)}
"""


@pytest.mark.parametrize("argv, env, message", [
    (["search", "{ext}", "--name", "detach", "--d-axiom", "V"], None,
     "--d-axiom wants DOMAIN:DUALITY"),
    (["search", "{ext}", "--name", "detach", "--depth", "9",
      "--max-depth", "8"], None, "exceeds the configured maximum"),
    (["search", "{ext}", "--name", "detach", "--depth", "-3"], None,
     "at least 1, got -3"),
    (["search", "{ext}", "--name", "detach"], "deep", "SYMLOG_DEPTH"),
    (["check", "{overlap}"], None, "needs collapse-demo mode"),
    (["sym", "{overlap}", "--name", "pr"], None, "needs collapse-demo mode"),
    (["search", "{overlap}", "--name", "s"], None, "needs collapse-demo mode"),
    (["check", "{binary}"], None, "codec can't decode"),
    (["qstate", "{zero}"], None, "zero vector"),
    (["qstate", "{no_beta}"], None, "beta"),
    (["qstate", "{nan_phase}"], None, "amplitudes must be finite"),
    (["qstate", "{huge}"], None, "not a qubit state"),
    (["check", "{eof_header}"], None, "a rule name"),
    (["check", "{other_header}"], None, "the sequent of the proof header"),
    (["sym", "{parallel}", "--name", "pf"], None,
     "no symmetric mate for rule parallel_forall"),
    (["qstate", "{non_dyadic}"], None, "has no rational approximation"),
    (["sym", "{ext}", "--name", "nope"], None, "no proof named 'nope'"),
    (["search", "{ext}", "--name", "nope"], None, "no sequent named 'nope'"),
    (["dual", "{ext}", "--name", "nope", "--duality", "top"], None,
     "no sequent named 'nope'"),
], ids=["d-axiom-spec", "depth-above-maximum", "depth-below-one",
        "depth-from-environment",
        "check-license-overlap", "sym-license-overlap",
        "search-license-overlap", "not-utf8", "zero-qubit", "qubit-field",
        "nan-phase", "huge-amplitude", "proof-header-at-end",
        "proof-header-mismatch", "sym-without-mate", "non-dyadic-qubit",
        "sym-unknown-name", "search-unknown-name", "dual-unknown-name"])
def test_usage_errors_exit_two(ext_script, tmp_path, monkeypatch, capsys,
                               argv, env, message):
    files = {"ext": ext_script, "overlap": tmp_path / "overlap.blq",
             "binary": tmp_path / "binary.blq", "zero": tmp_path / "zero.json",
             "no_beta": tmp_path / "no_beta.json",
             "nan_phase": tmp_path / "nan_phase.json",
             "huge": tmp_path / "huge.json",
             "eof_header": tmp_path / "eof_header.blq",
             "other_header": tmp_path / "other_header.blq",
             "parallel": tmp_path / "parallel.blq",
             "non_dyadic": tmp_path / "non_dyadic.json"}
    files["overlap"].write_text(OVERLAP)
    files["eof_header"].write_text("proof pr : p |- p\n")
    files["other_header"].write_text("proof p : p |- q\nid a={q} : q |- q\n")
    files["binary"].write_bytes(b"sequent s : p |- \xff\n")
    files["zero"].write_text('{"alpha": 0, "beta": 0}')
    files["no_beta"].write_text('{"alpha": 1}')
    files["nan_phase"].write_text('{"alpha": 1, "beta": 1, "phi": NaN}')
    files["huge"].write_text('{"alpha": 1, "beta": 1e309}')
    decls = (CORPUS_DIR / "c12.blq").read_text().partition("\nproof ")[0]
    files["parallel"].write_text(decls + "\n" + PARALLEL_FORALL)
    files["non_dyadic"].write_text(json.dumps(
        {"alpha": math.sqrt(0.5 + 5e-8), "beta": math.sqrt(0.5 - 5e-8)}))
    if env is not None:
        monkeypatch.setenv("SYMLOG_DEPTH", env)
    assert main([a.format(**files) for a in argv]) == 2
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err


def test_d_axiom_option_grants_the_licence(tmp_path, capsys):
    path = tmp_path / "c7.blq"
    text = (CORPUS_DIR / "c7.blq").read_text()
    path.write_text(text.replace("license daxiom V d\n", ""))
    assert main(["check", str(path)]) == 1
    assert "exists_to_forall_V: FAIL" in capsys.readouterr().out
    assert main(["check", str(path), "--d-axiom", "V:d"]) == 0
    assert "exists_to_forall_V: ok" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "search"])
def test_value_error_while_working_exits_three(ext_script, monkeypatch,
                                               capsys, command):
    """A ValueError from checking or searching is a fault of the program,
    not of its input."""
    import symlog.cli as cli

    def boom(*args, **kwargs):
        raise ValueError("join operands must carry distinct indexes")

    monkeypatch.setattr(cli, f"{command}_proof", boom)
    argv = (["check", str(CORPUS_DIR / "c1.blq")] if command == "check"
            else ["search", ext_script, "--name", "detach"])
    assert main(argv) == 3
    assert capsys.readouterr().err == ("symlog: internal error: ValueError: "
                                       "join operands must carry distinct "
                                       "indexes\n")


def test_a_repeated_call_builds_no_parser(monkeypatch):
    """The parser is built once per process: a later call reuses it."""
    import argparse

    main(["bell", "--phase", "plus", "--correlation", "identical"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["bell", "--phase", "minus", "--correlation", "opposite"]) == 0
    assert built == []


LEFT_CONTEXT = """\
flags weakening
proof p : p & q, r |- p
and_l1 pos=0 other={q}
  weak_l formula={r} pos=1
    id a={p}
"""

SUBST_GOAL = """\
domain D = { t1@1/2, t2@1/2 } focused
sequent g : A(t1@1/2) |- A(t1@1/2)
"""


def test_calls_in_one_process_do_not_see_each_other(tmp_path, capsys):
    """A shared parser leaks no state between calls: the same calls run
    forward, then backward, give the same exit code, stdout and stderr."""
    left, subst = tmp_path / "left.blq", tmp_path / "subst.blq"
    left.write_text(LEFT_CONTEXT)
    subst.write_text(SUBST_GOAL)
    calls = [
        ["check", str(left), "--left-contexts"],
        ["check", str(left)],
        ["search", str(subst), "--name", "g", "--subst", "D"],
        ["search", str(subst), "--name", "g", "--subst", "D"],
        ["search", str(subst), "--name", "g"],
        ["bell", "--phase", "sideways", "--correlation", "identical"],
        ["bell", "--phase", "plus", "--correlation", "identical"],
        ["guard", "V", "--format", "json"],
        ["guard", "V"],
    ]

    def run(argv):
        rc = main(argv)
        return (rc, *capsys.readouterr())

    forward = [run(argv) for argv in calls]
    backward = [run(argv) for argv in reversed(calls)][::-1]
    assert forward == backward
    assert [rc for rc, _, _ in forward] == [0, 1, 0, 0, 0, 2, 0, 0, 0]
    assert forward[0][1] == "p: ok\n" and forward[1][1] == "p: FAIL\n"
    assert "invalid choice: 'sideways'" in forward[5][2]
    assert json.loads(forward[7][1])["status"] == forward[8][1].strip()
