"""Surface syntax: round trips, positioned errors, fuzz stability."""
import hashlib
import json
import random
import re
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symlog.cli import main
from symlog.corpus import export_corpus, positive_proofs
from symlog.dualities import IDENTITY_INV
from symlog.formulas import (
    And, Atom, Const, CorrPair, Excl, IConst, IDENTICAL, Imp, Join, Outcome,
    Sequent, Single, Var,
)
from symlog.kernel import symmetrize_proof
from symlog.rules import proof_equal
from symlog.scripts import (
    ParseError, Script, _lex, _preorder, parse_formula, parse_param,
    parse_script, parse_sequent, parse_term, print_formula, print_proof,
    print_script, print_sequent, proof_from_json, proof_to_json,
)

from genlib import proof_context, random_formula, random_proof

CORPUS_DIR = Path(__file__).resolve().parent.parent / "src/symlog/corpus_data"

p, q = Atom("p", None, ()), Atom("q", None, ())


def test_print_implication():
    assert print_formula(Imp(p, q)) == "p -> q"
    assert print_formula(Excl(q, p)) == "q <- p"


def test_print_corr_pair_slot():
    a1 = Atom("A", IConst(1), (Var("z"),))
    a2 = Atom("A", IConst(2), (Var("z"),))
    s = Sequent((), (CorrPair(a1, IDENTICAL, a2),))
    assert print_sequent(s) == "|- A_1(z) ,_i A_2(z)"


def test_parse_bell_display():
    f = parse_formula("forall x in Dplus . A_1(x) join_i A_2(x)")
    assert isinstance(f.body, Join)
    assert f.domain == "Dplus"


def test_parse_errors_positioned():
    with pytest.raises(ParseError) as err:
        parse_formula("forall x in . A(x)")
    assert err.value.line == 1 and err.value.col > 0
    with pytest.raises(ParseError):
        parse_sequent("A(z) |- |-")
    with pytest.raises(ParseError):
        parse_term("@3")


@pytest.mark.parametrize("text, line, col", [
    ("domain D = { a@1/0 }\n", 1, 18),
    ("dualtable perp { Ddown <-> }\n", 1, 28),
    ("domain D = { a@1 }\n\nsequent s : p & q & r |- p\n", 3, 19),
    ("\nproof pr : p |- p $\nid a={p} : p |- p\n", 2, 19),
    ("proof pr : p |- p\nid a={p $} : p |- p\n", 2, 9),
    ("proof pr : |- z = z\nrefl t=@ : |- z = z\n", 2, 8),
    ("proof pr : p |- p\nid a={p} : p |- p $\n", 2, 19),
    ("proof pr : p |- p\nid a={p} : p |- p\n  id a={q} : q |- q &\n", 3, 22),
    ("sequent s : A_1(z) join_i A_1(z) |- p\n", 1, 20),
    ("sequent s : A_0(z) |- p\n", 1, 15),
    ("proof pr : p |- p\nid a={p} junk : p |- p\n", 2, 10),
    ("proof pr : p |- p\nid a={p} a={q}\n", 2, 10),
    ("proof pr : p |- p\nid a={p}b={q}\n", 2, 9),
    ("proof pr : p |- p\n", 2, 1),
    ("proof pr : p |- q\nid a={q} : q |- q\n", 2, 12),
    ("sequent s : A(a@1/2) |- p\nsequent t : p |- A(a@1/0)\n", 2, 24),
    ("sequent s : A(a@1/0) |- p\nsequent t : p |- A(a@1/2)\n", 1, 19),
], ids=["domain", "dualtable", "sequent-header", "proof-header",
        "proof-formula-param", "proof-term-param", "proof-conclusion",
        "premise-conclusion", "join-same-index", "index-out-of-range",
        "proof-stray-text", "proof-repeated-key", "proof-unspaced-params",
        "proof-header-at-end", "proof-header-mismatch",
        "bad-outcome-after-good", "bad-outcome-before-good"])
def test_parse_errors_carry_file_positions(text, line, col):
    """A position counts lines and columns from the start of the script,
    wherever in a declaration, header or proof line the error sits."""
    with pytest.raises(ParseError) as err:
        parse_script(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_proof_header_states_the_proved_sequent():
    with pytest.raises(ParseError, match="the sequent of the proof header"):
        parse_script("proof pr : p |- q\nid a={q} : q |- q\n")
    # the header is validated even when the root line has a conclusion
    with pytest.raises(ParseError, match="declared domain") as err:
        parse_script("proof pr : z in D |- z in D\n"
                     "id a={z in D} : z in D |- z in D\n")
    assert (err.value.line, err.value.col) == (1, 12)
    # bound variables may be renamed between the header and the root line
    text = ("domain D = { a@1 }\nproof pr : forall x in D . A(x) |- p\n"
            "weak_l pos=0 : forall y in D . A(y) |- p\n  id a={p} : p |- p\n")
    assert parse_script(text).proofs["pr"].rule == "weak_l"


def test_comment_line_inside_a_proof_ends_it():
    text = ("proof p : p, q |- p\nweak_l pos=1 : p, q |- p\n  # note\n"
            "  id a={p} : p |- p\n")
    with pytest.raises(ParseError) as err:
        parse_script(text)
    assert (err.value.line, err.value.col, err.value.found) == (4, 1, "id")
    assert "a blank or # line ends a proof" in str(err.value)


@pytest.mark.parametrize("text, col, op", [
    ("p & q & r", 7, "&"), ("p -> q -> r", 8, "->"),
    ("p -> q \\/ r \\/ s", 13, "\\/"), ("(p * q * r)", 8, "*"),
    ("p join_i q join_o r", 12, "join_o")])
def test_chained_operators_need_parentheses(text, col, op):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert (err.value.col, err.value.found) == (col, op)
    assert "do not associate" in str(err.value)
    assert "parentheses" in str(err.value)
    with pytest.raises(ParseError, match="do not associate"):
        parse_sequent(f"{text}, p |- q")


def test_parenthesized_chains_parse():
    assert parse_formula("(p & q) & r") == parse_formula("(p & q) & (r)")
    assert print_formula(parse_formula("p -> (q -> r)")) == "p -> (q -> r)"
    # a quantifier body ends at an operator its binder cannot take
    f = parse_formula("forall x in D . p & q & r")
    assert print_formula(f) == "(forall x in D . p & q) & r"


def test_scripts_reject_variable_outcome_name_clash():
    text = ("domain D = { t1@1/2, t2@1/2 } focused\n"
            "sequent s : A(t1), t1 in D |- A(t1)\n")
    # the bare t1 in "t1 in D" reads as a variable named like an outcome
    with pytest.raises(ParseError):
        parse_script(text)


def test_scripts_reject_undeclared_domain():
    with pytest.raises(ParseError):
        parse_script("sequent s : z in Nowhere |- z in Nowhere\n")


@pytest.mark.parametrize("text, line, col", [
    ("sequent s : z in Nowhere |- z in Nowhere\n", 1, 13),
    ("proof pr : p |- p\nid a={p} : p |- p\n  id a={q} : z in Nowhere |- q\n",
     3, 14),
    ("domain D = { t1@1/2 }\nproof pr :  A(t1) |- A(t1)\nid a={A(t1)}\n",
     2, 13),
], ids=["sequent", "proof-line", "proof-header"])
def test_reference_errors_carry_the_sequents_position(text, line, col):
    """An undeclared domain or a clashing variable name is reported where
    the sequent that holds it starts."""
    with pytest.raises(ParseError) as err:
        parse_script(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_constants_read_as_const_below_their_declaration():
    c = Atom("A", None, (Const("c"),))
    sc = parse_script("const c\nsequent s : A(c) |- A(c)\n")
    assert sc.sequents["s"] == Sequent((Single(c),), (Single(c),))
    # above its declaration c reads as a variable that clashes with it
    with pytest.raises(ParseError, match="distinct from constants") as err:
        parse_script("sequent s : A(c) |- A(c)\nconst c\n")
    assert (err.value.line, err.value.col) == (1, 13)


def test_print_script_round_trips_the_const_line():
    text = "const c d\nsequent s : A(c) |- A(d)\n"
    assert print_script(parse_script(text)) == text


def test_proof_parameter_naming_a_constant_reads_as_const():
    sc = parse_script("const c\nproof p : |- c = c\nrefl t=c\n")
    assert sc.proofs["p"].params == {"t": Const("c")}


# Each wrap adds a pair of parentheses and a chain of six operators, each
# binding looser than the one before: seven levels, but one parser call.
_DEEP_CHAIN = "p"
for _ in range(29):
    _DEEP_CHAIN = f"({_DEEP_CHAIN}) (x) q * q & q \\/ q join_i q -> q"


@pytest.mark.parametrize("text, error", [
    ("const c_1\n", "1:8: expected a constant name, found '_'"),
    ("flags cut\nlicense subst D_1\n", "2:16: expected end of input, found '_'"),
    ("license daxiom V d_2\n", "1:19: expected end of input, found '_'"),
    ("license daxiom V_2 d\n",
     "1:17: expected license subst D | license daxiom D d, found '_'"),
    ("license subst D\nlicense daxiom Nowhere d\ndomain D = { t1@1 }\n",
     "2:16: expected a declared domain (license daxiom), found 'Nowhere'"),
    ("domain D = { a@" + "1" * 101 + " }\n",
     "1:16: expected a number of at most 100 digits"),
    (f"sequent s : {_DEEP_CHAIN} |- p\n",
     "1:13: expected a formula nested at most 200 levels deep, found '('"),
    ("sequent s : (p)^d |- p\n",
     "1:13: expected a membership inside (...)^dual, found 'formula'"),
    ("proof pr : |- down@1 = down@1\nrefl t=down @1\n",
     "2:13: expected a parameter key=value after whitespace, found '@'"),
], ids=["const", "subst", "daxiom-duality", "daxiom-domain",
        "undeclared-domain", "long-number", "deep-chain", "dual-of-atom",
        "spaced-term"])
def test_parse_errors_say_what_was_expected(text, error):
    """A formula reads ``c_1`` as ``c`` with index 1, and no domain or
    duality name holds ``_``, so a constant or licence operand with ``_``
    is an error at it.  A licence's domain may be declared below it, but
    must be declared.  The deep chain opens 30 parser calls, far below
    the bound, so its depth is refused once the outermost chain is read,
    at its start."""
    with pytest.raises(ParseError) as err:
        parse_script(text)
    assert str(err.value).startswith(error)


def test_print_script_round_trips_an_uninhabited_domain():
    text = "domain E = { e@1 } duality d uninhabited\n"
    sc = parse_script(text)
    assert not sc.domains[0].inhabited
    assert print_script(sc) == text


def test_scripts_reject_duplicate_names():
    text = "sequent s : p |- p\nsequent s : q |- q\n"
    with pytest.raises(ParseError):
        parse_script(text)


def test_random_round_trips():
    rng = random.Random(424242)
    for _ in range(1000):
        f = random_formula(rng, rng.randrange(1, 6), dual_tag="d")
        text = print_formula(f)
        assert parse_formula(text) == f, text


def test_sequent_round_trips():
    rng = random.Random(7)
    for _ in range(200):
        fs = [random_formula(rng, 2) for _ in range(3)]
        s = Sequent((Single(fs[0]),), (Single(fs[1]), Single(fs[2])))
        assert parse_sequent(print_sequent(s)) == s


def test_corpus_scripts_round_trip(tmp_path):
    export_corpus(tmp_path)
    files = sorted(tmp_path.glob("*.blq"))
    assert files
    for path in files:
        text = path.read_text()
        sc = parse_script(text)
        sc2 = parse_script(print_script(sc))
        assert sc2.sequents == sc.sequents
        assert sc.proofs.keys() == sc2.proofs.keys()
        for name in sc.proofs:
            assert proof_equal(sc.proofs[name], sc2.proofs[name]), name


def test_shipped_corpus_matches_export(tmp_path):
    """Every shipped script is a fixed point of print_script(parse_script())
    and the shipped manifest is the one export writes."""
    export_corpus(tmp_path)
    for path in sorted(tmp_path.iterdir()):
        shipped = CORPUS_DIR / path.name
        assert shipped.exists(), f"missing shipped corpus file {path.name}"
        assert shipped.read_text() == path.read_text(), path.name


def test_fuzz_never_silently_divergent():
    """Token-deletion fuzz: a mutated script either fails to parse or
    parses to something that reprints to a fixed point."""
    rng = random.Random(1337)
    base = (CORPUS_DIR / "c1.blq").read_text()
    tokens = re.split(r"(\s+)", base)
    survived = 0
    for _ in range(1000):
        mutant = list(tokens)
        for _ in range(rng.randrange(1, 4)):
            k = rng.randrange(len(mutant))
            mutant[k] = ""
        text = "".join(mutant)
        try:
            sc = parse_script(text)
        except ParseError:
            continue
        survived += 1
        out = print_script(sc)
        sc2 = parse_script(out)
        assert print_script(sc2) == out
    assert survived > 0  # many mutants die; survivors must be stable


_FRAGMENTS = ["domain", "dualtable", "flags", "license", "const", "sequent",
              "proof", "D", "=", "{", "}", "a@1/2", ",", "<->", "subst",
              "daxiom", "virtual", "duality", "p", "A(z)", "z in D", ":",
              "|-", "id", "a={p}", "pos=0", "weak_l", "t=z", "cut", "#", "&",
              "->", "(", ")", "forall x in D .", "_", "'", "1", "join_i", "@",
              "/", "\t", "$"]
_SEPARATORS = [" ", "", "\n", "\n  ", "\n    ", "\n\n"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(_FRAGMENTS),
                          st.sampled_from(_SEPARATORS)), max_size=30))
@example([("proof", " "), ("pr", " "), (":", " "), ("p", " "), ("|-", " "),
          ("p", "\n")])
def test_parse_script_raises_only_parse_errors(parts):
    text = "".join(a + b for a, b in parts)
    try:
        sc = parse_script(text)
    except ParseError:
        return
    assert isinstance(sc, Script)


# --------------------------------------------------------------------------
# parity digest: operator chains and outcome terms, good and bad

_SOUP_TERMS = ["x", "z", "c", "a@1/2", "a@1", "b@1/2", "a@2/4", "a@1 / 2",
               "u@1/3", "b@01/2"] * 4 + ["a@1/0", "a@3/2", "a@0", "a@", "a@1/"]
_SOUP_OPS = ["->", "<-", "join_i", "join_o", "\\/", "&", "*", "(x)"]
_SOUP_PRELUDE = ("domain D = { a@1/2, b@1/2 } focused duality d\n"
                 "domain E = { u@1/3, v@2/3 }\nconst c\n")


def _soup_atom(rng: random.Random) -> str:
    t = lambda: rng.choice(_SOUP_TERMS)  # noqa: E731
    return rng.choice([
        "p", "q", "A_1(x)", "1 ~i 2", f"A({t()})", f"B_2({t()}, {t()})",
        f"{t()} in D", f"({t()} in D)^d", f"{t()} = {t()}",
        f"{t()} /= {t()}"])


def _soup_formula(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth == 0 or r < 0.3:
        return _soup_atom(rng)
    if r < 0.4:
        q = rng.choice(["forall", "exists"])
        return f"{q} x in {rng.choice('DE')} . {_soup_formula(rng, depth - 1)}"
    if r < 0.5:
        return f"({_soup_formula(rng, depth - 1)})"
    out = _soup_formula(rng, depth - 1)
    for _ in range(rng.choice((1, 1, 2, 3))):
        out = f"{out} {rng.choice(_SOUP_OPS)} {_soup_formula(rng, depth - 1)}"
        if rng.random() < 0.5:
            out = f"({out})"
    return out


def _soup_mutant(rng: random.Random, text: str) -> str:
    """``text``, or with one of its space-separated pieces dropped, or cut
    short."""
    r = rng.random()
    if r < 0.8:
        return text
    if r < 0.9:
        return text[:rng.randrange(len(text))]
    pieces = text.split(" ")
    del pieces[rng.randrange(len(pieces))]
    return " ".join(pieces)


def _soup_script(rng: random.Random) -> str:
    lines = [_SOUP_PRELUDE]
    for k in range(rng.randrange(1, 5)):
        f, g = _soup_formula(rng, 2), _soup_formula(rng, 2)
        if rng.random() < 0.5:
            lines.append(f"sequent s{k} : {f} |- {g}\n")
            continue
        t = rng.choice(_SOUP_TERMS).replace(" ", "")
        seq = f"{f} |- {f}"
        lines.append(f"proof p{k} : {seq}\nid a={{{f}}} : {seq}\n"
                     f"  refl t={t} : |- {t} = {t}\n\n")
    return _soup_mutant(rng, "".join(lines))


_RANDOM_SCRIPTS = st.one_of(
    st.lists(st.tuples(st.sampled_from(_FRAGMENTS),
                       st.sampled_from(_SEPARATORS)), max_size=30)
    .map(lambda parts: "".join(a + b for a, b in parts)),
    st.integers(0, 2**32 - 1).map(lambda n: _soup_script(random.Random(n))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_RANDOM_SCRIPTS)
def test_check_command_answers_every_script(tmp_path_factory, text):
    """``symlog check`` on a random script exits 0 (every proof checks),
    1 (one does not) or 2 (a usage or parse error), never 3, which
    reports an internal error."""
    path = tmp_path_factory.getbasetemp() / "random.blq"
    path.write_text(text)
    assert main(["check", str(path)]) in (0, 1, 2)


def _parse_result(parse, text: str) -> str:
    try:
        value = parse(text)
    except ParseError as e:
        return repr((e.line, e.col, e.expected, e.found))
    if isinstance(value, Script):
        cfg = value.config()
        value = {
            "domains": [(r.name, r.entries, r.focused, r.virtual_singleton,
                         r.duality, r.inhabited) for r in value.domains],
            "dualtables": value.dualtables,
            # collapse-demo mode is one more flag of the configuration
            "flags": [f.name for f in fields(cfg)
                      if getattr(cfg, f.name) is True],
            "licenses": (value.subst_licenses, value.daxiom_licenses),
            "consts": sorted(value.consts),
            "sequents": value.sequents, "proofs": value.proofs}
    return repr(value)


# spellings of one label and numerator, each read after every other one
_OUTCOME_SPELLINGS = ["a@1", "a@1/2", "a@01/2", "a@2/4", "a@1/0", "a@1/",
                      "a@1 /", "a@1/x", "a@1/ 2"]


def _parse_digest(n_formulas: int = 4000, n_scripts: int = 600,
                  seed: int = 12) -> str:
    rng = random.Random(seed)
    h = hashlib.sha256()
    texts = [f"A({a}) & x = {b}" for a in _OUTCOME_SPELLINGS
             for b in _OUTCOME_SPELLINGS]
    texts += [_soup_mutant(rng, _soup_formula(rng, 3))
              for _ in range(n_formulas)]
    for text in texts:
        h.update(_parse_result(lambda t: parse_formula(t, {"c"}),
                               text).encode())
    for _ in range(n_scripts):
        h.update(_parse_result(parse_script, _soup_script(rng)).encode())
    return h.hexdigest()


_PARSE_DIGEST = (
    "5bb0505c3cf7e10f81b4517051bb94996881a3ed1b5f89dcaec21d25ff0e2320")


def test_parse_outcomes_digest_unchanged():
    """The parse result, or the error's position and text, of seeded
    formula and script soups: operator chains with and without parentheses,
    quantifiers, joins, ``(x)``, and outcome terms, some of them invalid;
    and of each spelling of an outcome read after each other one."""
    assert _parse_digest() == _PARSE_DIGEST


# --------------------------------------------------------------------------
# conclusions: each distinct slot text is read once per script

def _placed(text: str, sc: Script):
    """Each conclusion of ``text`` in line order: the sequent ``sc`` holds
    for it, the text after its line's ``:`` and the constants above it."""
    consts: set = set()
    nodes = iter(())
    for line in text.split("\n"):
        head, colon, rest = line.partition(":")
        words = head.split()
        if not words:
            continue
        if words[0] == "const":
            consts |= set(words[1:])
        elif words[0] == "sequent":
            yield sc.sequents[words[1]], rest, set(consts)
        elif words[0] == "proof":
            root = sc.proofs[words[1]]
            nodes = (node for node, _ in _preorder(root))
            yield root.conclusion, rest, set(consts)
        elif words[0] not in ("domain", "dualtable", "flags", "license"):
            node = next(nodes)
            if colon:
                yield node.conclusion, rest, set(consts)


def _genlib_scripts(n: int, seed: int = 5):
    cfg, reg = proof_context()
    rng = random.Random(seed)
    domains = [reg.get(d) for d in ("Ddown", "Dup", "Dplus", "Dminus", "D", "V")]
    for _ in range(n):
        proofs = {f"g{j}": random_proof(rng, cfg, reg, max_depth=6)
                  for j in range(3)}
        yield print_script(Script(domains=domains, proofs=proofs))


def test_placed_conclusions_read_as_their_own_text():
    """Every conclusion a script places, on a header or a proof line, is
    what ``parse_sequent`` reads from its own text under the constants
    declared above it: a slot text read before is read the same again."""
    rng = random.Random(22)
    texts = [_soup_script(rng) for _ in range(400)] + list(_genlib_scripts(40))
    checked = 0
    for text in texts:
        try:
            sc = parse_script(text)
        except ParseError:
            continue
        for seqt, rest, consts in _placed(text, sc):
            assert seqt == parse_sequent(rest, consts), rest
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("text, error", [
    ("sequent s : p & q & r |- p\nsequent t : p |- p $\n",
     (2, 20, "a token", "$")),
    ("proof pr : p |- p\nid a={p} :\n", (2, 11, "'|-'", "<end>")),
    ("sequent s :\n", (1, 12, "'|-'", "<end>")),
    ("sequent s : A(c) |- p\nconst c\nsequent t : A(c) |- p\n",
     (1, 13, "a variable name distinct from constants and outcome labels (s)",
      "c")),
    ("sequent s : p & q |- p & q\nsequent t : p & q |- p & q |- p & q\n",
     (2, 28, "end of input", "|-")),
    ("sequent s : p & q |- p & q\nsequent t : p & q, |- p & q\n",
     (2, 20, "a formula", "|-")),
    ("sequent s : p & q |- p & q\nsequent t : p & q |- p & q )\n",
     (2, 28, "end of input", ")")),
    ("sequent s : p & q |- p & q\nsequent t : p & q |- p & q : p\n",
     (2, 28, "end of input", ":")),
    ("sequent s : p & q |- p & q\nsequent t : p & q |- p & q,\n",
     (2, 28, "a formula", "<end>")),
    ("sequent s : A(x, y) |- p\nsequent t : A(x, y) |- p & q &\n",
     (2, 30, "parentheses around a chain of binary operators, which do not "
             "associate", "&")),
    ("sequent s : p ,_i q |- p\nsequent t : p ,_i q |- p ,_i\n",
     (2, 29, "a formula", "<end>")),
    ("sequent s : p |- p\nsequent t : p |- p p\n",
     (2, 20, "end of input", "p")),
    ("sequent s : p |- p\nsequent t : p |- p &\t\n",
     (2, 22, "a formula", "<end>")),
    ("sequent s : p |- p\rq\n", (1, 19, "a token", "\r")),
    ("sequent s : p |- p\r", (1, 19, "a token", "\r")),
    ("domain D = { a@1 : }\n", (1, 18, "'}'", ":")),
    ("sequent s : p |- q\n\nproof pr : p |- p\nid a={p} : |- p\n",
     (4, 12, "the sequent of the proof header", "|- p")),
], ids=["bad-char-after-chain", "empty-proof-line", "empty-header",
        "const-below-clash", "second-turnstile", "empty-slot", "stray-paren",
        "second-colon", "trailing-comma", "chain-after-known-slot",
        "open-pair", "glued-slot", "trailing-tab", "lone-cr", "final-cr",
        "colon-in-declaration", "header-mismatch"])
def test_conclusion_errors_keep_their_positions(text, error):
    """A slot text read before does not move an error: a bad character
    inside a conclusion is still found before any parse error, and an error
    after a known slot is reported where the whole conclusion puts it."""
    with pytest.raises(ParseError) as err:
        parse_script(text)
    e = err.value
    assert (e.line, e.col, e.expected, e.found) == error


def test_crlf_conclusions_read_as_lf_ones():
    text = "const c\nsequent s : A(c) |- A(c), p\nsequent t : p |- A(c)\n"
    crlf = parse_script(text.replace("\n", "\r\n"))
    assert crlf.sequents == parse_script(text).sequents
    assert crlf.sequents["t"].right == (Single(Atom("A", None, (Const("c"),))),)


@pytest.mark.parametrize("args", [
    ("p",), ("p ",), ("p \t",), ("x p \t y", 1, 5), ("x p  ", 1, None)])
def test_lexing_ends_with_one_end_and_two_copies(args):
    """Blanks before the end of a text, or of the range lexed, add no
    ``end`` token."""
    toks = _lex(*args)
    assert [(t.kind, t.text) for t in toks] \
        == [("ident", "p")] + [("end", "")] * 3
    assert len({t.pos for t in toks[1:]}) == 1


# --------------------------------------------------------------------------
# formula parameters: each distinct text is read once per script

_H = "proof pr : p |- p\n"
_DEEP = "(" * 201 + "p" + ")" * 201


@pytest.mark.parametrize("text, error", [
    (_H + "id a={p\n", (2, 8, "'}'", "<end>")),
    (_H + "id a={p}} : p |- p\n",
     (2, 9, "a parameter key=value after whitespace", "}")),
    (_H + "id a={} : p |- p\n", (2, 7, "a formula", "}")),
    (_H + "id a={p q $} : p |- p\n", (2, 11, "a token", "$")),
    (_H + "id a={p} : p |- p\n  id a={p $} : p |- p\n",
     (3, 11, "a token", "$")),
    (_H + "id a={p\r} : p |- p\n", (2, 8, "a token", "\r")),
    ((_H + "id a={p} : p |- p\n\nproof pq : p |- p\nid a={p\n")
     .replace("\n", "\r\n"), (5, 8, "'}'", "<end>")),
    ("proof pr : p ,_i q |- p ,_i q\nid a={p ,_i q} : p ,_i q |- p ,_i q\n",
     (2, 9, "'}'", ",_i")),
    (_H + "id a={p {q}} : p |- p\n", (2, 9, "'}'", "{")),
    (_H + "id a={p & q} : p |- p\n  id a={p & {q}} : p |- p\n",
     (3, 13, "a formula", "{")),
    ("sequent s : p & q |- p\n" + _H + "id a={p & q & r} : p |- p\n",
     (3, 13, "parentheses around a chain of binary operators, which do not "
             "associate", "&")),
    (_H + "id a={p : q} : p |- p\n", (2, 9, "'}'", ":")),
    (_H + "id a={p} : p |- p\n  id a={" + _DEEP + "}\n",
     (3, 209, "a formula nested at most 200 levels deep", "(")),
    ("domain D = { a@1/2, }\n", (1, 21, "an outcome label", "}")),
    ("domain D = { a@1/2\n", (1, 19, "'}'", "<end>")),
    ("domain D={ a@1/2, }\n", (1, 19, "an outcome label", "}")),
    ("domain D={a@1/2\n", (1, 16, "'}'", "<end>")),
    ("dualtable t { A <-> B\n", (1, 22, "a domain name", "<end>")),
], ids=["unclosed", "second-brace", "empty", "bad-char",
        "bad-char-after-known", "lone-cr", "crlf-unclosed-after-known", "pair-slot-text", "open-brace",
        "open-brace-after-known", "chain-after-known-slot", "colon",
        "too-deep", "domain-trailing-comma", "domain-unclosed",
        "glued-domain-trailing-comma", "glued-domain-unclosed",
        "dualtable-unclosed"])
def test_parameter_errors_keep_their_positions(text, error):
    """A ``{...}`` text read before does not move an error: a bad character
    inside braces is still found first, and a parameter whose text a
    conclusion read as a correlated pair is no formula."""
    with pytest.raises(ParseError) as err:
        parse_script(text)
    e = err.value
    assert (e.line, e.col, e.expected, e.found) == error


def test_formula_parameters_read_as_their_own_text():
    """A parameter's text reads as the formula it spells, wherever the
    script read that text before, and a brace's text may span lines where
    a newline is a space."""
    pq = And(p, q)
    text = "proof pr : p & q |- p & q\nid a={p & q}\n\nproof ps : p |- p\n" \
           "id a={ p & q } : p |- p\n"
    for crlf in (False, True):
        sc = parse_script(text.replace("\n", "\r\n") if crlf else text)
        assert sc.proofs["pr"].params == sc.proofs["ps"].params == {"a": pq}
    # a const line between two uses of one text
    sc = parse_script("proof pr : p |- p\nid a={A(c)}\n\nconst c\n"
                      "proof ps : p |- p\nid a={A(c)}\n")
    assert sc.proofs["pr"].params["a"] == Atom("A", None, (Var("c"),))
    assert sc.proofs["ps"].params["a"] == Atom("A", None, (Const("c"),))
    # a brace right after "=" that is no parameter
    for decl in ("domain D ={ t1@1/2, t2@1/2 } focused\n",
                 "domain D={t1@1/2,t2@1/2} focused\n"):
        rec, = parse_script(decl).domains
        half = Fraction(1, 2)
        assert rec.entries == (Outcome("t1", half), Outcome("t2", half))
        assert rec.focused
    for spelled in ("{p & q}", "{p &\n q}", "{p &\r\n q}", "{\np & q\n}"):
        assert parse_param(spelled, "a") == pq, spelled
    node = proof_from_json({"rule": "id", "params": {"a": "{p & q}"},
                            "conclusion": "p & q |- p & q"})
    assert node.params == {"a": pq}


# --------------------------------------------------------------------------
# parity digest: scripts whose slot and parameter texts recur

_TABLE_ATOMS = ["p", "q", "A(x)", "B_2(x, y)", "x in D", "(x in D)^d",
                "y = x", "a@1/2 /= x", "forall z in E . A(z)",
                "A_1(x) join_i A_2(x)"]
_TABLE_PAIRS = ["A_1(x) ,_i A_2(x)", "B_1(z) ,_o B_2(z)", "A_1(y) ,_i A_2(y)"]


def _table_formula(rng: random.Random) -> str:
    f = rng.choice(_TABLE_ATOMS)
    if rng.random() < 0.6:
        f = f"({f}) {rng.choice(_SOUP_OPS)} ({rng.choice(_TABLE_ATOMS)})"
    return f


def _table_script(rng: random.Random) -> str:
    """A script whose conclusions and ``{...}`` parameters draw their texts
    from one small pool, so that most were read before, some first as a
    parameter and some first as a slot: several slots a side, correlated
    pairs, parameters that hold no slot or several, a ``const y`` line
    between uses of ``y``, trailing blanks, CRLF line ends and
    ``_soup_mutant`` cuts."""
    pool = [_table_formula(rng) for _ in range(5)]
    pool += [_soup_formula(rng, 2), "A(y)"]
    comma = lambda: rng.choice([", ", ",", " , "])  # noqa: E731
    side = lambda: comma().join(  # noqa: E731
        rng.choice(pool + _TABLE_PAIRS) for _ in range(rng.randrange(4)))
    concl = lambda: f"{side()} |- {side()}" + rng.choice(  # noqa: E731
        ["", "", " ", " \t"])

    def param() -> str:
        r = rng.random()
        f = rng.choice(pool) if r > 0.1 else side() if r > 0.05 \
            else rng.choice(_TABLE_PAIRS)
        return rng.choice(["", " "]) + f + rng.choice(["", " "])

    lines = [_SOUP_PRELUDE]
    for k in range(rng.randrange(1, 6)):
        r = rng.random()
        if r < 0.15:
            lines.append("const y\n")
        elif r < 0.4:
            lines.append(f"sequent s{k} : {concl()}\n")
        else:
            root = concl()
            lines.append(f"proof p{k} : {root}\nid a={{{param()}}} : {root}\n")
            for depth in range(1, rng.randrange(1, 4)):
                lines.append("  " * depth
                             + f"r{depth} b={{{param()}}} c=x : {concl()}\n")
            lines.append(rng.choice(["\n", " \n", "\t\n"]))
    text = "".join(lines)
    if rng.random() < 0.2:
        text = text.replace("\n", "\r\n")
    return _soup_mutant(rng, text)


# sha256 over _parse_result of 2,500 _table_script texts at seed 24,
# computed while a conclusion with no known slot text was parsed whole
_TABLE_DIGEST = (
    "af9e756def20773c1bcd98dba4967c1c60944e0a95f86706389af67608342ff4")


def test_table_scripts_digest_unchanged():
    """What a script reads, or its error's position and text, does not
    depend on which of its slot and parameter texts were read before."""
    rng = random.Random(24)
    h = hashlib.sha256()
    for _ in range(2500):
        h.update(_parse_result(parse_script, _table_script(rng)).encode())
    assert h.hexdigest() == _TABLE_DIGEST


# --------------------------------------------------------------------------
# printing: each distinct slot and formula parameter is printed once a call

def _printed_proofs():
    """The corpus proofs and 500 seeded random proofs, each followed by its
    symmetric image."""
    cfg, reg = proof_context()
    pairs = [(proof, inv) for _i, _n, proof, inv in positive_proofs()]
    rng = random.Random(23)
    pairs += [(random_proof(rng, cfg, reg, max_depth=6), IDENTITY_INV)
              for _ in range(500)]
    for proof, inv in pairs:
        yield proof
        yield symmetrize_proof(proof, inv, cfg, reg)


# sha256 over _printed_proofs(): each proof's text and its JSON form,
# computed while each node's slots and parameters were printed one by one
_PRINT_DIGEST = ("abb1c080dc5d9edee5f6f9f5a24c9104"
                 "ac37b5d4838a283159051e6755319fc2")


def test_printed_proofs_digest_unchanged():
    h = hashlib.sha256()
    for proof in _printed_proofs():
        h.update(print_proof(proof).encode() + b"\n")
        h.update(json.dumps(proof_to_json(proof), sort_keys=True).encode()
                 + b"\n")
    assert h.hexdigest() == _PRINT_DIGEST
