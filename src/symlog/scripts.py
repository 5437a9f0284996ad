"""Surface syntax: an ASCII script format for domains, formulas, sequents,
and proof trees, with a round-trippable pretty-printer.

Operators, loosest binding first::

    ->  <-        implication / exclusion
    join_i join_o correlation connective
    \\/            additive disjunction
    &             additive conjunction
    *             multiplicative disjunction
    (x)           multiplicative conjunction

No binary operator associates: a chain of two needs parentheses, as in
``(p & q) & r`` or ``p -> (q -> r)``; ``p & q & r`` is a parse error that
says so.

Atoms are ``name``, ``name_1(args)``; membership is ``t in D`` and its
dual ``(t in D)^d``; equality ``s = t`` and ``s /= t``; index relations
``1 ~i 2``.  Outcome terms pair a label with an exact rational: ``up@1/2``.
Sequent slots are comma-separated; a correlated pair is written with an
indexed comma: ``A_1(z) ,_i A_2(z)``.  Proof trees nest premises by
two-space indentation.  Formulas and proofs nest at most ``MAX_NESTING``
levels deep.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .domains import DomainRecord, Registry
from .formulas import (
    And, Atom, Const, CorrPair, DualMember, Eq, Excl, Exists, Forall, Formula,
    IConst, IVar, Imp, Index, IndexRel, Join, Member, Neq, Or, Outcome, Par,
    Sequent, Single, Slot, Term, Times, Var, free_vars, slot_formulas,
    subformulas, tag_from_short,
)
from .kernel import ProofNode, _preorder
from .rules import _PARAM_KIND, CalculusConfig

__all__ = [
    "ParseError", "Script", "parse_script", "print_script",
    "parse_formula", "print_formula", "parse_sequent", "print_sequent",
    "parse_term", "print_term", "parse_proof_block", "print_proof",
    "print_param", "parse_param",
]


class ParseError(Exception):
    def __init__(self, line: int, col: int, expected: str, found: str):
        super().__init__(f"{line}:{col}: expected {expected}, found {found!r}")
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found


# --------------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<nl>\n)
  | (?P<sym>join_[io]|\|-|<->|->|<-|,_i|,_o|~i|~o|/=|\\/|[(){}.,=&*^@:/_])
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9']*)
  | (?P<bad>.)
""", re.VERBOSE)

# The longest number the parser reads; Python's int() refuses a few
# thousand digits, and no probability or index needs more than this.
_MAX_DIGITS = 100

# The parser looks at most two tokens past the cursor, and stops at the
# first ``end`` it consumes, so three sentinels let ``peek`` index directly.
_SENTINELS = 3


@dataclass(frozen=True)
class Tok:
    kind: str  # "sym" | "num" | "ident" | "end"
    text: str
    line: int
    col: int


def _lex(text: str, line: int = 1, col: int = 1) -> list:
    """The tokens of ``text``, whose first character sits at ``line`` and
    ``col`` of its file, and three ``end`` sentinels."""
    toks = []
    line_start = 1 - col  # a column is m.start() - line_start + 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        if kind == "bad":
            raise ParseError(line, m.start() - line_start + 1, "a token",
                             m.group())
        toks.append(Tok(kind, m.group(), line, m.start() - line_start + 1))
    toks.extend([Tok("end", "<end>", line, len(text) - line_start + 1)]
                * _SENTINELS)
    return toks


class _Stream:
    def __init__(self, toks: list, consts: Optional[set] = None):
        self.toks = toks
        self.i = 0
        self.consts = consts or set()
        self.open = 0  # formulas being parsed, one inside the next

    def peek(self, ahead: int = 0) -> Tok:
        return self.toks[self.i + ahead]

    def next(self) -> Tok:
        t = self.peek()
        self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "end"

    def eat(self, text: str) -> Tok:
        t = self.peek()
        if t.text != text or t.kind == "end":
            raise ParseError(t.line, t.col, repr(text), t.text)
        return self.next()

    def ident(self, what: str = "an identifier") -> str:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(t.line, t.col, what, t.text)
        return self.next().text

    def number(self) -> int:
        t = self.peek()
        if t.kind != "num":
            raise ParseError(t.line, t.col, "a number", t.text)
        if len(t.text) > _MAX_DIGITS:
            raise ParseError(t.line, t.col, f"a number of at most "
                             f"{_MAX_DIGITS} digits", t.text)
        return int(self.next().text)

    def done(self) -> bool:
        return self.peek().kind == "end"

    def expect_end(self) -> None:
        t = self.peek()
        if t.kind != "end":
            raise ParseError(t.line, t.col, "end of input", t.text)


# --------------------------------------------------------------------------
# terms

def _parse_probability(s: _Stream) -> Fraction:
    """An outcome's probability: a rational in (0, 1]."""
    start = s.i
    num = s.number()
    den = 1
    if s.at("/"):
        s.next()
        t = s.peek()
        den = s.number()
        if den == 0:
            raise ParseError(t.line, t.col, "a non-zero denominator", t.text)
    p = Fraction(num, den)
    if not 0 < p <= 1:
        t = s.toks[start]
        raise ParseError(t.line, t.col, "a probability in (0, 1]",
                         "".join(tok.text for tok in s.toks[start:s.i]))
    return p


def _parse_term(s: _Stream) -> Term:
    name = s.ident("a term")
    if s.at("@"):
        s.next()
        return Outcome(name, _parse_probability(s))
    if name in s.consts:
        return Const(name)
    return Var(name)


def parse_term(text: str, consts: Optional[set] = None, line: int = 1,
               col: int = 1) -> Term:
    s = _Stream(_lex(text, line, col), consts)
    t = _parse_term(s)
    s.expect_end()
    return t


def print_term(t: Term) -> str:
    if isinstance(t, Outcome):
        return f"{t.label}@{t.prob}"
    return t.name


def _print_index(i: Index) -> str:
    return str(i.value) if isinstance(i, IConst) else i.name


def _parse_index(s: _Stream) -> Index:
    t = s.peek()
    if t.kind == "num":
        try:
            return IConst(s.number())
        except ValueError:  # IConst's range check
            raise ParseError(t.line, t.col, "an index constant from 1 to 9",
                             t.text) from None
    return IVar(s.ident("an index"))


# --------------------------------------------------------------------------
# formulas

_OP_LEVEL = {Imp: 0, Excl: 0, Join: 1, Or: 2, And: 3, Par: 4, Times: 5}
_OP_TOKEN = {"->": Imp, "<-": Excl, "join_i": Join, "join_o": Join,
             "\\/": Or, "&": And, "*": Par, "(x)": Times}
_OP_TEXT = {ctor: text for text, ctor in _OP_TOKEN.items() if ctor is not Join}

# The deepest formula, and the tallest proof, the parser builds.  A
# connective, a quantifier and a pair of parentheses each add one formula
# level; each proof node on a root-to-leaf path adds one proof level.
# Formula walks, the dataclasses' own hash, == and repr, and the proof parser
# recurse once or more per level, so the bound keeps every parsed formula and
# proof well inside Python's recursion limit.
MAX_NESTING = 200


def _too_deep(t: Tok) -> ParseError:
    return ParseError(t.line, t.col,
                      f"a formula nested at most {MAX_NESTING} levels deep",
                      t.text)


def _operator_text(s: _Stream) -> str:
    """The binary operator at the cursor, or '' when there is none."""
    text = s.peek().text
    if text == "(" and s.peek(1).text == "x" and s.peek(2).text == ")":
        return "(x)"
    return text if text in _OP_TOKEN else ""


def _operator(s: _Stream, level: int):
    """Consume the binary operator of precedence ``level`` at the cursor,
    if there is one, and return what builds its formula from the operands."""
    text = _operator_text(s)
    ctor = _OP_TOKEN.get(text)
    if ctor is None or _OP_LEVEL[ctor] != level:
        return None
    for _ in range(3 if text == "(x)" else 1):
        s.next()
    if ctor is Join:
        return lambda a, b: Join(tag_from_short(text[-1]), a, b)
    return ctor


def _parse_formula(s: _Stream, level: int = 0, last: bool = True) -> tuple:
    """Parse a formula whose operators bind at ``level`` or tighter, and
    return it with its nesting depth.  Each operator level takes at most
    one operator: the operators do not associate, and an operator left over
    at level 0 is an error.  ``last`` is False only for a quantifier body,
    which an operator may follow: ``forall x in D . p & q & r`` reads
    ``(forall x in D . p & q) & r``."""
    start = s.peek()
    s.open += 1
    if s.open > MAX_NESTING:
        raise _too_deep(start)
    f, depth = _parse_primary(s)
    for lv in range(_OP_LEVEL[Times], level - 1, -1):
        ctor = _operator(s, lv)
        if ctor is not None:
            op = s.toks[s.i - 1]
            rhs, rdepth = _parse_formula(s, lv + 1)
            try:
                f, depth = ctor(f, rhs), max(depth, rdepth) + 1
            except ValueError:  # Join's distinct-index check
                raise ParseError(op.line, op.col, "join operands with "
                                 "distinct indexes", op.text) from None
    if level == 0 and last and _operator_text(s):
        t = s.peek()
        raise ParseError(t.line, t.col, "parentheses around a chain of binary "
                         "operators, which do not associate", t.text)
    if depth > MAX_NESTING:
        raise _too_deep(start)
    s.open -= 1
    return f, depth


def _parse_primary(s: _Stream) -> tuple:
    t = s.peek()
    if t.text == "(":
        s.next()
        inner, depth = _parse_formula(s, 0)
        s.eat(")")
        if s.at("^"):
            s.next()
            dual = s.ident("a duality name")
            if not isinstance(inner, Member):
                raise ParseError(t.line, t.col,
                                 "a membership inside (...)^dual", "formula")
            inner = DualMember(inner.term, inner.domain, dual)
        return inner, depth + 1
    if t.text in ("forall", "exists"):
        s.next()
        v = Var(s.ident("a bound variable"))
        s.eat("in")
        dom = s.ident("a domain name")
        s.eat(".")
        body, depth = _parse_formula(s, 0, last=False)
        return (Forall if t.text == "forall" else Exists)(v, dom, body), depth + 1
    if t.kind == "num":
        i = _parse_index(s)
        op = s.next()
        if op.text not in ("~i", "~o"):
            raise ParseError(op.line, op.col, "~i or ~o", op.text)
        j = _parse_index(s)
        return IndexRel(i, tag_from_short(op.text[-1]), j), 1
    if t.kind != "ident":
        raise ParseError(t.line, t.col, "a formula", t.text)
    # identifier: atom, membership, equality, or an index relation over IVar
    if s.peek(1).text in ("~i", "~o"):
        i = _parse_index(s)
        op = s.next()
        j = _parse_index(s)
        return IndexRel(i, tag_from_short(op.text[-1]), j), 1
    start = s.i
    term = _parse_term(s)
    nxt = s.peek()
    if nxt.text == "in":
        s.next()
        return Member(term, s.ident("a domain name")), 1
    if nxt.text == "=":
        s.next()
        return Eq(term, _parse_term(s)), 1
    if nxt.text == "/=":
        s.next()
        return Neq(term, _parse_term(s)), 1
    # plain atom: re-read as predicate with optional index and arguments
    s.i = start
    pred = s.ident("a predicate")
    index: Optional[Index] = None
    if s.at("_"):
        s.next()
        index = _parse_index(s)
    args: tuple = ()
    if s.at("("):
        # a parenthesis straight after a predicate is its argument list;
        # a bare atom to the left of the (x) operator must be parenthesized
        s.next()
        items = [_parse_term(s)]
        while s.at(","):
            s.next()
            items.append(_parse_term(s))
        s.eat(")")
        args = tuple(items)
    return Atom(pred, index, args), 1


def parse_formula(text: str, consts: Optional[set] = None, line: int = 1,
                  col: int = 1) -> Formula:
    s = _Stream(_lex(text, line, col), consts)
    f, _ = _parse_formula(s, 0)
    s.expect_end()
    return f


def print_formula(f: Formula, parent_level: int = -1) -> str:
    if isinstance(f, Atom):
        out = f.pred
        if f.index is not None:
            out += f"_{_print_index(f.index)}"
        if f.args:
            out += "(" + ", ".join(print_term(a) for a in f.args) + ")"
        return out
    if isinstance(f, Member):
        s = f"{print_term(f.term)} in {f.domain}"
        return f"({s})" if parent_level >= 0 else s
    if isinstance(f, DualMember):
        return f"({print_term(f.term)} in {f.domain})^{f.dual}"
    if isinstance(f, Eq):
        s = f"{print_term(f.lhs)} = {print_term(f.rhs)}"
        return f"({s})" if parent_level >= 0 else s
    if isinstance(f, Neq):
        s = f"{print_term(f.lhs)} /= {print_term(f.rhs)}"
        return f"({s})" if parent_level >= 0 else s
    if isinstance(f, IndexRel):
        s = f"{_print_index(f.i)} ~{f.tag.short} {_print_index(f.j)}"
        return f"({s})" if parent_level >= 0 else s
    if isinstance(f, (Forall, Exists)):
        q = "forall" if isinstance(f, Forall) else "exists"
        s = f"{q} {f.var.name} in {f.domain} . {print_formula(f.body)}"
        return f"({s})" if parent_level >= 0 else s
    lvl = _OP_LEVEL[type(f)]
    op = f"join_{f.tag.short}" if isinstance(f, Join) else _OP_TEXT[type(f)]
    left = print_formula(f.a, lvl)
    if isinstance(f, Times) and isinstance(f.a, Atom) and not f.a.args:
        left = f"({left})"  # keep the (x) operator out of an argument list
    body = f"{left} {op} {print_formula(f.b, lvl)}"
    return f"({body})" if parent_level >= lvl else body


# --------------------------------------------------------------------------
# sequents

def _parse_slots(s: _Stream, stop: str) -> tuple:
    slots: list = []
    if s.at(stop) or s.done():
        return tuple(slots)
    while True:
        a, _ = _parse_formula(s, 0)
        if s.peek().text in (",_i", ",_o"):
            tag = tag_from_short(s.next().text[-1])
            b, _ = _parse_formula(s, 0)
            slots.append(CorrPair(a, tag, b))
        else:
            slots.append(Single(a))
        if s.at(","):
            s.next()
            continue
        return tuple(slots)


def parse_sequent(text: str, consts: Optional[set] = None, line: int = 1,
                  col: int = 1) -> Sequent:
    s = _Stream(_lex(text, line, col), consts)
    seqt = _parse_sequent(s)
    s.expect_end()
    return seqt


def _parse_sequent(s: _Stream) -> Sequent:
    left = _parse_slots(s, "|-")
    s.eat("|-")
    right = _parse_slots(s, "<never>")
    return Sequent(left, right)


def _print_slot(slot: Slot) -> str:
    if isinstance(slot, Single):
        return print_formula(slot.formula)
    return f"{print_formula(slot.a)} ,_{slot.tag.short} {print_formula(slot.b)}"


def print_sequent(s: Sequent) -> str:
    left = ", ".join(_print_slot(x) for x in s.left)
    right = ", ".join(_print_slot(x) for x in s.right)
    if left and right:
        return f"{left} |- {right}"
    if left:
        return f"{left} |-"
    return f"|- {right}"


# --------------------------------------------------------------------------
# rule parameters

def print_param(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, Formula):
        return "{" + print_formula(v) + "}"
    return print_term(v)


def parse_param(text: str, key: Optional[str] = None,
                consts: Optional[set] = None, line: int = 1, col: int = 1):
    """A rule parameter's value; ``line`` and ``col`` place ``text`` in its
    file."""
    col += len(text) - len(text.lstrip())
    text = text.strip()
    if text.startswith("{"):
        if not text.endswith("}"):
            raise ParseError(line, col + len(text) - 1, "a closing brace",
                             text[-1:])
        return parse_formula(text[1:-1], consts, line, col + 1)
    if text == "true":
        return True
    if text == "false":
        return False
    if re.fullmatch(r"\d+", text):
        if len(text) > _MAX_DIGITS:
            raise ParseError(line, col, f"a number of at most {_MAX_DIGITS} "
                             f"digits", text)
        return int(text)
    kind = _PARAM_KIND.get(key or "", None)
    if kind == "str":
        return text
    if kind == "term":
        return parse_term(text, consts, line, col)
    # unknown key: identifiers default to strings, terms need the key table
    return text


# --------------------------------------------------------------------------
# proof blocks

def print_proof(p: ProofNode, indent: int = 0) -> str:
    out = []
    for node, depth in _preorder(p, indent):
        line = "  " * depth + " ".join([node.rule] + [
            f"{k}={print_param(node.params[k])}" for k in sorted(node.params)])
        if node.conclusion is not None:
            line += " : " + print_sequent(node.conclusion)
        out.append(line)
    return "\n".join(out)


_PARAM_TOKEN_RE = re.compile(r"\s+(\w+)=(\{[^}]*\}|[^\s]+)")


def _parse_proof_line(text: str, lineno: int, consts: set) -> ProofNode:
    """One proof line, ``text`` being the whole line of the file: a rule
    name, whitespace-separated ``key=value`` items, each key once, then
    optionally ``:`` and the conclusion."""
    head, colon, tail = text.partition(":")
    conclusion = parse_sequent(tail, consts, lineno, len(head) + 2) \
        if colon else None
    bits = head.split(None, 1)
    if not bits:
        raise ParseError(lineno, 1, "a rule name", "")
    rule = bits[0]
    params = {}
    pos, end = head.index(rule) + len(rule), len(head.rstrip())
    while pos < end:
        m = _PARAM_TOKEN_RE.match(head, pos)
        if m is None:
            pos = end - len(head[pos:end].lstrip())
            raise ParseError(lineno, pos + 1, "a parameter key=value after "
                             "whitespace", head[pos:end].split()[0])
        key, raw = m.group(1), m.group(2)
        if key in params:
            raise ParseError(lineno, m.start(1) + 1, "each parameter once", key)
        params[key] = parse_param(raw, key, consts, lineno, m.start(2) + 1)
        pos = m.end()
    return ProofNode(rule, params, (), conclusion)


def parse_proof_block(lines: list, start: int, indent: int,
                      consts: set) -> tuple:
    """Parse a proof tree from indented lines, returning (node, next_line)."""
    text = lines[start]
    node = _parse_proof_line(text, start + 1, consts)
    premises = []
    i = start + 1
    child_indent = indent + 2
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            break
        depth = len(line) - len(line.lstrip(" "))
        if depth < child_indent:
            break
        if depth > child_indent:
            raise ParseError(i + 1, depth + 1,
                             f"indentation {child_indent}", line.strip()[:10])
        if child_indent // 2 >= MAX_NESTING:
            raise ParseError(i + 1, depth + 1,
                             f"a proof nested at most {MAX_NESTING} levels deep",
                             line.strip()[:10])
        child, i = parse_proof_block(lines, i, child_indent, consts)
        premises.append(child)
    return ProofNode(node.rule, node.params, tuple(premises),
                     node.conclusion), i


# --------------------------------------------------------------------------
# scripts

@dataclass
class Script:
    domains: list = field(default_factory=list)       # DomainRecord
    dualtables: dict = field(default_factory=dict)    # name -> {dom: dom}
    flags: dict = field(default_factory=dict)
    subst_licenses: list = field(default_factory=list)
    daxiom_licenses: list = field(default_factory=list)  # (domain, dual)
    collapse_demo: bool = False
    consts: set = field(default_factory=set)
    sequents: dict = field(default_factory=dict)      # name -> Sequent
    proofs: dict = field(default_factory=dict)        # name -> ProofNode

    def registry(self) -> Registry:
        reg = Registry(collapse_demo=self.collapse_demo)
        for rec in self.domains:
            reg.register_domain(rec)
        for name, table in self.dualtables.items():
            reg.declare_duality_table(name, table)
        return reg

    def config(self) -> CalculusConfig:
        return CalculusConfig(
            left_contexts=self.flags.get("left_contexts", False),
            right_contexts=self.flags.get("right_contexts", False),
            weakening=self.flags.get("weakening", False),
            cut=self.flags.get("cut", False),
            substitution_domains=frozenset(self.subst_licenses),
            d_axiom_domains=frozenset(self.daxiom_licenses),
            collapse_demo=self.collapse_demo)


_FLAG_NAMES = ("left_contexts", "right_contexts", "weakening", "cut")


def _parse_domain_decl(s: _Stream) -> DomainRecord:
    name = s.ident("a domain name")
    s.eat("=")
    s.eat("{")
    entries = []
    if not s.at("}"):
        while True:
            label = s.ident("an outcome label")
            s.eat("@")
            entries.append(Outcome(label, _parse_probability(s)))
            if s.at(","):
                s.next()
                continue
            break
    s.eat("}")
    focused = virtual = subst = False
    inhabited = True
    duality = None
    while not s.done():
        word = s.peek().text
        if word == "focused":
            focused = True
        elif word == "virtual":
            virtual = True
        elif word == "subst":
            subst = True
        elif word == "uninhabited":
            inhabited = False
        elif word == "duality":
            s.next()
            duality = s.ident("a duality name")
            continue
        else:
            break
        s.next()
    return DomainRecord(name, tuple(entries), focused=focused,
                        virtual_singleton=virtual, duality=duality,
                        substitution_allowed=subst, inhabited=inhabited)


def parse_script(text: str) -> Script:
    sc = Script()
    lines = text.splitlines()
    known: set = set()
    placed: list = []  # (owner's name, sequent, line, column) for _validate_refs
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = raw.strip()
        if not line or line.startswith("#"):
            i += 1
            continue
        if raw[0] in " \t":
            raise ParseError(i + 1, 1, "a top-level declaration", line[:12])
        word = line.split(None, 1)[0]
        if word == "domain":
            s = _Stream(_lex(line[len("domain"):], i + 1, len("domain") + 1),
                        sc.consts)
            rec = _parse_domain_decl(s)
            s.expect_end()
            _check_unique(rec.name, known, i)
            sc.domains.append(rec)
        elif word == "dualtable":
            s = _Stream(_lex(line[len("dualtable"):], i + 1,
                             len("dualtable") + 1))
            name = s.ident("a duality name")
            s.eat("{")
            table = {}
            while not s.at("}"):
                a = s.ident("a domain name")
                s.eat("<->")
                b = s.ident("a domain name")
                table[a] = b
                table[b] = a
                if s.at(","):
                    s.next()
            s.eat("}")
            s.expect_end()
            sc.dualtables.setdefault(name, {}).update(table)
        elif word == "flags":
            for flag in line.split()[1:]:
                if flag == "collapse_demo":
                    sc.collapse_demo = True
                    continue
                if flag not in _FLAG_NAMES:
                    raise ParseError(i + 1, 1, "a flag name", flag)
                sc.flags[flag] = True
        elif word == "license":
            bits = line.split()
            if len(bits) == 3 and bits[1] == "subst":
                sc.subst_licenses.append(bits[2])
            elif len(bits) == 4 and bits[1] == "daxiom":
                sc.daxiom_licenses.append((bits[2], bits[3]))
            else:
                raise ParseError(i + 1, 1, "license subst D | license daxiom D d",
                                 line)
        elif word == "const":
            sc.consts.update(line.split()[1:])
        elif word == "sequent":
            name, body, col = _named_header(line, "sequent", i)
            _check_unique(name, known, i)
            sc.sequents[name] = parse_sequent(body, sc.consts, i + 1, col)
            placed.append((name, sc.sequents[name], i + 1, _sequent_col(line)))
        elif word == "proof":
            name, body, col = _named_header(line, "proof", i)
            _check_unique(name, known, i)
            root_concl = parse_sequent(body, sc.consts, i + 1, col)
            node, i2 = parse_proof_block(lines, i + 1, 0, sc.consts)
            sc.proofs[name] = ProofNode(node.rule, node.params, node.premises,
                                        node.conclusion or root_concl)
            if node.conclusion is None:
                placed.append((name, root_concl, i + 1, _sequent_col(line)))
            for k, (n, _) in enumerate(_preorder(node), i + 1):  # a line each
                if n.conclusion is not None:
                    placed.append((name, n.conclusion, k + 1,
                                   _sequent_col(lines[k])))
            i = i2
            continue
        else:
            raise ParseError(i + 1, 1, "a declaration keyword", word)
        i += 1
    _validate_refs(sc, placed)
    return sc


def _named_header(line: str, keyword: str, lineno: int) -> tuple:
    """(name, body, column of the body) of a ``keyword NAME : body`` line."""
    head, sep, body = line.partition(":")
    bits = head.split()
    if not sep or len(bits) != 2 or bits[0] != keyword:
        raise ParseError(lineno + 1, 1, f"{keyword} NAME : <sequent>", line[:20])
    return bits[1], body, len(head) + 2


def _sequent_col(line: str) -> int:
    """The column where the sequent after the first colon of ``line`` starts."""
    head, _, body = line.partition(":")
    return len(head) + 2 + len(body) - len(body.lstrip())


def _check_unique(name: str, known: set, lineno: int) -> None:
    if name in known:
        raise ParseError(lineno + 1, 1, "a fresh name", name)
    known.add(name)


def _domain_refs(f: Formula):
    for g in subformulas(f):
        if isinstance(g, (Member, DualMember, Forall, Exists)):
            yield g.domain


def _formula_vars(f: Formula):
    for g in subformulas(f):
        if g.shape.binds:
            yield g.var
    yield from free_vars(f)


def _validate_refs(sc: Script, placed: list) -> None:
    """Check the domains and variable names of each sequent ``placed`` holds
    once the whole script is read, since a domain may be declared below its
    first use; an error is reported where its sequent starts."""
    declared = {rec.name for rec in sc.domains}
    taken = set(sc.consts)
    for rec in sc.domains:
        taken.update(e.label for e in rec.entries)
    for where, s, line, col in placed:
        for slot in s.left + s.right:
            for f in slot_formulas(slot):
                for dom in _domain_refs(f):
                    if dom not in declared:
                        raise ParseError(line, col,
                                         f"a declared domain ({where})", dom)
                for v in _formula_vars(f):
                    if v.name in taken:
                        raise ParseError(
                            line, col, f"a variable name distinct from "
                                       f"constants and outcome labels ({where})",
                            v.name)


def print_script(sc: Script) -> str:
    out = []
    for rec in sc.domains:
        entries = ", ".join(f"{e.label}@{e.prob}" for e in rec.entries)
        bits = [f"domain {rec.name} = {{ {entries} }}"]
        if rec.focused:
            bits.append("focused")
        if rec.virtual_singleton:
            bits.append("virtual")
        if rec.duality:
            bits.append(f"duality {rec.duality}")
        if rec.substitution_allowed:
            bits.append("subst")
        if not rec.inhabited:
            bits.append("uninhabited")
        out.append(" ".join(bits))
    for name in sorted(sc.dualtables):
        table = sc.dualtables[name]
        seen = set()
        pairs = []
        for a in table:
            if a in seen:
                continue
            b = table[a]
            seen.update({a, b})
            pairs.append(f"{a} <-> {b}")
        out.append(f"dualtable {name} {{ {', '.join(pairs)} }}")
    flags = [f for f in _FLAG_NAMES if sc.flags.get(f)]
    if sc.collapse_demo:
        flags.append("collapse_demo")
    if flags:
        out.append("flags " + " ".join(flags))
    for dom in sc.subst_licenses:
        out.append(f"license subst {dom}")
    for dom, dual in sc.daxiom_licenses:
        out.append(f"license daxiom {dom} {dual}")
    if sc.consts:
        out.append("const " + " ".join(sorted(sc.consts)))
    for name, s in sc.sequents.items():
        out.append(f"sequent {name} : {print_sequent(s)}")
    for name, p in sc.proofs.items():
        concl = p.conclusion
        out.append(f"proof {name} : {print_sequent(concl)}")
        out.append(print_proof(p))
    return "\n".join(out) + "\n"
