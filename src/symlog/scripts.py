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
says so.  A bare atom left of ``(x)`` needs them too, as in ``(p) (x) q``:
in ``p (x) q``, ``(x)`` is the argument list of ``p``.

Atoms are ``name``, ``name_1(args)``; membership is ``t in D`` and its
dual ``(t in D)^d``; equality ``s = t`` and ``s /= t``; index relations
``1 ~i 2``.  Outcome terms pair a label with an exact rational: ``up@1/2``.
Sequent slots are comma-separated; a correlated pair is written with an
indexed comma: ``A_1(z) ,_i A_2(z)``.  Proof trees nest premises by
two-space indentation.  Formulas and proofs nest at most ``MAX_NESTING``
levels deep.  A proof's JSON form (``proof_to_json``, ``proof_from_json``)
writes its parameters and conclusions in this format.

A script is lexed once, into one stream of tokens.  A line whose first
non-blank character is ``#`` is blank, and a blank line ends a proof; a
line's indentation is the number of spaces it starts with.  Each name (of
a sequent, proof, rule, key, flag, constant, licence operand or name-valued
parameter) is one token, ``[A-Za-z][A-Za-z0-9_']*``.  A character that
starts no token is an error at its position, found before any other.

A ``:`` and the conclusion after it, up to the end of its line, are one
token, and so are a parameter's ``{`` (one glued to ``key=``) and the text
after it, up to the next brace.  A proof line restates its whole
conclusion, and shares most slots with its premises; the formula
parameters of a proof repeat too.  So one table reader, ``_slot_at``,
lexes and parses each distinct slot text and formula parameter text once
per script (and once more after a ``const`` line), and the printers print
each distinct slot and parameter once per call.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple, Optional

from .domains import DomainRecord, Registry
from .formulas import (
    And, Atom, Const, CorrPair, DualMember, Eq, Excl, Exists, Forall, Formula,
    IConst, IVar, Imp, Index, IndexRel, Join, Member, Neq, Or, Outcome, Par,
    Sequent, Single, Slot, Term, Times, Var, sequent_equal,
    slot_formulas, subformulas, tag_from_short,
)
from .rules import _PARAM_KIND, CalculusConfig, ProofNode, _fold

__all__ = [
    "ParseError", "Script", "parse_script", "print_script",
    "parse_formula", "print_formula", "parse_sequent", "print_sequent",
    "parse_term", "print_term", "print_proof", "print_param", "parse_param",
    "proof_to_json", "proof_from_json",
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
    (?P<indent>^[ \t]+(?=[^\s\#]))
  | (?:^[ \t]*\#.*|[ \t]+)?  # a comment line, or the spaces before a token
    (?:(?P<end>\r?\n|\Z)
     | (?P<colon>:)  # and the conclusion after it: see below
       (?:[ \t\dA-Za-z(){}.,=&*^@:/_']+|\|-|<->|<-|->|~[io]|\\/)*
     | (?P<brace>\{(?<=[\dA-Za-z_']=\{))  # a parameter's: see below
       (?:[ \t\dA-Za-z().,=&*^@:/_']+|\|-|<->|<-|->|~[io]|\\/)*
     | (?P<sym>join_[io]|\|-|<->|->|<-|,_i|,_o|~i|~o|/=|\\/|[(){}.,=&*^@/_'])
     | (?P<num>\d+)
     | (?P<ident>[A-Za-z][A-Za-z0-9']*)
     | (?P<bad>.))
""", re.VERBOSE | re.MULTILINE)
_KINDS = (None, "indent", "end", "sym", "brace", "sym", "num", "ident", "bad")
# A ``:`` token also covers the rest of its line, the conclusion, and a
# ``{`` glued to ``key=``, which starts a proof line's parameter, covers
# the text up to the next brace or the line's end; ``_read_at`` lexes such
# text at its offset when it is read.  The pattern after each reads
# that text as runs of the characters that each start a token made of such
# characters only, and the symbols that start with any other character.  So
# it stops at the first character that starts no token, which the next
# match reads as ``bad``.

# The longest number the parser reads; Python's int() refuses a few
# thousand digits, and no probability or index needs more than this.
_MAX_DIGITS = 100

# Within a line the parser looks at most two tokens past the cursor; past
# a line's ``end`` it looks at most at the two tokens that open the next.
# So the ``end`` at the end of the text is followed by two more.
_SENTINELS = 3

# The tokens that continue a name glued to them, besides idents and numbers.
_NAME_TAIL = frozenset(["_", "'", "join_i", "join_o"])


class Tok(NamedTuple):
    kind: str  # "indent" | "end" | "sym" | "brace" | "num" | "ident"
    text: str
    pos: int  # offset of the token's first character in the text


_new_tok = tuple.__new__  # what Tok(...) calls, without its Python frame


def _located(text: str, pos: int, expected: str, found: str) -> ParseError:
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(text.count("\n", 0, pos) + 1, pos - line_start + 1,
                      expected, found)


def _lex(text: str, pos: int = 0, endpos: Optional[int] = None) -> list:
    """The tokens of ``text``, or of its part from ``pos`` to ``endpos``: an
    ``end`` for each newline and for the end, which two more follow.  A
    comment line makes no token but its ``end``, nor do the spaces inside a
    line."""
    toks = [_new_tok(Tok, (_KINDS[i], m[i], m.start(i)))
            for m in _TOKEN_RE.finditer(
                text, pos, len(text) if endpos is None else endpos)
            for i in (m.lastindex,)]
    if "bad" in map(itemgetter(0), toks):
        t = next(t for t in toks if t.kind == "bad")
        raise _located(text, t.pos, "a token", t.text)
    if toks[-2:-1] == toks[-1:]:  # blanks that end the text, then its end
        del toks[-1]
    toks += toks[-1:] * (_SENTINELS - 1)
    return toks


class _Stream:
    def __init__(self, text: str, consts: Optional[set] = None):
        self.text = text
        self.toks = _lex(text)
        self.i = 0
        self.consts = set() if consts is None else consts
        self.slots: dict = {}  # slot or parameter text -> the Slot it reads as
        self.open = 0  # formulas being parsed, one inside the next
        self.outcomes: dict = {}  # (label, numerator, denominator) -> Outcome

    def error(self, t: Tok, expected: str, found: Optional[str] = None):
        if found is None:
            found = "<end>" if t.kind == "end" else t.text
        return _located(self.text, t.pos, expected, found)

    def peek(self, ahead: int = 0) -> Tok:
        return self.toks[self.i + ahead]

    def next(self) -> Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.toks[self.i].text == text

    def glued(self, k: int) -> bool:
        """Whether token ``k`` starts on its line right where the token
        before it ends."""
        t, before = self.toks[k], self.toks[k - 1]
        return t.kind != "end" and t.pos == before.pos + len(before.text)

    def eat(self, text: str) -> Tok:
        t = self.toks[self.i]
        if t.text != text:
            raise self.error(t, repr(text))
        self.i += 1
        return t

    def ident(self, what: str) -> str:
        t = self.peek()
        if t.kind != "ident":
            raise self.error(t, what)
        return self.next().text

    def name(self, what: str) -> str:
        """A name: an ident, or ``join_i``/``join_o``, and the idents,
        numbers, ``_``, ``'`` and ``join_i``/``join_o`` glued to it."""
        t = self.peek()
        if t.kind != "ident" and t.text not in ("join_i", "join_o"):
            raise self.error(t, what)
        text, end = t.text, t.pos + len(t.text)
        while True:
            self.i += 1
            t = self.toks[self.i]
            if t.pos != end or (t.kind != "ident" and t.kind != "num"
                                and t.text not in _NAME_TAIL):
                return text
            text += t.text
            end += len(t.text)

    def number(self) -> int:
        t = self.peek()
        if t.kind != "num":
            raise self.error(t, "a number")
        if len(t.text) > _MAX_DIGITS:
            raise self.error(t, f"a number of at most {_MAX_DIGITS} digits")
        return int(self.next().text)

    def done(self) -> bool:
        return self.toks[self.i].kind == "end"

    def end_line(self) -> None:
        t = self.next()
        if t.kind != "end":
            raise self.error(t, "end of input")


def _parse_text(text: str, consts: Optional[set], read):
    """What ``read`` takes from all of ``text``, a newline being a space."""
    s = _Stream(text, consts)
    s.toks = [t for t in s.toks if t.kind not in ("end", "indent")] \
        + s.toks[-_SENTINELS:]
    value = read(s)
    s.end_line()
    return value


def _read_at(s: _Stream, start: int, end: int, read, expected: str):
    """What ``read`` takes from all of ``s.text[start:end]``, lexed at its
    offset and followed, as lookahead, by the stream's tokens from the
    cursor on.  If ``read`` stops short of them, that is an error: the
    token at which it stopped is not ``expected``.  The stream is left as
    it was."""
    toks, i, depth = s.toks, s.i, s.open
    s.toks = _lex(s.text, start, end)[:-_SENTINELS] + toks[i:i + _SENTINELS]
    s.i = 0
    try:
        value = read(s)
        if s.peek() is not toks[i]:
            raise s.error(s.peek(), expected)
        return value
    finally:
        s.toks, s.i, s.open = toks, i, depth


def _braced(s: _Stream, read):
    """What ``read`` takes from between the ``{`` at the cursor and its
    ``}``.  The text that a ``brace`` token covers stops at a brace or an
    ``end``; it is read through ``_read_at``, up to the token after it."""
    t = s.eat("{")
    if t.kind == "brace":
        value = _read_at(s, t.pos + 1, s.peek().pos, read, "'}'")
    else:
        value = read(s)
    s.eat("}")
    return value


# --------------------------------------------------------------------------
# terms

def _parse_outcome(s: _Stream, label: str) -> Outcome:
    """The outcome ``label@p`` whose probability, a rational in (0, 1],
    starts at the cursor.  Each stream builds the outcome for a spelling of
    a valid probability once, and returns it again where it recurs; an
    invalid one is never stored, so it is reported at each position."""
    toks, start = s.toks, s.i
    slash = toks[start + 1].text == "/"
    key = (label, toks[start].text, toks[start + 2].text if slash else None)
    term = s.outcomes.get(key)
    if term is not None:
        s.i += 3 if slash else 1
        return term
    num = s.number()
    den = 1
    if slash:
        s.next()
        t = s.peek()
        den = s.number()
        if den == 0:
            raise s.error(t, "a non-zero denominator")
    try:
        term = s.outcomes[key] = Outcome(label, Fraction(num, den))
    except ValueError:  # Outcome's range check
        raise s.error(toks[start], "a probability in (0, 1]",
                      "".join(tok.text for tok in toks[start:s.i])) from None
    return term


def _parse_term(s: _Stream) -> Term:
    name = s.ident("a term")
    if s.at("@"):
        s.next()
        return _parse_outcome(s, name)
    if name in s.consts:
        return Const(name)
    return Var(name)


def parse_term(text: str, consts: Optional[set] = None) -> Term:
    return _parse_text(text, consts, _parse_term)


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
            raise s.error(t, "an index constant from 1 to 9") from None
    return IVar(s.ident("an index"))


# --------------------------------------------------------------------------
# formulas

_OP_LEVEL = {Imp: 0, Excl: 0, Join: 1, Or: 2, And: 3, Par: 4, Times: 5}
_OP_TOKEN = {"->": Imp, "<-": Excl, "join_i": Join, "join_o": Join,
             "\\/": Or, "&": And, "*": Par, "(x)": Times}
_OP_TEXT = {ctor: text for text, ctor in _OP_TOKEN.items() if ctor is not Join}
# operator token -> (its level, what builds its formula from the operands)
_BINARY = {text: (_OP_LEVEL[ctor], partial(Join, tag_from_short(text[-1]))
                  if ctor is Join else ctor) for text, ctor in _OP_TOKEN.items()}

# The deepest formula, and the tallest proof, the parser builds.  A
# connective, a quantifier and a pair of parentheses each add one formula
# level; each proof node on a root-to-leaf path adds one proof level.
# Only the parsers still recurse, once or more per level, so the bound
# keeps every parse well inside Python's recursion limit.
MAX_NESTING = 200
_TOO_DEEP = f"a formula nested at most {MAX_NESTING} levels deep"


def _parse_formula(s: _Stream, level: int = 0, last: bool = True) -> tuple:
    """Parse a formula whose operators bind at ``level`` or tighter, and
    return it with its nesting depth.  After each operand the operator at
    the cursor is read once: it is taken, with its right operand parsed at
    the next tighter level, while its level is at least ``level`` and below
    that of the operator taken before it.  So tighter operators bind first,
    each level takes at most one operator (the operators do not associate),
    and an operator left over at level 0 is an error.  ``last`` is False
    only for a quantifier body, which an operator may follow:
    ``forall x in D . p & q & r`` reads ``(forall x in D . p & q) & r``."""
    start = s.peek()
    s.open += 1
    if s.open > MAX_NESTING:
        raise s.error(start, _TOO_DEEP)
    f, depth = _parse_primary(s)
    toks, taken = s.toks, _OP_LEVEL[Times] + 1
    while True:
        i = s.i
        op = toks[i]
        text = op.text
        if text == "(" and toks[i + 1].text == "x" and toks[i + 2].text == ")":
            text = "(x)"
        binary = _BINARY.get(text)
        if binary is None or not level <= binary[0] < taken:
            break
        taken, build = binary
        s.i = i + (3 if text == "(x)" else 1)
        rhs, rdepth = _parse_formula(s, taken + 1)
        try:
            f, depth = build(f, rhs), max(depth, rdepth) + 1
        except ValueError:  # Join's distinct-index check
            raise s.error(op, "join operands with distinct indexes") from None
    if binary is not None and level == 0 and last:
        raise s.error(op, "parentheses around a chain of binary operators, "
                          "which do not associate")
    if depth > MAX_NESTING:
        raise s.error(start, _TOO_DEEP)
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
                raise s.error(t, "a membership inside (...)^dual", "formula")
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
    if t.kind == "num" or t.kind == "ident" and s.peek(1).text in ("~i", "~o"):
        i = _parse_index(s)
        op = s.next()
        if op.text not in ("~i", "~o"):
            raise s.error(op, "~i or ~o")
        j = _parse_index(s)
        return IndexRel(i, tag_from_short(op.text[-1]), j), 1
    if t.kind != "ident":
        raise s.error(t, "a formula")
    # identifier: atom, membership or equality
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
        # a parenthesis straight after a predicate is its argument list
        s.next()
        items = [_parse_term(s)]
        while s.at(","):
            s.next()
            items.append(_parse_term(s))
        s.eat(")")
        args = tuple(items)
    return Atom(pred, index, args), 1


def _formula(s: _Stream) -> Formula:
    return _parse_formula(s, 0)[0]


def parse_formula(text: str, consts: Optional[set] = None) -> Formula:
    return _parse_text(text, consts, _formula)


def print_formula(f: Formula) -> str:
    # A stack holds the pending pieces: strings, and right operands with
    # their parent's level; a left operand or a body is printed at once.  A
    # formula is parenthesized when its parent's level is at least its own;
    # an atom or a dual membership never is.
    out, todo = [], [(f, -1)]
    while todo:
        g = todo.pop()
        if type(g) is str:
            out.append(g)
            continue
        g, parent = g
        while g.shape.subs:
            lvl = _OP_LEVEL.get(type(g), 0)
            if parent >= lvl:
                out.append("(")
                todo.append(")")
            if isinstance(g, (Forall, Exists)):
                q = "forall" if isinstance(g, Forall) else "exists"
                out.append(f"{q} {g.var.name} in {g.domain} . ")
                g, parent = g.body, -1
            else:
                op = f"join_{g.tag.short}" if isinstance(g, Join) else _OP_TEXT[type(g)]
                todo += (g.b, lvl), f" {op} "
                if isinstance(g, Times) and isinstance(g.a, Atom) and not g.a.args:
                    out.append("(")  # keep (x) out of an argument list
                    todo.append(")")
                g, parent = g.a, lvl
        text = _print_literal(g)
        out.append(text if parent < 0 or isinstance(g, (Atom, DualMember))
                   else f"({text})")
    return "".join(out)


def _print_literal(g: Formula) -> str:
    if isinstance(g, Atom):
        s = g.pred if g.index is None else f"{g.pred}_{_print_index(g.index)}"
        return f"{s}({', '.join(map(print_term, g.args))})" if g.args else s
    if isinstance(g, DualMember):
        return f"({print_term(g.term)} in {g.domain})^{g.dual}"
    if isinstance(g, Member):
        return f"{print_term(g.term)} in {g.domain}"
    if isinstance(g, IndexRel):
        return f"{_print_index(g.i)} ~{g.tag.short} {_print_index(g.j)}"
    op = "=" if isinstance(g, Eq) else "/="
    return f"{print_term(g.lhs)} {op} {print_term(g.rhs)}"


# --------------------------------------------------------------------------
# sequents

def _parse_slots(s: _Stream, stop: str = "<never>") -> tuple:
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
        if not s.at(","):
            return tuple(slots)
        s.next()


def parse_sequent(text: str, consts: Optional[set] = None) -> Sequent:
    return _parse_text(text, consts, _parse_sequent)


def _parse_sequent(s: _Stream) -> Sequent:
    left = _parse_slots(s, "|-")
    s.eat("|-")
    right = _parse_slots(s)
    return Sequent(left, right)


# A comma that is neither ``,_i`` nor ``,_o``: it separates two slots unless
# it stands inside parentheses, in an argument list.
_COMMA = re.compile(r",(?!_[io])")


def _side_slots(s: _Stream, start: int, end: int) -> list:
    """The slots of one side of a conclusion, ``s.text[start:end]``: its
    texts cut at the commas at parenthesis depth 0, each read through
    ``_slot_at``.  Each piece's parentheses are counted once, so a long
    line splits in linear time."""
    pieces = _COMMA.split(s.text[start:end])
    opened = list(map(str.count, pieces, repeat("(")))
    closed = list(map(str.count, pieces, repeat(")")))
    if opened != closed:  # join the pieces of each argument list
        groups, depth = [], 0
        for piece, o, c in zip(pieces, opened, closed):
            if depth > 0:
                groups[-1].append(piece)
            else:
                groups.append([piece])
            depth += o - c
        pieces = list(map(",".join, groups))
    if len(pieces) == 1 and not pieces[0].strip():
        return []
    slots = []
    for piece in pieces:
        slots.append(_slot_at(s, start, start + len(piece)))
        start += len(piece) + 1
    return slots


def _conclusion(s: _Stream) -> tuple:
    """The sequent after the ``:`` just read, up to the line's ``end``, and
    the offset of its first token.  A conclusion whose slot texts each read
    as one slot, joined by commas and one turnstile, reads as those slots.
    Any other is lexed and parsed whole, which reports its error."""
    start, end = s.toks[s.i - 1].pos + 1, s.toks[s.i].pos
    first = end - len(s.text[start:end].lstrip(" \t"))
    bar = s.text.find("|-", start, end)
    if bar >= 0:
        left, right = _side_slots(s, start, bar), _side_slots(s, bar + 2, end)
        if all(left) and all(right):
            return Sequent(tuple(left), tuple(right)), first
    return _read_at(s, start, end, _parse_sequent, "end of input"), first


def _slot_at(s: _Stream, start: int, end: int) -> Optional[Slot]:
    """The slot that all of ``s.text[start:end]`` reads as, or None.  Each
    distinct text, without its blanks, is lexed and parsed once, at its
    offset, and its slot kept until a ``const`` line changes how a name
    reads."""
    text = s.text[start:end].strip()
    slot = s.slots.get(text)
    if slot is None:
        try:
            slots = _read_at(s, start, end, _parse_slots, "a slot")
        except ParseError:
            return None
        if len(slots) == 1:
            slot = s.slots[text] = slots[0]
    return slot


def _print_slot(slot: Slot) -> str:
    if isinstance(slot, Single):
        return print_formula(slot.formula)
    return f"{print_formula(slot.a)} ,_{slot.tag.short} {print_formula(slot.b)}"


def print_sequent(s: Sequent) -> str:
    return _print_sequent(s, _print_slot)


def _print_sequent(s: Sequent, slot_text) -> str:
    left = ", ".join(map(slot_text, s.left))
    right = ", ".join(map(slot_text, s.right))
    if left and right:
        return f"{left} |- {right}"
    if left:
        return f"{left} |-"
    return f"|- {right}"


# --------------------------------------------------------------------------
# rule parameters

_BOOLS = {"true": True, "false": False}


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


def _parse_value(s: _Stream, key: Optional[str]):
    """A parameter value: ``{formula}``, a number, ``true``/``false``, or
    a term for a term-kind key and a name for any other, glued together."""
    t = s.peek()
    if t.text == "{":
        close = s.toks[s.i + 1]
        slot = t.kind == "brace" and _slot_at(s, t.pos + 1, close.pos)
        if type(slot) is Single and close.text == "}":
            s.i += 2
            return slot.formula
        return _braced(s, _formula)
    if t.kind == "num":
        return s.number()
    if _PARAM_KIND.get(key) != "term":
        word = s.name("a parameter value")
        return _BOOLS.get(word, word)
    start = s.i
    term = _parse_term(s)
    for k in range(start + 1, s.i):
        if not s.glued(k):
            raise s.error(s.toks[k], _ITEM)
    return _BOOLS.get(getattr(term, "name", ""), term)


def parse_param(text: str, key: Optional[str] = None,
                consts: Optional[set] = None):
    """A rule parameter's value, read as in a proof line."""
    return _parse_text(text, consts, lambda s: _parse_value(s, key))


# --------------------------------------------------------------------------
# proof blocks

def _printer():
    """The text of a slot or a parameter value, each distinct one printed
    once: one per printing call.  Typed, so ``True`` and ``1`` print
    apart."""
    return lru_cache(maxsize=None, typed=True)(
        lambda x: _print_slot(x) if isinstance(x, (Single, CorrPair))
        else print_param(x))


def _preorder(p: ProofNode):
    """Each node with its depth (``p``'s being 0), in pre-order."""
    todo = [(p, 0)]
    while todo:
        node, d = todo.pop()
        yield node, d
        todo.extend((q, d + 1) for q in reversed(node.premises))


def print_proof(p: ProofNode) -> str:
    out, text = [], _printer()
    for node, depth in _preorder(p):
        line = "  " * depth + " ".join([node.rule] + [
            f"{k}={text(node.params[k])}" for k in sorted(node.params)])
        if node.conclusion is not None:
            line += " : " + _print_sequent(node.conclusion, text)
        out.append(line)
    return "\n".join(out)


_ITEM = "a parameter key=value after whitespace"


def _parse_proof(s: _Stream, indent: int, placed: list) -> ProofNode:
    """The proof line at the cursor, ``indent`` spaces in: a rule name,
    ``key=value`` items, each after whitespace and each key once, then
    optionally ``:`` and the conclusion, which goes on ``placed`` with the
    offset of its first token.  Below it, two spaces further in, come its
    premises' lines, up to a blank line or one indented less."""
    rule = s.name("a rule name")
    params = {}
    while not s.done() and not s.at(":"):
        t = s.peek()
        if s.glued(s.i):
            raise s.error(t, _ITEM)
        key = s.name(_ITEM)
        if "'" in key or not (s.at("=") and s.glued(s.i) and s.glued(s.i + 1)):
            raise s.error(t, _ITEM)
        if key in params:
            raise s.error(t, "each parameter once", key)
        s.next()
        params[key] = _parse_value(s, key)
    conclusion = None
    if s.at(":"):
        s.next()
        conclusion, start = _conclusion(s)
        placed.append((conclusion, start))
    s.end_line()
    premises = []
    while s.peek().kind == "indent":
        lead = s.peek().text
        depth = len(lead) - len(lead.lstrip(" "))
        if depth < indent + 2:
            break
        if depth > indent + 2:
            raise s.error(s.peek(1), f"indentation {indent + 2}")
        if depth // 2 >= MAX_NESTING:
            raise s.error(s.peek(1), f"a proof nested at most {MAX_NESTING} "
                                     f"levels deep")
        s.next()
        premises.append(_parse_proof(s, depth, placed))
    return ProofNode(rule, params, tuple(premises), conclusion)


# --------------------------------------------------------------------------
# the JSON form of a proof: each node's rule, its parameters and conclusion
# as the text format prints them, and its premises

def proof_to_json(p: ProofNode) -> dict:
    text = _printer()
    return _fold(p, lambda n, prems, _: {
        "rule": n.rule,
        "params": {k: text(v) for k, v in n.params.items()},
        "conclusion": _print_sequent(n.conclusion, text)
        if n.conclusion else None,
        "premises": prems,
    })


class _JsonProof(dict):
    """A proof's JSON object, with its premises where ``_fold`` reads them."""
    premises = property(lambda o: list(map(_JsonProof, o.get("premises", ()))))


def proof_from_json(obj: dict) -> ProofNode:
    return _fold(_JsonProof(obj), lambda o, prems, _: ProofNode(
        o["rule"],
        {k: parse_param(v, key=k) for k, v in o.get("params", {}).items()},
        tuple(prems),
        parse_sequent(o["conclusion"]) if o.get("conclusion") else None))


# --------------------------------------------------------------------------
# scripts

@dataclass
class Script:
    domains: list = field(default_factory=list)       # DomainRecord
    dualtables: dict = field(default_factory=dict)    # name -> {dom: dom}
    flags: dict = field(default_factory=dict)
    subst_licenses: list = field(default_factory=list)
    daxiom_licenses: list = field(default_factory=list)  # (domain, dual)
    consts: set = field(default_factory=set)
    sequents: dict = field(default_factory=dict)      # name -> Sequent
    proofs: dict = field(default_factory=dict)        # name -> ProofNode

    def registry(self) -> Registry:
        reg = Registry()
        for rec in self.domains:
            reg.register_domain(rec)
        for name, table in self.dualtables.items():
            reg.declare_duality_table(name, table)
        return reg

    def config(self) -> CalculusConfig:
        return CalculusConfig(
            **{flag: self.flags.get(flag, False) for flag in _FLAG_NAMES},
            substitution_domains=frozenset(self.subst_licenses),
            d_axiom_domains=frozenset(self.daxiom_licenses))


_FLAG_NAMES = ("left_contexts", "right_contexts", "weakening", "cut",
               "collapse_demo")
_LICENSE = "license subst D | license daxiom D d"


def _parse_entries(s: _Stream) -> tuple:
    entries = []
    if not s.at("}"):
        while True:
            label = s.ident("an outcome label")
            s.eat("@")
            entries.append(_parse_outcome(s, label))
            if not s.at(","):
                break
            s.next()
    return tuple(entries)


def _parse_dualtable(s: _Stream) -> dict:
    table = {}
    while not s.at("}"):
        a = s.ident("a domain name")
        s.eat("<->")
        b = s.ident("a domain name")
        table[a], table[b] = b, a
        if s.at(","):
            s.next()
    return table


def _parse_domain_decl(s: _Stream) -> tuple:
    """The record of a ``domain`` line, and whether it has the ``subst``
    word (``license subst NAME`` for short)."""
    name = s.ident("a domain name")
    s.eat("=")
    entries = _braced(s, _parse_entries)
    words = dict.fromkeys(("focused", "virtual", "subst", "uninhabited"), False)
    duality = None
    while s.peek().text in words or s.at("duality"):
        word = s.next().text
        if word == "duality":
            duality = s.ident("a duality name")
        else:
            words[word] = True
    return DomainRecord(name, entries, focused=words["focused"],
                        virtual_singleton=words["virtual"], duality=duality,
                        inhabited=not words["uninhabited"]), words["subst"]


def parse_script(text: str) -> Script:
    sc = Script()
    s = _Stream(text, sc.consts)
    known: set = set()
    placed: list = []  # (owner's name, sequent, its first token's offset)
    while s.i < len(s.toks) - _SENTINELS:
        t = s.peek()
        if t.kind == "end":  # a blank line
            s.next()
            continue
        if t.kind == "indent":
            raise s.error(t, "a top-level declaration (a blank or # line "
                             "ends a proof)", s.peek(1).text)
        word = s.name("a declaration keyword")
        if word == "domain":
            t = s.peek()
            rec, subst = _parse_domain_decl(s)
            _check_unique(s, t, rec.name, known)
            sc.domains.append(rec)
            if subst:
                sc.subst_licenses.append(rec.name)
        elif word == "dualtable":
            name = s.ident("a duality name")
            table = _braced(s, _parse_dualtable)
            sc.dualtables.setdefault(name, {}).update(table)
        elif word == "flags":
            while not s.done():
                t = s.peek()
                flag = s.name("a flag name")
                if flag in _FLAG_NAMES:
                    sc.flags[flag] = True
                else:
                    raise s.error(t, "a flag name", flag)
        elif word == "license":
            t = s.peek()
            kind = s.name(_LICENSE)
            if kind == "subst":
                sc.subst_licenses.append(s.ident(_LICENSE))
            elif kind == "daxiom":
                sc.daxiom_licenses.append((s.ident(_LICENSE), s.ident(_LICENSE)))
            else:
                raise s.error(t, _LICENSE, kind)
        elif word == "const":
            while not s.done():
                sc.consts.add(s.ident("a constant name"))
            s.slots.clear()  # an identifier may now read as a constant
        elif word == "sequent":
            name = _header(s, word, known)
            sc.sequents[name], start = _conclusion(s)
            placed.append((name, sc.sequents[name], start))
        elif word == "proof":
            name = _header(s, word, known)
            root, start = _conclusion(s)
            placed.append((name, root, start))
            s.end_line()
            if s.peek().kind == "indent":  # the root line's indentation is free
                s.next()
            lines: list = []
            node = _parse_proof(s, 0, lines)
            if node.conclusion is None:
                node = ProofNode(node.rule, node.params, node.premises, root)
            elif not sequent_equal(node.conclusion, root):
                raise _located(s.text, lines[0][1],
                               "the sequent of the proof header",
                               print_sequent(node.conclusion))
            placed.extend((name, concl, pos) for concl, pos in lines)
            sc.proofs[name] = node
            continue
        else:
            raise s.error(t, "a declaration keyword", word)
        s.end_line()
    _validate_refs(s, sc, placed)
    # a domain's subst word and a licence line may name one domain twice
    sc.subst_licenses = list(dict.fromkeys(sc.subst_licenses))
    return sc


def _header(s: _Stream, keyword: str, known: set) -> str:
    """The fresh NAME of a ``keyword NAME :`` header, read up to the colon."""
    t = s.peek()
    name = s.name(f"{keyword} NAME : <sequent>")
    s.eat(":")
    _check_unique(s, t, name, known)
    return name


def _check_unique(s: _Stream, t: Tok, name: str, known: set) -> None:
    if name in known:
        raise s.error(t, "a fresh name", name)
    known.add(name)


def _validate_refs(s: _Stream, sc: Script, placed: list) -> None:
    """Check the domains and variable names of each sequent ``placed`` holds
    once the whole script is read, since a domain may be declared below its
    first use; an error is reported where its sequent starts, a formula's
    undeclared domain before its taken variable name.  A formula that
    passed is not checked again where it recurs."""
    declared = {rec.name for rec in sc.domains}
    taken = set(sc.consts)
    for rec in sc.domains:
        taken.update(e.label for e in rec.entries)
    passed: set = set()
    for where, seqt, pos in placed:
        for slot in seqt.left + seqt.right:
            for f in slot_formulas(slot):
                if f in passed:
                    continue
                bad = []  # taken variable names, in walk order
                for g in subformulas(f):
                    if isinstance(g, (Member, DualMember, Forall, Exists)) \
                            and g.domain not in declared:
                        raise _located(s.text, pos,
                                       f"a declared domain ({where})", g.domain)
                    vs = (g.var,) if g.shape.binds else g.shape.terms(g)
                    bad += [v.name for v in vs
                            if isinstance(v, Var) and v.name in taken]
                if bad:
                    raise _located(
                        s.text, pos, f"a variable name distinct from "
                        f"constants and outcome labels ({where})", bad[0])
                passed.add(f)


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
