"""Textual protocol description language: parse and serialize protocol trees.

The concrete syntax mirrors the product-projector notation the protocols
are written in.  A document is a header (parties, target basis, root-level
resources) followed by one node; ``parse`` and ``serialize`` are exact
inverses on canonical text.

    parties { A:3 B:3 C:3 }
    basis B_II_33
    resource EPR(A,B) as a1 b1

    measure by B {
      M = P[B:{0,1}, b1:{0}] + P[B:{2}, b1:{1}]
      Mb = rest
    } outcomes {
      M -> identify phi_0
      Mb -> mirror M flip b1
    }

Effect kets are restricted to computational levels and two-term
(|i> +- |j>)/sqrt2 superpositions; a single ``rest`` effect per node
denotes identity minus the sum of its siblings.  Conditional resources and
party merges appear as ``attach ... { }`` and ``merge X -> Y cost <ebits>
{ }`` nodes in the body.  An outcome ``Mb -> mirror M flip r ...`` is the
subtree of its sibling outcome ``M`` with |0> and |1> swapped on each
named qubit register in scope; ``M`` must not itself be a mirror, and the
register list ends before the next outcome's ``name ->``.  It parses to a
:class:`~gnpb.tree.Mirror` child, which :func:`gnpb.engine.conjugate_tree`
expands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .tree import (
    RESOURCE_KINDS,
    AttachResource,
    Distinguishable,
    Effect,
    Fail,
    Identify,
    KetExpr,
    Measure,
    MergeParties,
    Mirror,
    PTerm,
)


class PdlError(ValueError):
    """Parse failure with a source position."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class PdlDocument:
    parties: tuple          # of (name, dim)
    basis: str
    root: object            # protocol node tree (header resources included)


# ---------------------------------------------------------------------------
# lexer

_PUNCT = {
    "{": "LBRACE", "}": "RBRACE", "[": "LBRACK", "]": "RBRACK",
    "(": "LPAREN", ")": "RPAREN", ":": "COLON", ",": "COMMA",
    "=": "EQUALS", "+": "PLUS", "-": "MINUS", "/": "SLASH", "->": "ARROW",
}

# One match per blank run, comment or token; only tokens fill the group.  A
# word starts with a letter, digit or underscore (``str.isalnum``, as ``\w``
# does) and holds dots; a word that starts with a decimal digit also holds
# every sign that follows an e or E and precedes a decimal digit, so the
# signed exponents of numbers such as 1e-05 stay whole.
_SCAN = re.compile(r"""
    [ \t\r\n]+ | \#[^\n]*
  | ( -> | [{}\[\]():,=+\-/]
    | \d[\w.]* (?: (?<=[eE]) [+-] \d[\w.]* )* | \w[\w.]*
    | . )
""", re.VERBOSE)


def _lex(text):
    """Kinds and texts of the tokens of ``text``, ending with EOF.

    Positions are not kept: :func:`_position` finds them again for the one
    token an error names."""
    texts = [t for t in _SCAN.findall(text) if t]
    # a one-character token that is neither punctuation nor a word is an error
    kinds = [_PUNCT[t] if t in _PUNCT else "NUMBER" if "." in t and t != "." else
             "ATOM" if len(t) > 1 or t.isalnum() or t == "_" else "?" for t in texts]
    if "?" in kinds:
        i = kinds.index("?")
        raise PdlError(f"unexpected character {texts[i]!r}", *_position(text, i))
    return kinds + ["EOF"], texts + [""]


def _position(text, index):
    """``(line, col)`` of token ``index`` of ``text``, or of EOF past the last."""
    starts = [m.start() for m in _SCAN.finditer(text) if m.group(1)]
    if index < len(starts):
        pos = starts[index]
    else:  # a comment on the last line does not move the EOF column
        comment = text.find("#", text.rfind("\n") + 1)
        pos = len(text) if comment < 0 else comment
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


# ---------------------------------------------------------------------------
# parser

class _Parser:
    """Recursive descent over the token lists; a token is its index."""

    def __init__(self, text):
        self.text = text
        self.kinds, self.texts = _lex(text)
        self.pos = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self):
        return self.kinds[self.pos]

    def next(self):
        tok = self.pos
        if self.kinds[tok] != "EOF":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        raise PdlError(message, *_position(self.text, self.pos if tok is None else tok))

    def expect(self, kind, text=None):
        tok = self.next()
        if self.kinds[tok] != kind or (text is not None and self.texts[tok] != text):
            want = text if text is not None else kind.lower()
            self.error(f"expected {want!r}, found {self.texts[tok]!r}", tok)
        return tok

    def keyword(self, word):
        tok = self.next()
        if self.kinds[tok] != "ATOM" or self.texts[tok] != word:
            self.error(f"expected keyword {word!r}, found {self.texts[tok]!r}", tok)
        return tok

    def at_keyword(self, word):
        return self.kinds[self.pos] == "ATOM" and self.texts[self.pos] == word

    def atom(self, what="name"):
        tok = self.next()
        if self.kinds[tok] != "ATOM":
            self.error(f"expected {what}, found {self.texts[tok]!r}", tok)
        return tok

    def name(self, what="name"):
        return self.texts[self.atom(what)]

    def integer(self, what="integer"):
        tok = self.atom(what)
        if not self.texts[tok].isdecimal():  # what int() reads
            self.error(f"expected {what}, found {self.texts[tok]!r}", tok)
        return int(self.texts[tok])

    # -- grammar ---------------------------------------------------------

    def document(self):
        self.keyword("parties")
        self.expect("LBRACE")
        parties = []
        while self.peek() != "RBRACE":
            name = self.name("party name")
            self.expect("COLON")
            dim = self.integer("dimension")
            if dim < 2:
                self.error(f"party {name!r} needs dimension >= 2")
            if name in (p for p, _ in parties):
                self.error(f"duplicate party {name!r}")
            parties.append((name, dim))
        self.expect("RBRACE")
        if not parties:
            self.error("at least one party required")
        self.keyword("basis")
        basis = self.name("basis name")

        self.parties = dict(parties)
        self.dims = {p: d for p, d in parties}   # register -> dim
        attaches = []
        while self.at_keyword("resource"):
            self.next()
            attaches.append(self._resource())
        root = self.node()
        self.expect("EOF")
        for kind, endpoints, labels in reversed(attaches):
            root = AttachResource(kind, endpoints, labels, root)
        return PdlDocument(tuple(parties), basis, root)

    def _resource(self):
        tok = self.atom("resource kind")
        kind = self.texts[tok]
        if kind not in RESOURCE_KINDS:
            self.error(f"unknown resource kind {kind!r}", tok)
        dims = RESOURCE_KINDS[kind][0]
        self.expect("LPAREN")
        endpoints = [self.name("party")]
        while self.peek() == "COMMA":
            self.next()
            endpoints.append(self.name("party"))
        self.expect("RPAREN")
        for p in endpoints:
            if p not in self.parties:
                self.error(f"unknown party {p!r}")
        self.keyword("as")
        labels = []
        for _ in dims:
            lbl = self.name("register label")
            if lbl in self.dims:
                self.error(f"register {lbl!r} already exists")
            labels.append(lbl)
        if len(endpoints) != len(dims):
            self.error(f"{kind} needs {len(dims)} endpoints")
        for lbl, d in zip(labels, dims):
            self.dims[lbl] = d
        return kind, tuple(endpoints), tuple(labels)

    def node(self):
        word = self.texts[self.pos]
        if self.peek() != "ATOM":
            self.error(f"expected a node, found {word!r}")
        if word == "measure":
            return self.measure()
        if word == "attach":
            return self.attach()
        if word == "merge":
            return self.merge()
        if word == "identify":
            self.next()
            return Identify(self.name("state label"))
        if word == "distinguishable":
            self.next()
            self.expect("LBRACE")
            labels = []
            while self.peek() != "RBRACE":
                labels.append(self.name("state label"))
            self.expect("RBRACE")
            if not labels:
                self.error("empty distinguishable set")
            return Distinguishable(labels)
        if word == "fail":
            self.next()
            return Fail()
        self.error(f"unknown node keyword {word!r}")

    def measure(self):
        self.keyword("measure")
        self.keyword("by")
        actor_tok = self.atom("acting party")
        actor = self.texts[actor_tok]
        if actor not in self.parties:
            self.error(f"unknown party {actor!r}", actor_tok)
        self.expect("LBRACE")
        effects = []
        rest_seen = False
        while self.peek() != "RBRACE":
            name_tok = self.atom("effect name")
            name = self.texts[name_tok]
            if name in (e.name for e in effects):
                self.error(f"duplicate effect {name!r}", name_tok)
            self.expect("EQUALS")
            if self.at_keyword("rest"):
                self.next()
                if rest_seen:
                    self.error("only one rest effect per measurement", name_tok)
                rest_seen = True
                effects.append(Effect(name, None))
            else:
                terms = [self.pexpr()]
                while self.peek() == "PLUS":
                    self.next()
                    terms.append(self.pexpr())
                effects.append(Effect(name, tuple(terms)))
        self.expect("RBRACE")
        if not effects:
            self.error("measurement needs at least one effect")
        self.keyword("outcomes")
        self.expect("LBRACE")
        children = {}
        mirrors = []  # the target token of each mirror child
        while self.peek() != "RBRACE":
            out_tok = self.atom("outcome name")
            out = self.texts[out_tok]
            if out not in (e.name for e in effects):
                self.error(f"outcome {out!r} names no effect", out_tok)
            if out in children:
                self.error(f"duplicate outcome {out!r}", out_tok)
            self.expect("ARROW")
            if self.at_keyword("mirror"):
                target_tok, children[out] = self.mirror(effects)
                mirrors.append(target_tok)
            else:
                children[out] = self.node()
        self.expect("RBRACE")
        missing = [e.name for e in effects if e.name not in children]
        if missing:
            self.error(f"non-exhaustive outcomes; missing {missing}")
        for tok in mirrors:
            if isinstance(children[self.texts[tok]], Mirror):
                self.error(f"outcome {self.texts[tok]!r} is itself a mirror", tok)
        return Measure(actor, tuple(effects), children)

    def mirror(self, effects):
        """``mirror N flip r ...``: the token of ``N`` and the child.  The
        register list ends before the next outcome's name and its arrow."""
        self.keyword("mirror")
        target_tok = self.atom("outcome name")
        target = self.texts[target_tok]
        if target not in (e.name for e in effects):
            self.error(f"mirror of {target!r}, which names no outcome", target_tok)
        self.keyword("flip")
        registers = []
        while True:
            reg_tok = self.atom("register")
            reg = self.texts[reg_tok]
            if reg not in self.dims:
                self.error(f"unknown register {reg!r}", reg_tok)
            if self.dims[reg] != 2:
                self.error(f"register {reg!r} is not a qubit (dim {self.dims[reg]})", reg_tok)
            if reg in registers:
                self.error(f"register {reg!r} flipped twice", reg_tok)
            registers.append(reg)
            if self.peek() != "ATOM" or self.kinds[self.pos + 1] == "ARROW":
                return target_tok, Mirror(target, tuple(registers))

    def pexpr(self):
        tok = self.atom("P[...] term")
        if self.texts[tok] != "P":
            self.error(f"expected 'P', found {self.texts[tok]!r}", tok)
        self.expect("LBRACK")
        factors = [self.ketlist()]
        while self.peek() == "COMMA":
            self.next()
            factors.append(self.ketlist())
        self.expect("RBRACK")
        names = [n for n, _ in factors]
        if len(set(names)) != len(names):
            self.error("register repeated inside one P[...] term", tok)
        return PTerm(tuple(factors))

    def ketlist(self):
        reg_tok = self.atom("register")
        reg = self.texts[reg_tok]
        if reg not in self.dims:
            self.error(f"unknown register {reg!r}", reg_tok)
        self.expect("COLON")
        if self.at_keyword("I"):
            self.next()
            return (reg, None)
        self.expect("LBRACE")
        out = [self.ket(reg)]
        while self.peek() == "COMMA":
            self.next()
            out.append(self.ket(reg))
        self.expect("RBRACE")
        return (reg, tuple(out))

    def ket(self, reg):
        dim = self.dims[reg]
        tok, word = self.pos, self.texts[self.pos]
        if self.peek() == "ATOM" and word.isdecimal():
            self.next()
            level = int(word)
            if level >= dim:
                self.error(f"level {level} out of range for {reg!r} (dim {dim})", tok)
            return KetExpr(level)
        if self.peek() == "LPAREN":
            self.next()
            i = self.integer("level")
            sign_tok = self.next()
            sign = self.kinds[sign_tok]
            if sign not in ("PLUS", "MINUS"):
                self.error("expected '+' or '-'", sign_tok)
            j = self.integer("level")
            self.expect("RPAREN")
            self.expect("SLASH")
            sqrt2 = self.atom("sqrt2")
            if self.texts[sqrt2] != "sqrt2":
                self.error(f"expected 'sqrt2', found {self.texts[sqrt2]!r}", sqrt2)
            if i >= dim or j >= dim:
                self.error(f"level out of range for {reg!r} (dim {dim})", tok)
            if i == j:
                self.error("superposition needs two distinct levels", tok)
            return KetExpr(i, j, 1 if sign == "PLUS" else -1)
        self.error(f"expected a ket, found {word!r}")

    def attach(self):
        self.keyword("attach")
        kind, endpoints, labels = self._resource()
        self.expect("LBRACE")
        child = self.node()
        self.expect("RBRACE")
        for lbl in labels:
            del self.dims[lbl]  # scope ends with the subtree
        return AttachResource(kind, endpoints, labels, child)

    def merge(self):
        self.keyword("merge")
        src_tok = self.atom("source party")
        self.expect("ARROW")
        dst_tok = self.atom("destination party")
        src, dst = self.texts[src_tok], self.texts[dst_tok]
        for t in (src_tok, dst_tok):
            if self.texts[t] not in self.parties:
                self.error(f"unknown party {self.texts[t]!r}", t)
        if src == dst:
            self.error("cannot merge a party into itself", src_tok)
        self.keyword("cost")
        cost_tok = self.next()
        cost = self.texts[cost_tok]
        if self.kinds[cost_tok] not in ("NUMBER", "ATOM") or not _is_number(cost):
            self.error(f"expected a cost in ebits, found {cost!r}", cost_tok)
        self.expect("LBRACE")
        saved = self.parties.pop(src)
        child = self.node()
        self.parties[src] = saved
        self.expect("RBRACE")
        return MergeParties(src, dst, float(cost), child)


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def parse(text):
    """Parse a PDL document; raises :class:`PdlError` with line/column."""
    parser = _Parser(text)
    try:
        return parser.document()
    except RecursionError:
        raise PdlError("nodes nested too deeply", *_position(text, parser.pos)) from None


# ---------------------------------------------------------------------------
# serializer

def _ket_text(k):
    if k.j is None:
        return str(k.i)
    sign = "+" if k.sign > 0 else "-"
    return f"({k.i}{sign}{k.j})/sqrt2"


def _term_text(term):
    parts = []
    for reg, ks in term.factors:
        if ks is None:
            parts.append(f"{reg}:I")
        else:
            parts.append(f"{reg}:{{{','.join(_ket_text(k) for k in ks)}}}")
    return "P[" + ", ".join(parts) + "]"


def _effect_text(e):
    if e.is_rest:
        return f"{e.name} = rest"
    return f"{e.name} = " + " + ".join(_term_text(t) for t in e.terms)


def _node_lines(node, indent):
    pad = "  " * indent
    if node is None:
        return [pad + "fail  # missing branch"]
    if isinstance(node, Identify):
        return [pad + f"identify {node.label}"]
    if isinstance(node, Distinguishable):
        labels = " ".join(sorted(node.labels))
        return [pad + f"distinguishable {{ {labels} }}"]
    if isinstance(node, Fail):
        return [pad + "fail"]
    if isinstance(node, Mirror):
        return [pad + f"mirror {node.outcome} flip {' '.join(node.registers)}"]
    if isinstance(node, AttachResource):
        head = (f"attach {node.kind}({','.join(node.endpoints)}) "
                f"as {' '.join(node.labels)} {{")
        return [pad + head] + _node_lines(node.child, indent + 1) + [pad + "}"]
    if isinstance(node, MergeParties):
        head = f"merge {node.source} -> {node.destination} cost {node.cost!r} {{"
        return [pad + head] + _node_lines(node.child, indent + 1) + [pad + "}"]
    if isinstance(node, Measure):
        lines = [pad + f"measure by {node.actor} {{"]
        for e in node.effects:
            lines.append(pad + "  " + _effect_text(e))
        lines.append(pad + "} outcomes {")
        for e in node.effects:
            child = node.children.get(e.name)
            child_lines = _node_lines(child, indent + 1)
            lines.append(pad + f"  {e.name} ->")
            # compact leaves onto the arrow line
            if len(child_lines) == 1:
                lines[-1] = pad + f"  {e.name} -> " + child_lines[0].strip()
            else:
                lines.extend(child_lines)
        lines.append(pad + "}")
        return lines
    raise TypeError(f"cannot serialize node {node!r}")


def serialize(protocol):
    """Canonical PDL text of a :class:`PdlDocument`, or of a
    :class:`~gnpb.protocols.NamedProtocol`, whose basis gives the parties."""
    if isinstance(protocol, PdlDocument):
        parties, basis = protocol.parties, protocol.basis
    else:
        parties, basis = protocol.basis().parties, protocol.basis_name
    lines = ["parties { " + " ".join(f"{p}:{d}" for p, d in parties) + " }",
             f"basis {basis}"]
    node = protocol.root
    while isinstance(node, AttachResource):
        lines.append(f"resource {node.kind}({','.join(node.endpoints)}) "
                     f"as {' '.join(node.labels)}")
        node = node.child
    lines.append("")
    lines.extend(_node_lines(node, 0))
    return "\n".join(lines) + "\n"

