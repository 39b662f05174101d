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
      Mb -> fail
    }

Effect kets are restricted to computational levels and two-term
(|i> +- |j>)/sqrt2 superpositions; a single ``rest`` effect per node
denotes identity minus the sum of its siblings.  Conditional resources and
party merges appear as ``attach ... { }`` and ``merge X -> Y cost <ebits>
{ }`` nodes in the body.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bases import RESOURCE_KINDS
from .engine import (
    AttachResource,
    Distinguishable,
    Effect,
    Fail,
    Identify,
    Measure,
    MergeParties,
    PTerm,
)
from .qstate import KetExpr


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
    "=": "EQUALS", "+": "PLUS", "-": "MINUS", "/": "SLASH",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _lex(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_." or (
                    # the signed exponent of a number, as in 1e-05
                    text[j] in "+-" and text[j - 1] in "eE" and text[i].isdigit()
                    and text[j + 1:j + 2].isdigit())):
                j += 1
            word = text[i:j]
            kind = "NUMBER" if "." in word else "ATOM"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise PdlError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, text):
        self.tokens = _lex(text)
        self.pos = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise PdlError(message, tok.line, tok.col)

    def expect(self, kind, text=None):
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind.lower()
            self.error(f"expected {want!r}, found {tok.text!r}", tok)
        return tok

    def keyword(self, word):
        tok = self.next()
        if tok.kind != "ATOM" or tok.text != word:
            self.error(f"expected keyword {word!r}, found {tok.text!r}", tok)
        return tok

    def at_keyword(self, word):
        tok = self.peek()
        return tok.kind == "ATOM" and tok.text == word

    def atom(self, what="name"):
        tok = self.next()
        if tok.kind != "ATOM":
            self.error(f"expected {what}, found {tok.text!r}", tok)
        return tok

    def integer(self, what="integer"):
        tok = self.atom(what)
        if not tok.text.isdigit():
            self.error(f"expected {what}, found {tok.text!r}", tok)
        return int(tok.text)

    # -- grammar ---------------------------------------------------------

    def document(self):
        self.keyword("parties")
        self.expect("LBRACE")
        parties = []
        while self.peek().kind != "RBRACE":
            name = self.atom("party name").text
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
        basis = self.atom("basis name").text

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
        kind = tok.text
        if kind not in RESOURCE_KINDS:
            self.error(f"unknown resource kind {kind!r}", tok)
        dims, _ = RESOURCE_KINDS[kind]
        self.expect("LPAREN")
        endpoints = [self.atom("party").text]
        while self.peek().kind == "COMMA":
            self.next()
            endpoints.append(self.atom("party").text)
        self.expect("RPAREN")
        for p in endpoints:
            if p not in self.parties:
                self.error(f"unknown party {p!r}")
        self.keyword("as")
        labels = []
        for _ in dims:
            lbl = self.atom("register label").text
            if lbl in self.dims:
                self.error(f"register {lbl!r} already exists")
            labels.append(lbl)
        if len(endpoints) != len(dims):
            self.error(f"{kind} needs {len(dims)} endpoints")
        for lbl, d in zip(labels, dims):
            self.dims[lbl] = d
        return kind, tuple(endpoints), tuple(labels)

    def node(self):
        tok = self.peek()
        if tok.kind != "ATOM":
            self.error(f"expected a node, found {tok.text!r}")
        if tok.text == "measure":
            return self.measure()
        if tok.text == "attach":
            return self.attach()
        if tok.text == "merge":
            return self.merge()
        if tok.text == "identify":
            self.next()
            return Identify(self.atom("state label").text)
        if tok.text == "distinguishable":
            self.next()
            self.expect("LBRACE")
            labels = []
            while self.peek().kind != "RBRACE":
                labels.append(self.atom("state label").text)
            self.expect("RBRACE")
            if not labels:
                self.error("empty distinguishable set")
            return Distinguishable(labels)
        if tok.text == "fail":
            self.next()
            return Fail()
        self.error(f"unknown node keyword {tok.text!r}")

    def measure(self):
        self.keyword("measure")
        self.keyword("by")
        actor_tok = self.atom("acting party")
        if actor_tok.text not in self.parties:
            self.error(f"unknown party {actor_tok.text!r}", actor_tok)
        self.expect("LBRACE")
        effects = []
        rest_seen = False
        while self.peek().kind != "RBRACE":
            name_tok = self.atom("effect name")
            if name_tok.text in (e.name for e in effects):
                self.error(f"duplicate effect {name_tok.text!r}", name_tok)
            self.expect("EQUALS")
            if self.at_keyword("rest"):
                self.next()
                if rest_seen:
                    self.error("only one rest effect per measurement", name_tok)
                rest_seen = True
                effects.append(Effect(name_tok.text, None))
            else:
                terms = [self.pexpr()]
                while self.peek().kind == "PLUS":
                    self.next()
                    terms.append(self.pexpr())
                effects.append(Effect(name_tok.text, tuple(terms)))
        self.expect("RBRACE")
        if not effects:
            self.error("measurement needs at least one effect")
        self.keyword("outcomes")
        self.expect("LBRACE")
        children = {}
        while self.peek().kind != "RBRACE":
            out_tok = self.atom("outcome name")
            if out_tok.text not in (e.name for e in effects):
                self.error(f"outcome {out_tok.text!r} names no effect", out_tok)
            if out_tok.text in children:
                self.error(f"duplicate outcome {out_tok.text!r}", out_tok)
            self.expect("ARROW")
            children[out_tok.text] = self.node()
        self.expect("RBRACE")
        missing = [e.name for e in effects if e.name not in children]
        if missing:
            self.error(f"non-exhaustive outcomes; missing {missing}")
        return Measure(actor_tok.text, tuple(effects), children)

    def pexpr(self):
        tok = self.atom("P[...] term")
        if tok.text != "P":
            self.error(f"expected 'P', found {tok.text!r}", tok)
        self.expect("LBRACK")
        factors = [self.ketlist()]
        while self.peek().kind == "COMMA":
            self.next()
            factors.append(self.ketlist())
        self.expect("RBRACK")
        names = [n for n, _ in factors]
        if len(set(names)) != len(names):
            self.error("register repeated inside one P[...] term", tok)
        return PTerm(tuple(factors))

    def ketlist(self):
        reg_tok = self.atom("register")
        reg = reg_tok.text
        if reg not in self.dims:
            self.error(f"unknown register {reg!r}", reg_tok)
        self.expect("COLON")
        if self.at_keyword("I"):
            self.next()
            return (reg, None)
        self.expect("LBRACE")
        out = [self.ket(reg)]
        while self.peek().kind == "COMMA":
            self.next()
            out.append(self.ket(reg))
        self.expect("RBRACE")
        return (reg, tuple(out))

    def ket(self, reg):
        dim = self.dims[reg]
        tok = self.peek()
        if tok.kind == "ATOM" and tok.text.isdigit():
            self.next()
            level = int(tok.text)
            if level >= dim:
                self.error(f"level {level} out of range for {reg!r} (dim {dim})", tok)
            return KetExpr(level)
        if tok.kind == "LPAREN":
            self.next()
            i = self.integer("level")
            sign_tok = self.next()
            if sign_tok.kind not in ("PLUS", "MINUS"):
                self.error("expected '+' or '-'", sign_tok)
            j = self.integer("level")
            self.expect("RPAREN")
            self.expect("SLASH")
            word = self.atom("sqrt2")
            if word.text != "sqrt2":
                self.error(f"expected 'sqrt2', found {word.text!r}", word)
            if i >= dim or j >= dim:
                self.error(f"level out of range for {reg!r} (dim {dim})", tok)
            if i == j:
                self.error("superposition needs two distinct levels", tok)
            return KetExpr(i, j, 1 if sign_tok.kind == "PLUS" else -1)
        self.error(f"expected a ket, found {tok.text!r}")

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
        for t in (src_tok, dst_tok):
            if t.text not in self.parties:
                self.error(f"unknown party {t.text!r}", t)
        if src_tok.text == dst_tok.text:
            self.error("cannot merge a party into itself", src_tok)
        self.keyword("cost")
        cost_tok = self.next()
        if cost_tok.kind not in ("NUMBER", "ATOM") or not _is_number(cost_tok.text):
            self.error(f"expected a cost in ebits, found {cost_tok.text!r}", cost_tok)
        self.expect("LBRACE")
        saved = self.parties.pop(src_tok.text)
        child = self.node()
        self.parties[src_tok.text] = saved
        self.expect("RBRACE")
        return MergeParties(src_tok.text, dst_tok.text, float(cost_tok.text), child)


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def parse(text):
    """Parse a PDL document; raises :class:`PdlError` with line/column."""
    return _Parser(text).document()


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
    """Canonical PDL text of a :class:`NamedProtocol`."""
    basis = protocol.basis()
    lines = ["parties { " + " ".join(f"{p}:{d}" for p, d in basis.parties) + " }",
             f"basis {protocol.basis_name}"]
    node = protocol.root
    while isinstance(node, AttachResource):
        lines.append(f"resource {node.kind}({','.join(node.endpoints)}) "
                     f"as {' '.join(node.labels)}")
        node = node.child
    lines.append("")
    lines.extend(_node_lines(node, 0))
    return "\n".join(lines) + "\n"

