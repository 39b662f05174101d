"""Protocol description language: round trips, diagnostics, fuzzing."""

import re
from pathlib import Path

import numpy as np
import pytest

from gnpb import pdl
from gnpb.engine import materialize
from gnpb.protocols import BUILTIN_PROTOCOLS, NamedProtocol, get_protocol
from gnpb.qstate import CompositeSpace, Subsystem

FIXTURES = Path(__file__).resolve().parent.parent / "protocols"

MINIMAL = """\
parties { A:3 C:3 }
basis bennett_3x3
resource EPR(A,C) as a c

measure by C {
  N = P[C:{0,1}, c:{0}] + P[C:{2}, c:{1}]
  Nb = rest
} outcomes {
  N -> fail
  Nb -> fail
}
"""


@pytest.mark.parametrize("name", sorted(BUILTIN_PROTOCOLS))
def test_round_trip_structural_equality(name):
    proto = get_protocol(name)
    doc = pdl.parse(pdl.serialize(proto))
    assert doc.root == proto.root
    assert doc.basis == proto.basis_name
    assert doc.parties == proto.basis().parties


@pytest.mark.parametrize("name", sorted(BUILTIN_PROTOCOLS))
def test_serialize_is_canonical_fixpoint(name):
    proto = get_protocol(name)
    text = pdl.serialize(proto)
    reparsed = NamedProtocol(proto.name, proto.basis_name, proto.declared,
                             pdl.parse(text).root)
    assert pdl.serialize(reparsed) == text


@pytest.mark.parametrize("name", sorted(BUILTIN_PROTOCOLS))
def test_shipped_fixture_is_current(name):
    path = FIXTURES / f"{name}.pdl"
    assert path.exists(), f"fixture {path} missing; regenerate with demos/make_fixtures.py"
    assert path.read_text() == pdl.serialize(get_protocol(name))


def test_fixture_resource_lines():
    prop8 = (FIXTURES / "prop8.pdl").read_text()
    assert "resource GHZ(A,B,C) as a b c" in prop8
    prop7 = (FIXTURES / "prop7.pdl").read_text()
    assert len(re.findall(r"^resource EPR", prop7, re.M)) == 3


def test_parse_block_tag_effect():
    doc = pdl.parse(MINIMAL)
    node = doc.root.child  # under the EPR attach
    effect = node.effects[0]
    space = CompositeSpace([Subsystem("A", 3, "A"), Subsystem("C", 3, "C"),
                            Subsystem("a", 2, "A"), Subsystem("c", 2, "C")])
    mat = materialize(effect, space, ("C", "c"))
    expected = np.zeros((6, 6))
    for level, tag in ((0, 0), (1, 0), (2, 1)):
        idx = level * 2 + tag
        expected[idx, idx] = 1.0
    assert np.allclose(mat, expected)


def test_parsed_protocol_verifies():
    text = (FIXTURES / "prop6.pdl").read_text()
    doc = pdl.parse(text)
    proto = NamedProtocol("prop6-from-file", doc.basis, (), doc.root)
    assert proto.verify().ok


@pytest.mark.parametrize("broken,message", [
    ("", "expected keyword 'parties'"),
    ("parties { A:3 }\nbasis b\n", "expected a node"),
    ("parties { A:1 }\nbasis b\nfail", "dimension >= 2"),
    ("parties { A:3 A:3 }\nbasis b\nfail", "duplicate party"),
    ("parties { A:3 }\nbasis b\nresource EPR(A,Z) as x y\nfail", "unknown party"),
    ("parties { A:3 }\nbasis b\nmeasure by Q { E = rest } outcomes { E -> fail }",
     "unknown party"),
    ("parties { A:3 }\nbasis b\nmeasure by A { E = P[A:{7}] } outcomes { E -> fail }",
     "out of range"),
    ("parties { A:3 }\nbasis b\nmeasure by A { E = P[Z:{0}] } outcomes { E -> fail }",
     "unknown register"),
    ("parties { A:3 }\nbasis b\nmeasure by A { E = rest } outcomes { E -> fail E -> fail }",
     "duplicate outcome"),
    ("parties { A:3 }\nbasis b\nmeasure by A { E = rest F = rest } "
     "outcomes { E -> fail F -> fail }", "only one rest"),
    ("parties { A:3 }\nbasis b\nmeasure by A { E = P[A:{0}] F = rest } "
     "outcomes { E -> fail }", "non-exhaustive"),
    ("parties { A:3 }\nbasis b\nmeasure by A { E = P[A:{(0+0)/sqrt2}] } "
     "outcomes { E -> fail }", "distinct levels"),
])
def test_parse_errors_carry_position(broken, message):
    with pytest.raises(pdl.PdlError) as err:
        pdl.parse(broken)
    assert message in str(err.value)
    assert re.match(r"^\d+:\d+: ", str(err.value))


def test_lexical_error():
    with pytest.raises(pdl.PdlError):
        pdl.parse("parties { A:3 } basis b $$$")


def test_fuzz_token_deletion_never_crashes():
    text = pdl.serialize(get_protocol("prop5_II33"))
    tokens = text.split()
    rng = np.random.default_rng(99)
    crashes = 0
    for _ in range(250):
        k = int(rng.integers(len(tokens)))
        mutated = " ".join(tokens[:k] + tokens[k + 1:])
        try:
            pdl.parse(mutated)
        except pdl.PdlError:
            pass  # a diagnostic is the expected outcome
        except Exception:
            crashes += 1
    assert crashes == 0


def test_fuzz_char_corruption_never_crashes():
    text = pdl.serialize(get_protocol("shift_BC"))
    rng = np.random.default_rng(7)
    junk = "}{][()@:=,+-/ \0"
    for _ in range(250):
        i = int(rng.integers(len(text)))
        j = int(rng.integers(len(junk)))
        mutated = text[:i] + junk[j] + text[i + 1:]
        try:
            pdl.parse(mutated)
        except pdl.PdlError:
            pass


# (kind, text, line, col) of every token, recorded from the character-loop
# lexer that the compiled scanner replaced; errors as (message, line, col)
LEX_CASES = {
    "crlf-tabs-comment-at-eof": (
        "parties {\r\n\tA:2\tB:2 }\r\nbasis x # trailing comment",
        [("ATOM", "parties", 1, 1), ("LBRACE", "{", 1, 9), ("ATOM", "A", 2, 2),
         ("COLON", ":", 2, 3), ("ATOM", "2", 2, 4), ("ATOM", "B", 2, 6), ("COLON", ":", 2, 7),
         ("ATOM", "2", 2, 8), ("RBRACE", "}", 2, 10), ("ATOM", "basis", 3, 1),
         ("ATOM", "x", 3, 7), ("EOF", "", 3, 9)]),
    "numbers": (
        "cost 1e-05 1E+3 x-1 a->b 2.5e-3 1.5e+ e-1 3e-x",
        [("ATOM", "cost", 1, 1), ("ATOM", "1e-05", 1, 6), ("ATOM", "1E+3", 1, 12),
         ("ATOM", "x", 1, 17), ("MINUS", "-", 1, 18), ("ATOM", "1", 1, 19),
         ("ATOM", "a", 1, 21), ("ARROW", "->", 1, 22), ("ATOM", "b", 1, 24),
         ("NUMBER", "2.5e-3", 1, 26), ("NUMBER", "1.5e", 1, 33), ("PLUS", "+", 1, 37),
         ("ATOM", "e", 1, 39), ("MINUS", "-", 1, 40), ("ATOM", "1", 1, 41),
         ("ATOM", "3e", 1, 43), ("MINUS", "-", 1, 45), ("ATOM", "x", 1, 46),
         ("EOF", "", 1, 47)]),
    "unicode-atom": (
        "état_1 Ωmega:2 x²",
        [("ATOM", "état_1", 1, 1), ("ATOM", "Ωmega", 1, 8), ("COLON", ":", 1, 13),
         ("ATOM", "2", 1, 14), ("ATOM", "x²", 1, 16), ("EOF", "", 1, 18)]),
    "arrow-and-punctuation": (
        "M->identify{a,b}[c:(0+1)/sqrt2]=rest",
        [("ATOM", "M", 1, 1), ("ARROW", "->", 1, 2), ("ATOM", "identify", 1, 4),
         ("LBRACE", "{", 1, 12), ("ATOM", "a", 1, 13), ("COMMA", ",", 1, 14),
         ("ATOM", "b", 1, 15), ("RBRACE", "}", 1, 16), ("LBRACK", "[", 1, 17),
         ("ATOM", "c", 1, 18), ("COLON", ":", 1, 19), ("LPAREN", "(", 1, 20),
         ("ATOM", "0", 1, 21), ("PLUS", "+", 1, 22), ("ATOM", "1", 1, 23),
         ("RPAREN", ")", 1, 24), ("SLASH", "/", 1, 25), ("ATOM", "sqrt2", 1, 26),
         ("RBRACK", "]", 1, 31), ("EQUALS", "=", 1, 32), ("ATOM", "rest", 1, 33),
         ("EOF", "", 1, 37)]),
    "at-error": ("parties { A:2 }\n  basis @x", ("unexpected character '@'", 2, 9)),
    "dollar-error": ("measure\r\n\t by $", ("unexpected character '$'", 2, 6)),
}


def _tokens(text):
    kinds, texts = pdl._lex(text)
    return [(k, t, *pdl._position(text, i)) for i, (k, t) in enumerate(zip(kinds, texts))]


@pytest.mark.parametrize("case", sorted(LEX_CASES))
def test_lexer_edge_cases(case):
    text, want = LEX_CASES[case]
    if isinstance(want, list):
        assert _tokens(text) == want
        return
    message, line, col = want
    with pytest.raises(pdl.PdlError) as err:
        _tokens(text)
    assert (str(err.value), err.value.line, err.value.col) == (f"{line}:{col}: {message}",
                                                               line, col)
