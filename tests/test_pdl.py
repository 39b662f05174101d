"""Protocol description language: round trips, diagnostics, fuzzing."""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnpb import pdl
from gnpb.engine import conjugate_tree, materialize
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
    assert path.exists(), f"fixture {path} missing"
    assert path.read_text() == pdl.serialize(get_protocol(name))


#: sha256 of each fixture with every mirror outcome written out, as the
#: fixtures were shipped before mirror outcomes existed
EXPANDED_SHA256 = {
    "prop5_II33": "bd6b81e930a842302f900dbd009412be1feb3636716c1a3f780bd7116742db57",
    "prop5_IIb33": "58340ff8309d79741ce8f62b2ceb12d577fb1edc12231e05f0e80c955cfbac43",
    "prop6": "753ce73a19b3f418bbecfbf72b3d0a4b56ec979d4a38261a24631f61f2c9cf8d",
    "prop7": "b371304cf72664775ffcc180dce27ad86ee5defd2893ce878143e3bddaab43f2",
    "prop8": "aa7c3f09f674c770afcfcd7383f1f393c25f92e9504f8e67d19e25a507485fbb",
    "remark2": "60cec43ba0356edba47ab02b8cc65f4fd31d2e68f18c08c0ec7a1b6bce92d354",
    "typeI_43": "0a9cd7c05b3407d745874ef0b9398d922950229b0af89247f530a5d2eca26e50",
    "shift_BC": "4038e2a721fbac54e81ace32ff84870a9023c0ec959dcf817fffa12a02d5eae2",
    "shift_AB": "c93c7489cc27f9d2229b30759cb6784c55974b30085590e122de2e5721d7e363",
    "shift_CA": "14e93b21aa7898ba0cd681824163909aacd5fb9b5e9dce5d1d604a54e4982b38",
}


@pytest.mark.parametrize("name", sorted(BUILTIN_PROTOCOLS))
def test_expanded_fixture_is_pinned(name):
    proto = get_protocol(name)
    expanded = NamedProtocol(name, proto.basis_name, proto.declared,
                             conjugate_tree(proto.root, {}))
    text = pdl.serialize(expanded)
    assert "mirror" not in text
    assert hashlib.sha256(text.encode()).hexdigest() == EXPANDED_SHA256[name]


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


# a measurement whose outcomes block each case below completes
MIRRORED = ("parties { A:3 B:2 }\nbasis b\nresource EPR(A,B) as a b\n"
            "measure by A { E = P[A:{0}] F = rest } outcomes {\n")


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
    # str.isdigit holds for "²", but int() reads only decimal digits
    ("parties { A:² }\nbasis b\nfail", "expected dimension, found '²'"),
    ("parties { A:3 }\nbasis b\nmeasure by A { E = P[A:{²}] } outcomes { E -> fail }",
     "expected a ket, found '²'"),
    # mirror outcomes, each error at the offending token's line and column
    (MIRRORED + "  E -> fail F -> mirror Z flip a\n}", "5:25: mirror of 'Z', which names no outcome"),
    (MIRRORED + "  E -> mirror F flip a\n  F -> mirror E flip a\n}",
     "5:15: outcome 'F' is itself a mirror"),
    (MIRRORED + "  E -> fail F -> mirror F flip a\n}", "5:25: outcome 'F' is itself a mirror"),
    (MIRRORED + "  E -> fail F -> mirror E flip a z\n}", "5:34: unknown register 'z'"),
    (MIRRORED + "  E -> fail F -> mirror E flip A\n}", "5:32: register 'A' is not a qubit (dim 3)"),
    (MIRRORED + "  E -> fail\n  F -> mirror E flip b b\n}", "6:24: register 'b' flipped twice"),
    (MIRRORED + "  E -> fail F -> mirror E flip\n}", "6:1: expected register, found '}'"),
    ("parties { A:3 }\nbasis b\nmirror E flip A", "3:1: unknown node keyword 'mirror'"),
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
    # pinned under the scanner's own rule: a sign stays inside a word only
    # between an e or E and a decimal digit, in a word that starts with a
    # decimal digit, and ``float`` takes no other digit ("²".isdigit() holds)
    "non-decimal-digit": (
        "²e-1",
        [("ATOM", "²e", 1, 1), ("MINUS", "-", 1, 3), ("ATOM", "1", 1, 4),
         ("EOF", "", 1, 5)]),
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


_BETWEEN_TOKENS = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.text(st.sampled_from(list("09eE+-._xP{}[]():,=/># \t\r\n²é$")), max_size=30))
def test_lexer_positions_point_at_their_tokens(text):
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]

    def offset(line, col):
        return line_starts[line - 1] + col - 1

    try:
        kinds, texts = pdl._lex(text)
    except pdl.PdlError as err:
        assert str(err).endswith(f"unexpected character {text[offset(err.line, err.col)]!r}")
        return
    end = 0
    for i, token in enumerate(texts):
        start = offset(*pdl._position(text, i))
        assert text.startswith(token, start)
        assert _BETWEEN_TOKENS.fullmatch(text, end, start)
        end = start + len(token)
    # past EOF lies at most a comment on the last line
    assert kinds[-1] == "EOF" and _BETWEEN_TOKENS.fullmatch(text, end)
