"""Command-line interface: exit codes, JSON stability, file inputs."""

import json
from pathlib import Path

import pytest

from gnpb.bases import basis_IIb_33, shift_upb_opb_222
from gnpb.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "prop7")
    assert code == 0
    assert "PASS" in out


def test_verify_mismatched_basis_exit_two(capsys):
    code, out, _ = run(capsys, "verify", "prop6", "--basis", "B_IIb_33")
    assert code == 2
    assert "FAIL" in out
    assert "orthogonality" in out  # node-level diagnostic


def test_usage_error_exit_one(capsys):
    code, _, err = run(capsys, "verify", "no-such-protocol")
    assert code == 1
    assert "unknown protocol" in err


def test_parse_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "broken.pdl"
    bad.write_text("parties { A:3 }\nbasis b\nmeasure by A {")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1
    assert "parse error" in err


def test_repeated_resource_labels_fail_as_attach_label(tmp_path, capsys):
    text = (ROOT / "protocols" / "prop5_II33.pdl").read_text()
    path = tmp_path / "twice.pdl"
    path.write_text(text.replace("basis B_II_33\n", "basis B_II_33\nresource EPR(A,B) as x x\n"))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert "failure at root: attach-label: register 'x' already exists" in out
    assert "execution-error" not in out


def test_classify_text_output(capsys):
    code, out, _ = run(capsys, "classify", "B_I_43")
    assert code == 0
    assert "TypeI" in out and "witness" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "--json", "classify", "B_IIb_33")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "TypeIIb"
    assert set(doc["single_dims"]) == {"A", "B", "C"}


def test_account_prop7_value(capsys):
    code, out, _ = run(capsys, "--json", "account", "prop7")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_ebits"] == pytest.approx(2 + 8 / 27, abs=1e-9)
    assert doc["beats_baseline"] is True


def test_account_json_stable(capsys):
    _, first, _ = run(capsys, "--json", "account", "prop8")
    _, second, _ = run(capsys, "--json", "account", "prop8")
    assert first == second


def test_check_basis_json_file(tmp_path, capsys):
    path = tmp_path / "iib.json"
    path.write_text(basis_IIb_33().to_json())
    code, out, _ = run(capsys, "check-basis", str(path))
    assert code == 0
    assert "orthogonal: True" in out


def test_classify_json_file(tmp_path, capsys):
    path = tmp_path / "iib.json"
    path.write_text(basis_IIb_33().to_json())
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert "TypeIIb" in out


def test_verify_pdl_file(tmp_path, capsys):
    from gnpb import pdl
    from gnpb.protocols import get_protocol
    path = tmp_path / "p.pdl"
    path.write_text(pdl.serialize(get_protocol("prop5_II33")))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "PASS" in out


def test_tiles_command(capsys):
    code, out, _ = run(capsys, "tiles", "B_II_33", "--cut", "AB|C")
    assert code == 0
    assert "rows=A*B (9)" in out


def test_tiles_bad_cut(capsys):
    code, _, err = run(capsys, "tiles", "B_II_33", "--cut", "AB|B")
    assert code == 1


def test_list_command(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "B_IIb_33" in out and "prop7" in out


def test_check_basis_unknown(capsys):
    code, _, err = run(capsys, "check-basis", "nope")
    assert code == 1


def test_tol_override_still_passes(capsys):
    code, out, _ = run(capsys, "--tol", "1e-7", "verify", "prop5_II33")
    assert code == 0 and "PASS" in out
    # the override is scoped to one main() call: prop8's identification
    # totals miss 1 by about 1e-15, which only the tight tolerance sees
    code, out, _ = run(capsys, "--tol", "1e-15", "verify", "prop8")
    assert code == 2 and "identification" in out
    code, out, _ = run(capsys, "verify", "prop8")
    assert code == 0 and "PASS" in out


def _basis_doc(*factors):
    """A one-state 2x2x2 basis document (no states when no factors)."""
    states = [{"label": "s", "factors": list(factors)}] if factors else []
    return json.dumps({"parties": [{"name": p, "dim": 2} for p in "ABC"], "states": states})


WRONG_DIM = _basis_doc([[1, 0], [0, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]])
NAN_AMPLITUDE = _basis_doc([[float("nan"), 0], [0, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 0]])
INF_AMPLITUDE = _basis_doc([[1, 0], [0, 0]], [[1, 0], [0, float("inf")]], [[1, 0], [0, 0]])
ZERO_FACTOR = _basis_doc([[0, 0], [0, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 0]])
HUGE_AMPLITUDES = _basis_doc([[1e308, 0], [1e308, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 0]])
INT_LABEL = _basis_doc([[1, 0], [0, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 0]]).replace('"s"', "3")
REPEATED_PARTY = _basis_doc([[1, 0], [0, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 0]]).replace(
    '"B"', '"A"')


def _shift_party_a(field, value):
    """The complete 2x2x2 shift basis, with ``field`` of party A replaced."""
    doc = json.loads(shift_upb_opb_222().to_json())
    doc["parties"][0][field] = value
    return json.dumps(doc)


DIM_FLOAT, DIM_BOOL, DIM_STRING, NAME_NULL = (
    _shift_party_a("dim", 2.9), _shift_party_a("dim", True), _shift_party_a("dim", "2"),
    _shift_party_a("name", None))
DIM_ZERO = json.dumps({"parties": [{"name": "A", "dim": 0}, {"name": "B", "dim": 2},
                                   {"name": "C", "dim": 2}],
                       "states": [{"label": "s", "factors": [[], [[1, 0], [0, 0]],
                                                             [[1, 0], [0, 0]]]}]})
NO_PARTY = json.dumps({"parties": [], "states": []})
# nested past the interpreter's recursion limit: 600 measurements, 100 000 '['
DEEP_PDL = ("parties { A:2 B:2 C:2 }\nbasis shift_222\n"
            + "measure by A { E = rest } outcomes { E -> " * 600 + "fail" + " }" * 600).encode()
DEEP_JSON = "[" * 100_000
NO_PARTY_ONE_STATE = json.dumps({"parties": [], "states": [{"label": "s", "factors": []}]})
ONE_PARTY = json.dumps({"parties": [{"name": "A", "dim": 2}],
                        "states": [{"label": f"s{i}", "factors": [f]}
                                   for i, f in enumerate([[[1, 0], [0, 0]], [[0, 0], [1, 0]]])]})


@pytest.mark.parametrize("argv, document", [
    pytest.param(("classify", "bennett_3x3"), None, id="classify-bipartite"),
    pytest.param(("classify", "FILE"), _basis_doc(), id="classify-no-states"),
    pytest.param(("check-basis", "FILE"), "{not json", id="invalid-json"),
    pytest.param(("check-basis", "FILE"), WRONG_DIM, id="check-basis-wrong-dim"),
    pytest.param(("classify", "FILE"), WRONG_DIM, id="classify-wrong-dim"),
    pytest.param(("tiles", "B_II_33", "--cut", "AA|BC"), None, id="tiles-repeated-party"),
    pytest.param(("tiles", "B_II_33", "--cut", "A|BC"), None, id="tiles-two-column-parties"),
    pytest.param(("check-basis", "FILE"), NAN_AMPLITUDE, id="check-basis-nan"),
    pytest.param(("tiles", "FILE", "--cut", "AB|C"), NAN_AMPLITUDE, id="tiles-nan"),
    pytest.param(("check-basis", "FILE"), INF_AMPLITUDE, id="check-basis-inf"),
    pytest.param(("tiles", "FILE", "--cut", "AB|C"), INF_AMPLITUDE, id="tiles-inf"),
    pytest.param(("check-basis", "FILE"), ZERO_FACTOR, id="check-basis-zero-factor"),
    pytest.param(("classify", "FILE"), ZERO_FACTOR, id="classify-zero-factor"),
    pytest.param(("tiles", "FILE", "--cut", "AB|C"), ZERO_FACTOR, id="tiles-zero-factor"),
    pytest.param(("check-basis", "FILE"), HUGE_AMPLITUDES, id="check-basis-huge"),
    pytest.param(("tiles", "FILE", "--cut", "AB|C"), HUGE_AMPLITUDES, id="tiles-huge"),
    pytest.param(("tiles", "FILE", "--cut", "AB|C"), INT_LABEL, id="tiles-int-label"),
    pytest.param(("classify", "FILE"), REPEATED_PARTY, id="classify-repeated-party"),
    pytest.param(("check-basis", "FILE"), DIM_ZERO, id="check-basis-dim-zero"),
    pytest.param(("tiles", "FILE", "--cut", "AB|C"), DIM_ZERO, id="tiles-dim-zero"),
    pytest.param(("classify", "FILE"), DIM_FLOAT, id="classify-dim-float"),
    pytest.param(("check-basis", "FILE"), DIM_BOOL, id="check-basis-dim-bool"),
    pytest.param(("tiles", "FILE", "--cut", "AB|C"), DIM_STRING, id="tiles-dim-string"),
    pytest.param(("classify", "FILE"), NAME_NULL, id="classify-name-null"),
    pytest.param(("tiles", "FILE", "--cut", "|A"), ONE_PARTY, id="tiles-one-party-cut"),
    pytest.param(("tiles", "FILE"), ONE_PARTY, id="tiles-one-party"),
    pytest.param(("check-basis", "FILE"), NO_PARTY, id="check-basis-no-party"),
    pytest.param(("--json", "check-basis", "FILE"), NO_PARTY, id="json-check-basis-no-party"),
    pytest.param(("check-basis", "FILE"), NO_PARTY_ONE_STATE, id="check-basis-no-party-one-state"),
    pytest.param(("--json", "check-basis", "FILE"), NO_PARTY_ONE_STATE,
                 id="json-check-basis-no-party-one-state"),
    pytest.param(("--tol", "nan", "verify", "prop5_II33"), None, id="tol-nan"),
    pytest.param(("--tol", "-1", "verify", "prop5_II33"), None, id="tol-negative"),
    pytest.param(("--tol", "inf", "verify", "prop5_II33"), None, id="tol-inf"),
    pytest.param(("--tol", "0", "verify", "prop5_II33"), None, id="tol-zero"),
    pytest.param(("--tol", "1", "account", "prop5_II33"), None, id="tol-one"),
    pytest.param(("verify", "prop7", "--basis", "nope"), None, id="verify-unknown-basis"),
    pytest.param(("account", "prop7", "--basis", "nope"), None, id="account-unknown-basis"),
    pytest.param(("verify", "prop5_II33", "--basis", "bennett_3x3"), None,
                 id="verify-basis-wrong-parties"),
    pytest.param(("account", "prop5_II33", "--basis", "bennett_3x3"), None,
                 id="account-basis-wrong-parties"),
    pytest.param(("verify", "DIR.pdl"), None, id="verify-directory"),
    pytest.param(("account", "DIR.pdl"), None, id="account-directory"),
    pytest.param(("check-basis", "DIR.json"), None, id="check-basis-directory"),
    pytest.param(("classify", "DIR.json"), None, id="classify-directory"),
    pytest.param(("tiles", "DIR.json", "--cut", "AB|C"), None, id="tiles-directory"),
    pytest.param(("verify", "FILE"), b"parties { A:3 \xff }", id="verify-not-utf8"),
    pytest.param(("verify", "FILE"), DEEP_PDL, id="verify-deep-nesting"),
    pytest.param(("check-basis", "FILE"), DEEP_JSON, id="check-basis-deep-nesting"),
])
def test_bad_input_is_one_error_line(tmp_path, capsys, argv, document):
    # FILE holds the document (a .pdl one when given as bytes); DIR.* are directories
    path = tmp_path / ("protocol.pdl" if isinstance(document, bytes) else "basis.json")
    if isinstance(document, bytes):
        path.write_bytes(document)
    elif document is not None:
        path.write_text(document)
    for name in ("DIR.pdl", "DIR.json"):
        (tmp_path / name).mkdir()
    paths = {"FILE": path, "DIR.pdl": tmp_path / "DIR.pdl", "DIR.json": tmp_path / "DIR.json"}
    code, out, err = run(capsys, *(str(paths[a]) if a in paths else a for a in argv))
    assert code == 1 and out == ""
    # a .pdl file that does not parse is the one kind reported as a parse error
    assert err.startswith("parse error: " if document is DEEP_PDL else "error: ")
    assert err.count("\n") == 1


def test_catalogue_names_the_builders():
    from gnpb import tree
    from gnpb.bases import BUILTIN_BASES, get_basis
    from gnpb.protocols import BUILTIN_PROTOCOLS, get_protocol

    assert tuple(BUILTIN_BASES) == tree.BASIS_NAMES
    assert tuple(BUILTIN_PROTOCOLS) == tree.PROTOCOL_NAMES
    assert [get_basis(n).name for n in tree.BASIS_NAMES] == list(tree.BASIS_NAMES)
    assert [get_protocol(n).name for n in tree.PROTOCOL_NAMES] == list(tree.PROTOCOL_NAMES)


def test_tiles_on_one_party_says_why(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(ONE_PARTY)
    for cut in ((), ("--cut", "|A")):
        assert run(capsys, "tiles", str(path), *cut) == (
            1, "", "error: tiles needs at least two parties; basis one has 1\n")


MISMATCHED_PDL = """parties { A:4 B:3 }
basis bennett_3x3

measure by A {
  E = P[A:{3}]
  F = rest
} outcomes {
  E -> fail
  F -> fail
}
"""


def test_pdl_header_mismatch_exit_one(tmp_path, capsys):
    path = tmp_path / "mismatch.pdl"
    path.write_text(MISMATCHED_PDL)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "A:4 B:3" in err and "bennett_3x3" in err
    # a --basis override is checked against the header too
    good = tmp_path / "good.pdl"
    good.write_text(MISMATCHED_PDL.replace("A:4", "A:3").replace("{3}", "{2}"))
    code, _, err = run(capsys, "account", str(good), "--basis", "B_II_33")
    assert code == 1 and "B_II_33" in err


def test_out_of_range_level_is_execution_error():
    from gnpb import pdl
    from gnpb.bases import get_basis
    from gnpb.engine import verify_protocol
    doc = pdl.parse(MISMATCHED_PDL)
    report = verify_protocol(doc.root, get_basis(doc.basis), "mismatch")
    assert not report.ok
    assert any(f["kind"] == "execution-error" for f in report.failures)


def test_json_floats_have_twelve_digits(capsys):
    # the sums behind these fields carry rounding noise in the last bits
    code, out, _ = run(capsys, "--json", "account", "prop8")
    assert code == 0
    assert '"expected_uses": 0.125,' in out and '"expected_uses": 1.0,' in out
    assert "0.12499999" not in out and "0.99999999" not in out


def test_json_rounds_numpy_scalars_and_nested_lists(capsys):
    import numpy as np

    from gnpb.cli import _emit_json
    _emit_json({"x": [np.float64(1 / 3), [np.float64(-4.0715946129652257e-16)]],
                "n": np.int64(3), "ok": np.bool_(True), "f": 0.1 + 0.2})
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"x": [0.333333333333, [-4.07159461297e-16]], "n": 3, "ok": True, "f": 0.3}


def test_nan_merge_cost_fails(tmp_path, capsys):
    from pathlib import Path
    text = (Path(__file__).resolve().parent.parent / "protocols" / "prop5_II33.pdl").read_text()
    path = tmp_path / "nan_cost.pdl"
    path.write_text(text.replace("cost 1.584962500721156", "cost nan"))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert "FAIL" in out and "merge-cost" in out
