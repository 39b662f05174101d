"""Command-line interface: exit codes, JSON stability, file inputs."""

import json

import pytest

from gnpb.bases import basis_IIb_33
from gnpb.cli import main


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
    import gnpb.engine as eng
    defaults = (eng.PROB_TOL, eng.ORTHO_TOL)
    code, out, _ = run(capsys, "--tol", "1e-7", "verify", "prop5_II33")
    assert code == 0 and "PASS" in out
    # the override is scoped to one main() call
    assert (eng.PROB_TOL, eng.ORTHO_TOL) == defaults


def _basis_doc(*factors):
    """A one-state 2x2x2 basis document (no states when no factors)."""
    states = [{"label": "s", "factors": list(factors)}] if factors else []
    return json.dumps({"parties": [{"name": p, "dim": 2} for p in "ABC"], "states": states})


WRONG_DIM = _basis_doc([[1, 0], [0, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]])


@pytest.mark.parametrize("argv, document", [
    pytest.param(("classify", "bennett_3x3"), None, id="classify-bipartite"),
    pytest.param(("classify", "FILE"), _basis_doc(), id="classify-no-states"),
    pytest.param(("check-basis", "FILE"), "{not json", id="invalid-json"),
    pytest.param(("check-basis", "FILE"), WRONG_DIM, id="check-basis-wrong-dim"),
    pytest.param(("classify", "FILE"), WRONG_DIM, id="classify-wrong-dim"),
    pytest.param(("tiles", "B_II_33", "--cut", "AA|BC"), None, id="tiles-repeated-party"),
    pytest.param(("tiles", "B_II_33", "--cut", "A|BC"), None, id="tiles-two-column-parties"),
])
def test_bad_input_is_one_error_line(tmp_path, capsys, argv, document):
    path = tmp_path / "basis.json"
    if document is not None:
        path.write_text(document)
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
