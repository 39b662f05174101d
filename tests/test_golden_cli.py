"""Byte-for-byte CLI reports of every built-in protocol, against a golden file.

``golden_cli.json`` maps each command line to its exit code and stdout:
``verify`` and ``account``, text and ``--json``, of the ten built-in
protocols and of the three runs that must fail, ``verify`` of five of
them under a tight and a loose ``--tol`` (at 1e-15 ``prop8`` fails its
identification totals), and ``verify`` (text and ``--json``) and
``account`` of the ten ``protocols/*.pdl`` files, keyed by their path
relative to the repository root, and ``list``.  A change to the walk's arithmetic must
leave every byte alone.  After a deliberate change to a report, regenerate
the file with ``PYTHONPATH=src python tests/test_golden_cli.py`` and review
the diff.

Four more guards pin what no report prints: a digest of every leaf
strategy the thirteen golden ``verify`` runs find, the ``parse error``
line of a few broken ``.pdl`` documents, the ``error`` line of a few
argparse usage errors, and digests of the reports and
strategies of two protocols on rotated bases, whose states have no zero
amplitude.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gnpb.bases import OrthoProductBasis, ProductState, get_basis
from gnpb.cli import main
from gnpb.engine import verify_protocol
from gnpb.protocols import BUILTIN_PROTOCOLS, get_protocol

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_cli.json"
FAILING = (("prop6", "B_IIb_33"), ("prop7", "B_II_33"), ("prop8", "B_I_43"))
TARGETS = [(name,) for name in BUILTIN_PROTOCOLS] + [
    (name, "--basis", basis) for name, basis in FAILING
]
TOL_TARGETS = [("prop7",), ("prop8",), ("remark2",), ("typeI_43",),
               ("prop6", "--basis", "B_IIb_33")]
FIXTURES = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "protocols").glob("*.pdl"))
ARGVS = [
    fmt + [cmd, *target]
    for target in TARGETS
    for cmd in ("verify", "account")
    for fmt in ([], ["--json"])
] + [
    ["--tol", tol, *fmt, "verify", *target]
    for tol in ("1e-15", "1e-3")
    for target in TOL_TARGETS
    for fmt in ([], ["--json"])
] + [
    argv + [fixture]
    for fixture in FIXTURES
    for argv in (["verify"], ["--json", "verify"], ["account"])
] + [["list"]]


def run(argv):
    out = io.StringIO()
    argv = [str(ROOT / a) if a.endswith(".pdl") else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, out.getvalue()]


def test_golden_covers_every_command():
    assert len(FIXTURES) == 10
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(a) for a in ARGVS)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert run(argv) == golden[" ".join(argv)]


# sha256 (first 16 hex digits) of every (path, labels, strategy text) that
# the golden verify runs record in ``leaf_strategies``, in walk order
STRATEGY_DIGESTS = {
    "prop5_II33": "2455ce798acf3e57",
    "prop5_IIb33": "ea2a443e079b4a8d",
    "prop6": "2d8b0b554db2de74",
    "prop6@B_IIb_33": "e3b0c44298fc1c14",
    "prop7": "0f2df31b0374ff65",
    "prop7@B_II_33": "e3b0c44298fc1c14",
    "prop8": "141b5ac857f7ef9b",
    "prop8@B_I_43": "d3b7b19f8e41e65f",
    "remark2": "e2b9b20e7c09979e",
    "shift_AB": "59528a851d0f5aa1",
    "shift_BC": "1e738f5bf6a5d254",
    "shift_CA": "860c8712201905d8",
    "typeI_43": "26cb8d44be5b84c0",
}


def strategy_digest(name, basis=None):
    proto = get_protocol(name)
    report = verify_protocol(proto.root, get_basis(basis) if basis else proto.basis(), name)
    text = "\n".join(f"{path}|{' '.join(labels)}\n{strategy.text()}"
                     for path, labels, strategy in report.leaf_strategies)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(STRATEGY_DIGESTS))
def test_leaf_strategies_match_digest(key):
    name, _, basis = key.partition("@")
    assert strategy_digest(name, basis or None) == STRATEGY_DIGESTS[key]


def _rotated(basis, angle, seed=7):
    """``basis`` with every party's factors turned by ``exp(i angle H)``,
    ``H`` a seeded random Hermitian matrix: a local unitary, so the copy is
    still an orthogonal product basis, and no joint amplitude is zero."""
    rng = np.random.default_rng(seed)
    turns = []
    for _, d in basis.parties:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        w, v = np.linalg.eigh(g + g.conj().T)
        turns.append((v * np.exp(1j * angle * w)) @ v.conj().T)
    return OrthoProductBasis(basis.name, basis.parties, [
        ProductState(s.label, tuple(u @ f for u, f in zip(turns, s.factors)))
        for s in basis.states])


# sha256 (first 16 hex digits) of the ``to_dict`` JSON and the strategy texts
# of a walk on a rotated basis, where no basis state has a zero amplitude: a
# full turn (angle 1) fails at the first orthogonality checks, a slight one
# (angle 1e-3) under ``tol`` 1e-3 reaches the leaves and the ledger.  An
# orthogonality failure is pinned by its node and overlap, not by the pair it
# names: these digests date from when the pair was the Gram argmax, which on
# the full turn (several pairs overlap 1 to within rounding) depended on the
# last bits of a BLAS Gram sum.  The walk now names the first pair, in
# candidate order, that breaks the bound, and prints that pair's overlap.
DENSE_SUPPORT_DIGESTS = {
    ("prop6", 1.0, 1e-9): "838321ffa4b72b43",
    ("prop6", 1e-3, 1e-3): "5b4f4c0a2d29db27",
    ("prop5_II33", 1.0, 1e-9): "1d3ebdcea568a460",
    ("prop5_II33", 1e-3, 1e-3): "7ca7d9a3acac7f5e",
}


def dense_support_digest(name, angle, tol):
    proto = get_protocol(name)
    basis = _rotated(proto.basis(), angle)
    assert np.all(basis.joint_matrix() != 0)
    report = verify_protocol(proto.root, basis, name, tol)
    doc = report.to_dict()
    for f in doc["failures"]:
        if f["kind"] == "orthogonality":
            f["detail"] = f["detail"].rpartition(" overlap ")[2]
    text = json.dumps(doc) + "".join(
        f"\n{path}|{' '.join(labels)}\n{strategy.text()}"
        for path, labels, strategy in report.leaf_strategies)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(DENSE_SUPPORT_DIGESTS), ids=str)
def test_dense_support_reports_are_pinned(case):
    assert dense_support_digest(*case) == DENSE_SUPPORT_DIGESTS[case]


def _broken(fixture, old, new, count=1):
    text = (ROOT / "protocols" / fixture).read_text()
    assert text.count(old) >= count
    return text.replace(old, new, count)


# the stderr line of ``gnpb verify`` on a broken document (exit code 1)
PARSE_ERRORS = {
    "bad-character": (lambda: _broken("prop5_II33.pdl", "K2 = P[A:{1}", "K2 = P[A:{1@"),
                      "parse error: 13:20: unexpected character '@'\n"),
    "missing-brace": (lambda: _broken("prop7.pdl", "\n}\n", "\n"),
                      "parse error: 267:1: expected outcome name, found ''\n"),
    "bad-ket": (lambda: _broken("prop8.pdl", "{0}", "{x}"),
                "parse error: 6:21: expected a ket, found 'x'\n"),
    "bad-superposition": (lambda: _broken("remark2.pdl", "{(0+1)/sqrt2}", "{(0+1)/sqrt3}"),
                          "parse error: 30:31: expected 'sqrt2', found 'sqrt3'\n"),
    "level-out-of-range": (lambda: _broken("prop8.pdl", "{0}", "{7}"),
                           "parse error: 6:21: level 7 out of range for 'b' (dim 2)\n"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_line_is_pinned(tmp_path, capsys, case):
    make, want = PARSE_ERRORS[case]
    path = tmp_path / "broken.pdl"
    path.write_text(make())
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", want)


# the stderr line of an argparse usage error (exit code 1)
USAGE_ERRORS = {
    "bad-tol": (["--tol", "2", "verify", "prop7"],
                "error: argument --tol: tolerance must lie in (0, 1), got 2\n"),
    "unknown-command": (["frobnicate"],
                        "error: argument command: invalid choice: 'frobnicate' (choose from "
                        "'check-basis', 'classify', 'verify', 'account', 'tiles', 'list')\n"),
    "verify-no-protocol": (["verify"],
                           "error: the following arguments are required: protocol\n"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_line_is_pinned(capsys, case):
    argv, want = USAGE_ERRORS[case]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", want)


if __name__ == "__main__":
    doc = {" ".join(argv): run(argv) for argv in ARGVS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
