"""Byte-for-byte reports of the classification path, against a golden file.

``golden_classify.json`` maps each command line to its exit code and
stdout: ``check-basis`` and ``tiles`` (text and ``--json``) of the six
built-in bases, and ``classify`` (text and ``--json``) of the five
tripartite ones.  A change to how basis arrays or OPM constraints are
computed must leave every byte alone.  After a deliberate change to a
report, regenerate the file with
``PYTHONPATH=src python tests/test_golden_classify.py`` and review the diff.

The reports round their floats, so a digest of the unrounded
``check_basis(...).to_dict()`` and ``classify(...).to_dict()`` of
Haar-rotated copies (read back from JSON, so no amplitude is zero) pins
their last bits too.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gnpb.bases import BUILTIN_BASES, OrthoProductBasis, ProductState, check_basis, get_basis
from gnpb.cli import main
from gnpb.opm import classify

GOLDEN = Path(__file__).resolve().parent / "golden_classify.json"
TRIPARTITE = [name for name in BUILTIN_BASES if len(get_basis(name).parties) == 3]
CUTS = {name: "AB|C" if name in TRIPARTITE else "A|B" for name in BUILTIN_BASES}
ARGVS = [
    fmt + cmd
    for name in BUILTIN_BASES
    for cmd in (["check-basis", name], ["tiles", name, "--cut", CUTS[name]])
    for fmt in ([], ["--json"])
] + [fmt + ["classify", name] for name in TRIPARTITE for fmt in ([], ["--json"])]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, out.getvalue()]


def test_golden_covers_every_command():
    assert len(TRIPARTITE) == 5
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(a) for a in ARGVS)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert run(argv) == golden[" ".join(argv)]


def _haar(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(name, seed):
    """``name`` after one seeded Haar-random unitary per party, as read from JSON."""
    basis = get_basis(name)
    rng = np.random.default_rng(seed)
    turns = [_haar(rng, d) for _, d in basis.parties]
    turned = OrthoProductBasis(name, basis.parties, [
        ProductState(s.label, tuple(u @ f for u, f in zip(turns, s.factors)))
        for s in basis.states])
    return OrthoProductBasis.from_json(turned.to_json(), name=name)


def report_digest(basis):
    """sha256 (first 16 hex digits) of the unrounded reports, floats by repr."""
    docs = [check_basis(basis).to_dict()]
    if len(basis.parties) == 3:
        docs.append(classify(basis).to_dict())
    text = json.dumps(docs, default=lambda x: x.item())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


BUILTIN_DIGESTS = {
    'bennett_3x3': '4c9c1ac0db51ef92',
    'B_I_43': '18307e995a525453',
    'B_II_43': 'ce8a583be40df9f5',
    'B_II_33': 'ef82e729a60a2738',
    'B_IIb_33': 'e3e422b947a443ab',
    'shift_222': 'a0bc4f8dac8f2244',
}

# (name, seed) -> digest of the rotated copy
ROTATED_DIGESTS = {
    ('bennett_3x3', 3): '11485a6fd1fa597c',
    ('B_I_43', 3): '1229862cdcc71ccc',
    ('B_II_43', 3): 'a7f51a5718b22edc',
    ('B_II_33', 3): 'f5be20fd281b74c7',
    ('B_IIb_33', 3): '339d68046a48c80e',
    ('shift_222', 3): '88b46ccdc54e6f4b',
    ('bennett_3x3', 11): '43b201206839c0a7',
    ('B_I_43', 11): '13572110d9e36060',
    ('B_II_43', 11): '6b61dcde131d8cbf',
    ('B_II_33', 11): '8bf327a1e46897af',
    ('B_IIb_33', 11): '42f9d971add984df',
    ('shift_222', 11): 'abef158a797ea5d9',
    ('bennett_3x3', 601): '9572bc4305b19eab',
    ('B_I_43', 601): '6a3d4767fa8d224b',
    ('B_II_43', 601): '911d2c95a84c5cfa',
    ('B_II_33', 601): 'd566f6636fbc5a47',
    ('B_IIb_33', 601): '7bd6c0ce17728786',
    ('shift_222', 601): '646743b0333b7cde',
}


@pytest.mark.parametrize("name", sorted(BUILTIN_DIGESTS))
def test_builtin_reports_are_pinned(name):
    assert report_digest(get_basis(name)) == BUILTIN_DIGESTS[name]


@pytest.mark.parametrize("case", sorted(ROTATED_DIGESTS), ids=str)
def test_rotated_reports_are_pinned(case):
    assert report_digest(rotated(*case)) == ROTATED_DIGESTS[case]


if __name__ == "__main__":
    doc = {" ".join(argv): run(argv) for argv in ARGVS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
