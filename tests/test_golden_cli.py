"""Byte-for-byte CLI reports of every built-in protocol, against a golden file.

``golden_cli.json`` maps each command line to its exit code and stdout:
``verify`` and ``account``, text and ``--json``, of the ten built-in
protocols and of the three runs that must fail.  A change to the walk's
arithmetic must leave every byte alone.  After a deliberate change to a
report, regenerate the file with ``PYTHONPATH=src python tests/test_golden_cli.py``
and review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from gnpb.cli import main
from gnpb.protocols import BUILTIN_PROTOCOLS

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
FAILING = (("prop6", "B_IIb_33"), ("prop7", "B_II_33"), ("prop8", "B_I_43"))
TARGETS = [(name,) for name in BUILTIN_PROTOCOLS] + [
    (name, "--basis", basis) for name, basis in FAILING
]
ARGVS = [
    fmt + [cmd, *target]
    for target in TARGETS
    for cmd in ("verify", "account")
    for fmt in ([], ["--json"])
]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return [code, out.getvalue()]


def test_golden_covers_every_command():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(a) for a in ARGVS)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    doc = {" ".join(argv): run(argv) for argv in ARGVS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
