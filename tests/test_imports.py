"""Each command loads only the gnpb modules it runs, and none loads ``numpy.ma``,
whose first import alone takes tens of ms (checked in a fresh process)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# runs ``code`` with argv, then prints the gnpb modules and numpy.ma if loaded
PROBE = """
import contextlib, io, json, sys
{code}
print(json.dumps(sorted(m for m in sys.modules
                        if m in ("gnpb", "numpy.ma") or m.startswith("gnpb."))))
"""
CLI = """
from gnpb.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
assert code == 0, code
"""


def loaded(code, *argv):
    proc = subprocess.run([sys.executable, "-c", PROBE.format(code=code), *argv], cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_gnpb_loads_no_submodule():
    assert loaded("import gnpb") == {"gnpb"}


def test_package_names_still_import():
    code = ("from gnpb import classify, verify_protocol, Ket\n"
            "import gnpb\n"
            "assert gnpb.classify is classify and gnpb.opm.classify is classify\n"
            "assert verify_protocol.__module__ == 'gnpb.engine' and Ket.__module__ == 'gnpb.qstate'")
    assert {"gnpb.opm", "gnpb.engine", "gnpb.qstate"} <= loaded(code)


@pytest.mark.parametrize("argv, absent", [
    (("verify", "protocols/prop7.pdl"), {"gnpb.opm", "gnpb.protocols", "numpy.ma"}),
    (("account", "protocols/remark2.pdl"), {"gnpb.opm", "gnpb.protocols", "numpy.ma"}),
    (("verify", "prop5_II33"), {"gnpb.opm", "gnpb.pdl", "numpy.ma"}),
    (("classify", "shift_222"), {"gnpb.engine", "gnpb.pdl", "gnpb.protocols", "numpy.ma"}),
    (("check-basis", "shift_222"), {"gnpb.engine", "gnpb.opm", "gnpb.pdl", "gnpb.protocols"}),
    (("tiles", "B_II_33", "--cut", "AB|C"),
     {"gnpb.engine", "gnpb.opm", "gnpb.pdl", "gnpb.protocols", "numpy.ma"}),
    (("--json", "classify", "shift_222"),
     {"gnpb.engine", "gnpb.pdl", "gnpb.protocols", "numpy.ma"}),
])
def test_command_loads_only_what_it_runs(argv, absent):
    modules = loaded(CLI, *argv)
    assert "gnpb.cli" in modules
    assert not modules & absent
