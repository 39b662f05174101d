"""Each command loads only the gnpb modules it runs, and none loads ``numpy.ma``,
whose first import alone takes tens of ms (checked in a fresh process).
``verify``, ``account`` and ``classify`` load no ``numpy.random`` either, which
adds about 6 MB of RSS and 11-13 ms: the witness search draws its random
candidates only when no solution-space basis matrix eliminates a state.
``list``, ``--help``, usage errors, ``.pdl`` parse errors and the ``.pdl``
round trip load no numpy at all."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# runs ``code`` with argv, then prints the gnpb modules, numpy, numpy.ma and numpy.random
# if loaded
PROBE = """
import contextlib, io, json, sys
{code}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("gnpb.")
                        or m in ("gnpb", "numpy", "numpy.ma", "numpy.random"))))
"""
# the CLI with argv, which must exit with the code filled in
CLI = """
from gnpb.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # --help exits inside argparse
        code = exc.code
assert code == {exit}, code
"""


def loaded(code, *argv):
    # -B: a test run writes no bytecode into src/, which later timings would read
    proc = subprocess.run([sys.executable, "-B", "-c", PROBE.format(code=code), *argv], cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_gnpb_loads_no_submodule():
    assert loaded("import gnpb") == {"gnpb"}


def test_package_names_still_import():
    code = ("from gnpb import classify, verify_protocol, schmidt_ebits\n"
            "import gnpb\n"
            "assert gnpb.classify is classify and gnpb.opm.classify is classify\n"
            "assert verify_protocol.__module__ == 'gnpb.engine'\n"
            "assert schmidt_ebits.__module__ == 'gnpb.qstate'")
    assert {"gnpb.opm", "gnpb.engine", "gnpb.qstate"} <= loaded(code)


NO_NUMPY_EXTRAS = {"numpy.ma", "numpy.random"}


@pytest.mark.parametrize("argv, absent", [
    (("verify", "protocols/prop7.pdl"), {"gnpb.opm", "gnpb.protocols", *NO_NUMPY_EXTRAS}),
    (("account", "protocols/remark2.pdl"), {"gnpb.opm", "gnpb.protocols", *NO_NUMPY_EXTRAS}),
    # a built-in protocol is parsed from its fixture
    (("verify", "prop5_II33"), {"gnpb.opm", *NO_NUMPY_EXTRAS}),
    (("classify", "shift_222"), {"gnpb.engine", "gnpb.pdl", "gnpb.protocols", *NO_NUMPY_EXTRAS}),
    (("check-basis", "shift_222"), {"gnpb.engine", "gnpb.opm", "gnpb.pdl", "gnpb.protocols"}),
    (("tiles", "B_II_33", "--cut", "AB|C"),
     {"gnpb.engine", "gnpb.opm", "gnpb.pdl", "gnpb.protocols", "numpy.ma"}),
    (("--json", "classify", "shift_222"),
     {"gnpb.engine", "gnpb.pdl", "gnpb.protocols", *NO_NUMPY_EXTRAS}),
    # witnesses found by a basis matrix: Type I on A, Type IIa on A+B
    (("classify", "B_I_43"), {"gnpb.engine", "gnpb.pdl", "gnpb.protocols", *NO_NUMPY_EXTRAS}),
    (("classify", "B_II_43"), {"gnpb.engine", "gnpb.pdl", "gnpb.protocols", *NO_NUMPY_EXTRAS}),
])
def test_command_loads_only_what_it_runs(argv, absent):
    modules = loaded(CLI.format(exit=0), *argv)
    assert "gnpb.cli" in modules
    assert not modules & absent


@pytest.mark.parametrize("argv, code", [
    pytest.param(("list",), 0, id="list"),
    pytest.param(("--help",), 0, id="help"),
    pytest.param(("--tol", "2", "verify", "prop7"), 1, id="bad-tol"),
    pytest.param(("frobnicate",), 1, id="unknown-command"),
    pytest.param(("verify", "BROKEN.pdl"), 1, id="parse-error"),
])
def test_front_door_loads_no_numpy(tmp_path, argv, code):
    broken = tmp_path / "BROKEN.pdl"
    broken.write_text((ROOT / "protocols" / "prop8.pdl").read_text().replace("{0}", "{x}", 1))
    modules = loaded(CLI.format(exit=code), *(str(broken) if a == broken.name else a for a in argv))
    parsed = {"gnpb.pdl"} if broken.name in argv else set()
    assert modules == {"gnpb", "gnpb.cli", "gnpb.tree"} | parsed


def test_pdl_round_trip_loads_no_numpy():
    code = ("from pathlib import Path\n"
            "from gnpb import pdl\n"
            "paths = sorted(Path('protocols').glob('*.pdl'))\n"
            "assert len(paths) == 10\n"
            "for path in paths:\n"
            "    text = path.read_text()\n"
            "    assert pdl.serialize(pdl.parse(text)) == text, path\n")
    assert loaded(code) == {"gnpb", "gnpb.pdl", "gnpb.tree"}
