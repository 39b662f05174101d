"""The benchmark's four workloads: seeded inputs, requests and their checks.

``SETUP[workload](seed)`` imports gnpb and builds the inputs, so calling
it first thing in a fresh process measures set-up as a user pays it.  It
returns a ``Workload``: the fixed request list, a warm-up request, and the
set-up checks (fixture bytes) that count as attempted requests too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import answer_key

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CLASSIFY_BASES = ("B_I_43", "B_II_43", "B_II_33", "B_IIb_33", "shift_222")
# One BLAS thread, a fixed hash seed, and glibc's mmap threshold fixed at
# its default 128 KiB: left dynamic, the threshold made peak RSS on
# classify_rotated depend on address layout (74, 85 or 94 MB for one input).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": "131072",
}

# what the installed ``gnpb`` script runs
GNPB = "import sys; from gnpb.cli import main; sys.exit(main())"
GNPB_TRACED = "import sys; from tracing import run_cli_traced; sys.exit(run_cli_traced(sys.argv[1], sys.argv[2:]))"


def child_env():
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    return env


@dataclass
class Request:
    label: str
    run: object      # () -> answer
    check: object    # answer -> None | mismatch text
    traced_run: object = None  # (span file) -> answer; cli requests only


@dataclass
class Workload:
    name: str
    requests: list
    warmup: Request
    setup_errors: list = field(default_factory=list)
    setup_checks: int = 0


def haar_unitary(rng, d):
    """Haar-random d x d unitary (QR of a complex Gaussian, phases fixed)."""
    import numpy as np

    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_json(basis, rng):
    """JSON text of ``basis`` after one Haar-random unitary on each party."""
    from gnpb.bases import OrthoProductBasis, ProductState

    us = [haar_unitary(rng, d) for _, d in basis.parties]
    states = [ProductState(st.label, tuple(u @ f for u, f in zip(us, st.factors)))
              for st in basis.states]
    return OrthoProductBasis(basis.name, basis.parties, states).to_json()


def _classify_request(name, load, label=None):
    from gnpb import bases, opm

    def run():
        b = load()
        return bases.check_basis(b), opm.classify(b)

    return Request(label or name, run, lambda ans: answer_key.check_classify(name, *ans))


def _classify_builtin(seed):
    from gnpb import bases

    inputs = {name: bases.get_basis(name) for name in CLASSIFY_BASES}
    reqs = [_classify_request(name, lambda b=inputs[name]: b) for name in CLASSIFY_BASES]
    return Workload("classify_builtin", reqs, reqs[-1])


def _classify_rotated(seed):
    import numpy as np
    from gnpb import bases

    rng = np.random.default_rng(seed)
    texts = {name: rotated_json(bases.get_basis(name), rng) for name in CLASSIFY_BASES}

    def load(name):
        return lambda: bases.OrthoProductBasis.from_json(texts[name], name=name)

    reqs = [_classify_request(name, load(name)) for name in CLASSIFY_BASES]
    return Workload("classify_rotated", reqs, reqs[-1])


def _verify_mixed(seed):
    from gnpb import bases, pdl, protocols

    protos = {name: protocols.get_protocol(name) for name in answer_key.LEDGERS}
    targets = {answer_key.LEDGERS[n][0] for n in protos} | {b for _, b in answer_key.FAILING}
    basis = {name: bases.get_basis(name) for name in sorted(targets)}

    errors = []
    for name, proto in protos.items():
        text = (ROOT / "protocols" / f"{name}.pdl").read_text()
        doc = pdl.parse(text)
        if pdl.serialize(proto) != text:
            errors.append(f"serialize({name}) differs from protocols/{name}.pdl")
        parsed = protocols.NamedProtocol(name, doc.basis, (), doc.root)
        if pdl.serialize(parsed) != text:
            errors.append(f"protocols/{name}.pdl does not serialize back to itself")

    def passing(name):
        proto = protos[name]
        b = basis[proto.basis_name]
        return Request(name, lambda: proto.verify(b),
                       lambda report: answer_key.check_verify(name, report))

    def failing(name, target):
        proto, b = protos[name], basis[target]
        return Request(f"{name}@{target}", lambda: proto.verify(b),
                       lambda report: answer_key.check_failure(name, target, report))

    reqs = [passing(name) for name in protos]
    reqs += [failing(name, target) for name, target in answer_key.FAILING]
    warmup = next(r for r in reqs if r.label == "shift_BC")
    return Workload("verify_mixed", reqs, warmup, errors, 2 * len(protos))


def run_gnpb(argv, code=GNPB, extra=()):
    """One ``gnpb`` process; returns (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-c", code, *extra, *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=150)
    return proc.returncode, proc.stdout


def _cli(seed):
    missing = [a for argv, _, _ in answer_key.CLI_MIX for a in argv
               if a.endswith(".pdl") and not (ROOT / a).is_file()]
    if missing:
        raise FileNotFoundError(f"fixtures missing: {missing}")
    reqs = []
    for argv, want, check in answer_key.CLI_MIX:
        label = " ".join(argv)
        reqs.append(Request(
            label,
            lambda argv=argv: run_gnpb(argv),
            lambda ans, argv=argv, want=want, check=check:
                answer_key.check_cli(argv, ans[0], ans[1], want, check),
            lambda path, argv=argv: run_gnpb(argv, GNPB_TRACED, (str(path),)),
        ))
    return Workload("cli", reqs, reqs[0])


SETUP = {
    "classify_builtin": _classify_builtin,
    "classify_rotated": _classify_rotated,
    "verify_mixed": _verify_mixed,
    "cli": _cli,
}


def probe_requests():
    """Cheap library requests that measure the layers a workload leaves idle."""
    from gnpb import bases, pdl, protocols

    text = bases.get_basis("shift_222").to_json()
    proto = protocols.get_protocol("prop5_II33")
    fixture = (ROOT / "protocols" / "prop5_II33.pdl").read_text()
    return [
        _classify_request("shift_222",
                          lambda: bases.OrthoProductBasis.from_json(text, name="shift_222"),
                          "shift_222.json"),
        Request("prop5_II33", lambda: protocols.get_protocol("prop5_II33").verify(),
                lambda report: answer_key.check_verify("prop5_II33", report)),
        Request("prop5_II33.pdl", lambda: (pdl.parse(fixture), pdl.serialize(proto)),
                lambda ans: None if ans[1] == fixture else "prop5_II33.pdl differs"),
    ]


#: ``gnpb`` commands timed for the cli.* layer figures on library workloads
CLI_PROBE = (
    ("list",),
    ("check-basis", "shift_222"),
    ("tiles", "shift_222", "--cut", "AB|C"),
    ("classify", "shift_222"),
    ("verify", "prop5_II33"),
    ("account", "prop5_II33"),
)
