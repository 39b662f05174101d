"""Tests of the benchmark itself: the rotation generator and faithful tracing.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import answer_key  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gnpb import bases, engine, opm, protocols  # noqa: E402


@pytest.mark.parametrize("seed", [3, 11])
def test_rotated_bases_keep_verdicts_dims_and_witnesses(seed):
    wl = workloads.SETUP["classify_rotated"](seed)
    for req in wl.requests:
        report, cert = req.run()
        assert answer_key.check_classify(req.label, report, cert) is None
        if answer_key.CLASSIFY[req.label][3] is not None:
            assert cert.witness is not None and any(cert.witness.eliminated)


def test_rotation_is_seeded_and_leaves_the_builtin_structure():
    b = bases.get_basis("B_IIb_33")
    text = workloads.rotated_json(b, np.random.default_rng(5))
    assert text == workloads.rotated_json(b, np.random.default_rng(5))
    assert text != workloads.rotated_json(b, np.random.default_rng(6))
    rotated = bases.OrthoProductBasis.from_json(text)
    # generic complex amplitudes: no factor keeps the built-in's zero pattern
    assert all(np.count_nonzero(np.abs(f) < 1e-12) == 0
               for st in rotated.states for f in st.factors)


def test_answer_key_rejects_a_wrong_answer():
    cert = opm.classify(bases.get_basis("shift_222"))
    report = bases.check_basis(bases.get_basis("shift_222"))
    assert answer_key.check_classify("shift_222", report, cert) is None
    assert answer_key.check_classify("B_II_43", report, cert) is not None
    verified = protocols.get_protocol("shift_BC").verify()
    assert answer_key.check_verify("shift_BC", verified) is None
    assert answer_key.check_verify("shift_AB", verified) is not None


def _answers():
    report = protocols.get_protocol("prop5_II33").verify()
    cert = opm.classify(bases.get_basis("shift_222"))
    return (report.ok, report.n_measurements, report.ledger.total_ebits,
            cert.verdict, tuple(cert.merged_dims.values()))


def test_traced_calls_reach_the_same_answers_through_every_binding():
    originals = (engine.verify_protocol, protocols.verify_protocol, protocols.get_basis,
                 bases.CompositeSpace.split_axes, np.linalg.svd)
    plain = _answers()
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed(), tracer.request_span("r"):
            assert _answers() == plain
            # names imported by name elsewhere are re-bound too
            assert protocols.verify_protocol is engine.verify_protocol
            assert protocols.verify_protocol is not originals[0]
        metrics = tracing.layer_metrics(tracer.spans)["r"]
        counts.append({k: v for k, v in metrics.items()
                       if tracing.SPAN_METRICS[k] != "s"})
    assert (engine.verify_protocol, protocols.verify_protocol, protocols.get_basis,
            bases.CompositeSpace.split_axes, np.linalg.svd) == originals
    assert counts[0] == counts[1]
    # NamedProtocol.verify reached the wrapped verify_protocol and get_basis
    assert counts[0]["engine.measurements"] == plain[1]
    assert counts[0]["opm.opm_solution_space.calls"] == 7
    assert counts[0]["engine.conjugate_tree.calls"] >= 1


def test_self_time_subtracts_direct_children():
    spans = [
        ("request", 0.0, 10.0, -1, "r", None),
        ("engine.verify_protocol", 1.0, 9.0, 0, "r", (5, 7)),
        ("engine.leaf_verify", 2.0, 5.0, 1, "r", None),
        ("svd", 3.0, 4.0, 2, "r", 4),
        ("engine.materialize", 6.0, 8.0, 1, "r", None),
        ("engine.materialize", 6.5, 7.0, 4, "r", None),
    ]
    m = tracing.layer_metrics(spans)["r"]
    assert m["engine.verify_protocol.s"] == 8.0
    assert m["engine.walk.self_s"] == 3.0
    assert m["engine.svd.calls"] == 1 and m["engine.svd.s"] == 1.0
    assert m["engine.materialize.calls"] == 2 and m["engine.materialize.s"] == 2.0
    assert (m["engine.measurements"], m["engine.leaves"]) == (5, 7)


def test_traced_cli_process_writes_spans(tmp_path):
    path = tmp_path / "spans.jsonl"
    code, out = workloads.run_gnpb(("verify", "shift_BC"), workloads.GNPB_TRACED, (str(path),))
    assert code == 0 and "PASS" in out
    metrics = tracing.layer_metrics(tracing.load_spans(path))[0]
    assert metrics["engine.measurements"] == protocols.get_protocol("shift_BC").verify().n_measurements
    assert metrics["protocols.get_protocol.s"] > 0
