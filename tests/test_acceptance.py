"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

from math import log2

import numpy as np
import pytest

from gnpb import pdl
from gnpb.bases import get_basis
from gnpb.engine import leaf_verify, verify_protocol
from gnpb.opm import classify, find_eliminating_opm, opm_solution_space
from gnpb.protocols import BUILTIN_PROTOCOLS, get_protocol

from .helpers import joint_kets, resource_cuts_per_path

TOL = 1e-9

_EQ3_SET = {f"3_{n}" for n in
            ("0ep", "0em", "ep2", "em2", "2xp", "2xm", "xp0", "xm0", "11")} \
    | {"303", "313", "323", "330", "331", "332", "333"}


def _report(number, name, ok):
    print(f"[ACCEPTANCE] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_basis_integrity():
    from gnpb.bases import check_basis
    expected = {"bennett_3x3": 9, "B_I_43": 64, "B_II_43": 64,
                "B_II_33": 27, "B_IIb_33": 27, "shift_222": 8}
    ok = True
    for name, count in expected.items():
        rep = check_basis(get_basis(name))
        ok &= rep.cardinality == count
        ok &= rep.max_overlap < TOL
        ok &= rep.completeness_rank == rep.total_dim
    _report(1, "basis integrity", ok)


def test_criterion_2_classification():
    ok = True
    cert = classify(get_basis("B_I_43"))
    ok &= cert.verdict == "TypeI"
    w = cert.witness
    ok &= w is not None and len(w.effects) == 2
    p3 = np.zeros((4, 4), dtype=complex)
    p3[3, 3] = 1.0
    deltas = [float(np.max(np.abs(e - p3))) for e in w.effects]
    k = int(np.argmin(deltas))
    ok &= deltas[k] < 1e-8
    ok &= float(np.max(np.abs(w.effects[1 - k] - (np.eye(4) - p3)))) < 1e-8
    ok &= set(w.survivors[k]) == _EQ3_SET

    for name in ("B_II_43", "B_II_33", "B_IIb_33"):
        basis = get_basis(name)
        for p in "ABC":
            ok &= opm_solution_space(basis, (p,)).dim == 1
    iib = get_basis("B_IIb_33")
    for g in (("A", "B"), ("A", "C"), ("B", "C")):
        ok &= opm_solution_space(iib, g).dim == 1
    ok &= classify(iib).verdict == "TypeIIb"
    ii43 = classify(get_basis("B_II_43"))
    ok &= ii43.verdict == "TypeIIa"
    ok &= any(d > 1 for d in ii43.merged_dims.values())
    _report(2, "classification", ok)


def test_criterion_3_protocol_ledgers():
    ok = True
    for name in ("prop5_II33", "prop5_IIb33"):
        proto = get_protocol(name)
        rep = proto.verify()
        ok &= rep.ok
        ok &= abs(rep.ledger.total_ebits - (log2(3) + 1.0)) < TOL
        ok &= abs(rep.ledger.total_ebits - 2.584962500721) < 1e-9

    rep6 = get_protocol("prop6").verify()
    ok &= rep6.ok
    ok &= abs(rep6.ledger.total_ebits - 2.0) < TOL
    ok &= abs(rep6.ledger.expected("EPR", ("A", "B")) - 1.0) < TOL
    ok &= abs(rep6.ledger.expected("EPR", ("A", "C")) - 1.0) < TOL
    ok &= rep6.ledger.total_ebits < 2 * log2(3)

    rep7 = get_protocol("prop7").verify()
    ok &= rep7.ok
    ok &= abs(rep7.ledger.expected("EPR", ("B", "C")) - 8 / 27) < TOL
    ok &= abs(rep7.ledger.total_ebits - (2 + 8 / 27)) < TOL
    ok &= abs(rep7.ledger.total_ebits - 2.296296296296) < 1e-9

    rep8 = get_protocol("prop8").verify()
    ok &= rep8.ok
    ok &= abs(rep8.ledger.ghz_count - 1.0) < TOL
    ok &= abs(rep8.ledger.expected("EPR", ("B", "C")) - 1 / 8) < TOL

    repr2 = get_protocol("remark2").verify()
    ok &= repr2.ok
    ok &= abs(repr2.ledger.expected("EPR", ("A", "B")) - 1.0) < TOL
    ok &= abs(repr2.ledger.expected("EPR", ("B", "C")) - 11 / 16) < TOL

    rep1 = get_protocol("typeI_43").verify()
    ok &= rep1.ok
    ok &= all(len(cuts) <= 1 for _, cuts in
              resource_cuts_per_path(get_protocol("typeI_43").root))
    _report(3, "protocol verification and ledgers", ok)


def test_criterion_4_negative_controls():
    ok = True
    neg = verify_protocol(get_protocol("prop6").root, get_basis("B_IIb_33"),
                          "prop6-vs-IIb")
    ok &= not neg.ok

    bennett = get_basis("bennett_3x3")
    ok &= leaf_verify(joint_kets(bennett)) is None
    shift = get_basis("shift_222")
    ok &= leaf_verify(joint_kets(shift)) is None

    # every distinguishable leaf in every built-in is strategy-certified
    for name in sorted(BUILTIN_PROTOCOLS):
        rep = get_protocol(name).verify()
        ok &= rep.ok and len(rep.leaf_strategies) > 0
    _report(4, "negative controls", ok)


def test_criterion_5_derived_construction_gates():
    ok = True
    for pname, pair in (("shift_AB", ("A", "B")), ("shift_BC", ("B", "C")),
                        ("shift_CA", ("C", "A"))):
        proto = get_protocol(pname)
        rep = proto.verify()
        ok &= rep.ok
        ok &= abs(rep.ledger.expected("EPR", pair) - 1.0) < TOL
    # the averaged numbers must come from the fully completed trees: the
    # symmetric branches all carry survivors of their own
    rep7 = get_protocol("prop7").verify()
    shift_leaves = [p for p, _, _ in rep7.leaf_strategies if "/Fb" in p or "/O0" in p]
    for stem in ("root/M/N", "root/M/Nb", "root/Mb/N", "root/Mb/Nb"):
        ok &= any(p.startswith(stem) for p in shift_leaves)
    ok &= abs(rep7.ledger.expected("EPR", ("B", "C")) - 8 / 27) < TOL
    rep8 = get_protocol("prop8").verify()
    ok &= any(p.startswith("root/Mb") for p, _, _ in rep8.leaf_strategies)
    ok &= abs(rep8.ledger.expected("EPR", ("B", "C")) - 1 / 8) < TOL
    _report(5, "derived-construction gates", ok)


def test_criterion_6_solver_oracle_equivalence():
    from tests.test_opm import (
        GROUPS_222,
        oracle_solution_dim,
        random_orthogonal_product_set,
    )
    rng = np.random.default_rng(424242)
    ok = True
    for k in range(100):
        basis = random_orthogonal_product_set(rng)
        group = GROUPS_222[k % len(GROUPS_222)]
        ok &= opm_solution_space(basis, group).dim == oracle_solution_dim(basis, group)
    _report(6, "solver oracle equivalence", ok)


def test_criterion_7_parser_round_trip_and_fuzz():
    ok = True
    for name in sorted(BUILTIN_PROTOCOLS):
        proto = get_protocol(name)
        text = pdl.serialize(proto)
        ok &= pdl.parse(text).root == proto.root
    rng = np.random.default_rng(31)
    tokens = pdl.serialize(get_protocol("prop6")).split()
    for _ in range(150):
        k = int(rng.integers(len(tokens)))
        mutated = " ".join(tokens[:k] + tokens[k + 1:])
        try:
            pdl.parse(mutated)
        except pdl.PdlError:
            pass
        except Exception:
            ok = False
    _report(7, "parser round-trip and fuzz", ok)
