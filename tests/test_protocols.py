"""Built-in protocols: verification passes, ledgers, transcription checks."""

from math import log2

import numpy as np
import pytest

from gnpb.bases import comp, eta, get_basis, xi
from gnpb.engine import (
    Distinguishable,
    Identify,
    leaf_verify,
    materialize,
    resource_cuts_per_path,
    verify_protocol,
)
from gnpb.protocols import BUILTIN_PROTOCOLS, get_protocol
from gnpb.qstate import TOL, born


def _born1(space, acted, matrix, vec):
    """One effect on one state: (probability, normalized post-state)."""
    out = born(space, acted, [matrix], vec[None], np.arange(space.dim), {}, TOL)
    values, cols = next(out.posts)
    post = np.zeros(space.dim, values.dtype)
    post[cols] = values[0]  # the flat indices of space that born returns
    return float(out.probs[0, 0]), post


@pytest.mark.parametrize("name", sorted(BUILTIN_PROTOCOLS))
def test_protocol_passes_on_its_basis(name):
    proto = get_protocol(name)
    report = proto.verify()
    assert report.ok, report.failures[:3]
    for lbl, p in report.identification.items():
        assert p == pytest.approx(1.0, abs=1e-7), lbl


@pytest.mark.parametrize("name", sorted(BUILTIN_PROTOCOLS))
def test_ledger_matches_declared(name):
    proto = get_protocol(name)
    ledger = proto.ledger()
    for kind, endpoints, expected in proto.declared:
        assert ledger.expected(kind, endpoints) == pytest.approx(expected, abs=1e-9), \
            (kind, endpoints)
    # and nothing undeclared was consumed
    assert len(ledger.rows) == len(proto.declared)


def test_prop5_ledger_value():
    for name in ("prop5_II33", "prop5_IIb33"):
        ledger = get_protocol(name).ledger()
        assert ledger.total_ebits == pytest.approx(1.0 + log2(3), abs=1e-9)
        assert ledger.total_ebits < ledger.baseline_ebits


def test_prop6_ledger_two_ebits():
    ledger = get_protocol("prop6").ledger()
    assert ledger.total_ebits == pytest.approx(2.0, abs=1e-12)
    assert ledger.total_ebits < 2 * log2(3)


def test_prop7_ledger_average():
    ledger = get_protocol("prop7").ledger()
    assert ledger.expected("EPR", ("B", "C")) == pytest.approx(8 / 27, abs=1e-9)
    assert ledger.total_ebits == pytest.approx(2 + 8 / 27, abs=1e-9)


def test_prop8_ledger_ghz_plus_eighth():
    ledger = get_protocol("prop8").ledger()
    assert ledger.ghz_count == pytest.approx(1.0, abs=1e-12)
    assert ledger.expected("EPR", ("B", "C")) == pytest.approx(1 / 8, abs=1e-9)
    assert ledger.total_ebits == pytest.approx(1 / 8, abs=1e-12)
    # GHZ is reported in its own unit; the ebit bound is informational
    assert ledger.ghz_distribution_bound_ebits == pytest.approx(2.0)
    assert ledger.total_ebits + ledger.ghz_distribution_bound_ebits \
        < ledger.baseline_ebits


def test_remark2_ledger_eleven_sixteenths():
    ledger = get_protocol("remark2").ledger()
    assert ledger.expected("EPR", ("A", "B")) == pytest.approx(1.0, abs=1e-12)
    assert ledger.expected("EPR", ("B", "C")) == pytest.approx(11 / 16, abs=1e-9)


def test_ghz_protocol_cheaper_than_bipartite_variant():
    """The conditional consumption of the three-party resource protocol is
    below the 11/16 of the two-EPR variant."""
    assert get_protocol("prop8").ledger().expected("EPR", ("B", "C")) \
        < get_protocol("remark2").ledger().expected("EPR", ("B", "C"))


@pytest.mark.parametrize("name", sorted(BUILTIN_PROTOCOLS))
def test_total_below_teleportation_baseline(name):
    ledger = get_protocol(name).ledger()
    effective = ledger.total_ebits + ledger.ghz_distribution_bound_ebits
    assert effective < ledger.baseline_ebits


# ---------------------------------------------------------------------------
# structural transcription checks

def _k_node_of_prop5(proto):
    return proto.root.child.child.children["N"]


def test_prop5_iib_k7_identifies_phi2():
    proto = get_protocol("prop5_IIb33")
    k_node = _k_node_of_prop5(proto)
    assert k_node.children["K7"] == Identify("phi_2")


def test_prop5_ii33_k1_leaf_set():
    proto = get_protocol("prop5_II33")
    k_node = _k_node_of_prop5(proto)
    leaf = k_node.children["K1"]
    assert isinstance(leaf, Distinguishable)
    expected = {f"psi_3_{a}{b}" for a in "pm" for b in "pm"}
    expected |= {f"psi_5_{a}{b}" for a in "pm" for b in "pm"}
    assert leaf.labels == frozenset(expected)


def test_prop6_k1_leaf_is_psi2_and_strategy_found():
    proto = get_protocol("prop6")
    report = proto.verify()
    # K1 survivors: the four |eta+->_A |2>_B |xi+->_C states, split by A
    # on the eta signs and then by C on the xi signs
    expected = frozenset(f"psi_2_{a}{b}" for a in "pm" for b in "pm")
    hits = [s for path, labels, s in report.leaf_strategies
            if frozenset(labels) == expected and path.endswith("/K1")]
    assert hits
    tree = hits[0]
    assert tree.party == "A"
    assert all(child.party == "C" for _, child in tree.blocks)
    # K2 survivors psi_1 are likewise certified (split starts at B)
    expected1 = frozenset(f"psi_1_{a}{b}" for a in "pm" for b in "pm")
    hits1 = [s for path, labels, s in report.leaf_strategies
             if frozenset(labels) == expected1 and path.endswith("/K2")]
    assert hits1 and hits1[0].party == "B"


def test_prop7_kp1_resolves_alpha2():
    proto = get_protocol("prop7")
    k_node = proto.root.child.child.child.children["M"].children["N"]
    kp_node = (k_node.children["K4"].children["Npb"].children["Mpb"])
    dance = kp_node.children["Kp1"]
    leaf = dance.children["a2p"]
    assert isinstance(leaf, Distinguishable)
    assert leaf.labels == frozenset({"alpha_2_p", "alpha_2_m"})


def test_prop8_step1_produces_tag_entangled_pair():
    """After the first measurement the two embedded-pair states with a
    register straddling both blocks become tag-entangled, as listed."""
    basis = get_basis("B_II_43")
    proto = get_protocol("prop8")
    attach = proto.root
    m_node = attach.child
    # build the joint state |2xp_3> x |GHZ> by hand
    from gnpb.bases import resource_amplitudes
    from gnpb.qstate import CompositeSpace, Subsystem
    space = CompositeSpace(
        [Subsystem(p, 4, p) for p in "ABC"]
        + [Subsystem("a", 2, "A"), Subsystem("b", 2, "B"), Subsystem("c", 2, "C")]
    )
    joint = np.kron(basis.state("2xp_3").joint(), resource_amplitudes("GHZ"))
    m_eff = m_node.effects[0]
    mat = materialize(m_eff, space, m_node.acted())
    p, post = _born1(space, m_node.acted(), mat, joint)
    assert p == pytest.approx(0.5, abs=1e-12)

    # expected: |2>_A (|1>_B |000> + |2>_B |111>)/sqrt2 |3>_C  (abc tags)
    def ket(av, bv, cv, tag):
        vec = np.zeros(space.dim)
        idx = ((av * 4 + bv) * 4 + cv) * 8 + tag
        vec[idx] = 1.0
        return vec

    expected = (ket(2, 1, 3, 0b000) + ket(2, 2, 3, 0b111)) / np.sqrt(2)
    assert abs(np.vdot(expected, post)) == pytest.approx(1.0, abs=1e-9)


def test_prop6_step1_post_state_row3():
    """Joint first-round outcome on psi_3_pp reproduces the listed
    double-entangled tag state."""
    basis = get_basis("B_II_33")
    proto = get_protocol("prop6")
    m_node = proto.root.child.child
    n_node = m_node.children["M"]
    from gnpb.bases import resource_amplitudes
    from gnpb.qstate import CompositeSpace, Subsystem
    space = CompositeSpace(
        [Subsystem(p, 3, p) for p in "ABC"]
        + [Subsystem("a1", 2, "A"), Subsystem("b1", 2, "B"),
           Subsystem("a2", 2, "A"), Subsystem("c1", 2, "C")]
    )
    joint = np.kron(np.kron(basis.state("psi_3_pp").joint(),
                            resource_amplitudes("EPR")),
                    resource_amplitudes("EPR"))
    state = joint
    for node in (m_node, n_node):
        e = node.effects[0]
        mat = materialize(e, space, node.acted())
        p, state = _born1(space, node.acted(), mat, state)
        assert p == pytest.approx(0.5, abs=1e-12)

    def ket(idx_abc, a1, b1, a2, c1):
        vec = np.zeros(space.dim)
        a, b, c = idx_abc
        flat = ((((((a * 3 + b) * 3 + c) * 2 + a1) * 2 + b1) * 2 + a2) * 2 + c1)
        vec[flat] = 1.0
        return vec

    # |2>_A (|1>_B|00> + |2>_B|11>)_{a1 b1} (|0>_C|11> + |1>_C|00>)_{a2 c1} / 2
    expected = (
        ket((2, 1, 0), 0, 0, 1, 1) + ket((2, 1, 1), 0, 0, 0, 0)
        + ket((2, 2, 0), 1, 1, 1, 1) + ket((2, 2, 1), 1, 1, 0, 0)
    ) / 2.0
    assert abs(np.vdot(expected, state)) == pytest.approx(1.0, abs=1e-9)


def test_prop7_k3_survivors_form_shift_set():
    """On the first-outcome path, the eight low-level survivors carry the
    shift structure on their principal registers once tags are detached."""
    basis = get_basis("B_IIb_33")
    proto = get_protocol("prop7")
    m_node = proto.root.child.child.child
    n_node = m_node.children["M"]
    k_node = n_node.children["N"]
    from gnpb.bases import resource_amplitudes, shift_upb_opb_222
    from gnpb.qstate import CompositeSpace, Subsystem
    space = CompositeSpace(
        [Subsystem(p, 3, p) for p in "ABC"]
        + [Subsystem("a1", 2, "A"), Subsystem("b1", 2, "B"),
           Subsystem("a2", 2, "A"), Subsystem("c1", 2, "C"),
           Subsystem("b2", 2, "B"), Subsystem("c2", 2, "C")]
    )
    shift = shift_upb_opb_222()
    pairs = {
        "alpha_1_p": "01ep", "alpha_1_m": "01em",
        "beta_1_p": "1ep0", "beta_1_m": "1em0",
        "gamma_1_p": "ep01", "gamma_1_m": "em01",
        "phi_0": "000", "phi_1": "111",
    }
    for lbl, shift_lbl in pairs.items():
        joint = basis.state(lbl).joint()
        for _ in range(3):
            joint = np.kron(joint, resource_amplitudes("EPR"))
        state = joint
        for node, out in ((m_node, "M"), (n_node, "N"), (k_node, "K3")):
            e = next(x for x in node.effects if x.name == out)
            mat = materialize(e, space, node.acted())
            p, state = _born1(space, node.acted(), mat, state)
            assert p > 0.1
        # principal part: project tags onto their fixed values and compare
        principal = space.split_axes(("A", "B", "C"), state)
        u, s, vh = np.linalg.svd(principal, full_matrices=False)
        assert s[0] == pytest.approx(1.0, abs=1e-9)  # tags factor out
        main = u[:, 0]
        target = np.zeros(27, dtype=complex)
        fs = shift.state(shift_lbl).factors
        emb = np.kron(np.kron(np.concatenate([fs[0], [0]]),
                              np.concatenate([fs[1], [0]])),
                      np.concatenate([fs[2], [0]]))
        target = emb
        assert abs(np.vdot(target, main)) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# negative controls and branch structure

def test_prop6_fails_on_wrong_basis():
    proto = get_protocol("prop6")
    report = verify_protocol(proto.root, get_basis("B_IIb_33"), "prop6-vs-IIb")
    assert not report.ok
    assert any(f["kind"] in ("orthogonality", "leaf-set", "identify")
               for f in report.failures)


def test_typeI_one_cut_per_branch():
    proto = get_protocol("typeI_43")
    for path, cuts in resource_cuts_per_path(proto.root):
        assert len(cuts) <= 1, path
    report = proto.verify()
    assert report.ok
    # per-branch cost never exceeds log2(3)
    for row in report.ledger.rows:
        assert row.kind == "MERGE"
        assert row.ebits_per_use == pytest.approx(log2(3), abs=1e-9)


def test_shift_subprotocol_every_endpoint_pair():
    for pair in (("A", "B"), ("B", "C"), ("C", "A")):
        proto = get_protocol(f"shift_{pair[0]}{pair[1]}") if pair != ("C", "A") \
            else get_protocol("shift_CA")
        report = proto.verify()
        assert report.ok
        assert proto.ledger().expected("EPR", pair) == pytest.approx(1.0)


def test_shift_without_epr_is_stuck():
    basis = get_basis("shift_222")
    states = [(lbl, basis.joint_ket(lbl)) for lbl in basis.labels]
    assert leaf_verify(states) is None


def test_every_distinguishable_leaf_has_strategy():
    for name in sorted(BUILTIN_PROTOCOLS):
        report = get_protocol(name).verify()
        assert report.ok
        declared = _count_distinguishable_leaves(get_protocol(name).root)
        assert len(report.leaf_strategies) >= declared > 0


def _count_distinguishable_leaves(node):
    from gnpb.engine import AttachResource, Measure, MergeParties
    if isinstance(node, Distinguishable):
        return 1
    if isinstance(node, (AttachResource, MergeParties)):
        return _count_distinguishable_leaves(node.child)
    if isinstance(node, Measure):
        return sum(_count_distinguishable_leaves(c)
                   for c in node.children.values() if c is not None)
    return 0
