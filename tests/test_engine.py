"""Protocol engine: leaf strategies, symmetry completion, ledger rules."""

import copy
import json

import numpy as np
import pytest

from gnpb.bases import OrthoProductBasis, ProductState, comp, eta, get_basis, xi
from gnpb.engine import (
    AttachResource,
    Distinguishable,
    Effect,
    Fail,
    Identify,
    KetExpr,
    Measure,
    MergeParties,
    P,
    ProtocolVerificationError,
    complete_by_symmetry,
    conjugate_tree,
    eff,
    flip_sym,
    leaf_verify,
    materialize,
    measure,
    resource_accounting,
    resource_cuts_per_path,
    rest,
    verify_protocol,
)
from gnpb.protocols import get_protocol


def _single_state_basis():
    return OrthoProductBasis("one", [("A", 2), ("B", 2)],
                             [ProductState("only", (comp(0, 2), comp(1, 2)))])


def test_trivial_identity_protocol_passes():
    basis = _single_state_basis()
    root = measure("A", (eff("all", P(A=[0, 1])),), {"all": Identify("only")})
    report = verify_protocol(root, basis, "trivial")
    assert report.ok
    assert report.identification == {"only": pytest.approx(1.0)}


def test_incomplete_measurement_rejected():
    basis = _single_state_basis()
    root = measure("A", (eff("half", P(A=0)),), {"half": Identify("only")})
    report = verify_protocol(root, basis, "incomplete")
    assert not report.ok
    assert any(f["kind"] == "completeness" for f in report.failures)


def test_non_projector_effect_rejected():
    basis = _single_state_basis()
    # (|0> + |1>)/sqrt2 and |0> are not orthogonal: their sum is no projector
    root = measure("A", (eff("bad", P(A=[(0, 1, 1), 0])), rest("rest")),
                   {"bad": Identify("only"), "rest": Fail()})
    report = verify_protocol(root, basis, "nonproj")
    assert not report.ok
    assert any(f["kind"] == "not-projector" for f in report.failures)


def test_probability_sum_names_unnormalized_state():
    # a factor scaled by 2 makes every outcome probability of "big" 4x too large
    basis = OrthoProductBasis("scaled", [("A", 2), ("B", 2)], [
        ProductState("big", (2 * comp(0, 2), comp(0, 2))),
        ProductState("ok", (comp(1, 2), comp(0, 2))),
    ])
    root = measure("A", (eff("zero", P(A=0)), eff("one", P(A=1))),
                   {"zero": Identify("big"), "one": Identify("ok")})
    report = verify_protocol(root, basis, "scaled")
    sums = [f for f in report.failures if f["kind"] == "probability-sum"]
    assert [f["node"] for f in sums] == ["root"]
    assert sums[0]["detail"].startswith("big: outcomes sum to 4.0")


def test_locality_enforced():
    basis = _single_state_basis()
    root = measure("A", (eff("steal", P(B=[0, 1])),), {"steal": Identify("only")})
    report = verify_protocol(root, basis, "nonlocal")
    assert not report.ok
    assert any(f["kind"] == "locality" for f in report.failures)


def test_identify_wrong_label_fails():
    basis = _single_state_basis()
    root = measure("A", (eff("all", P(A=[0, 1])),), {"all": Identify("ghost")})
    assert not verify_protocol(root, basis, "ghost").ok


# ---------------------------------------------------------------------------
# leaf_verify

def _states_of(basis, labels):
    return [(lbl, basis.joint_ket(lbl)) for lbl in labels]


def test_leaf_verify_two_states_second_party():
    basis = OrthoProductBasis("pair", [("A", 2), ("B", 2)], [
        ProductState("x", (comp(0, 2), comp(0, 2))),
        ProductState("y", (comp(0, 2), comp(1, 2))),
    ])
    tree = leaf_verify(_states_of(basis, ["x", "y"]))
    assert tree is not None
    assert tree.party == "B"


def test_leaf_verify_twist_family():
    # |eta+->_A |2>_B |xi+->_C: A splits the eta signs, C the xi signs
    states = []
    for s, sn in ((1, "p"), (-1, "m")):
        for t, tn in ((1, "p"), (-1, "m")):
            states.append(ProductState(f"psi_{sn}{tn}", (eta(s), comp(2, 3), xi(t))))
    basis = OrthoProductBasis("fam", [("A", 3), ("B", 3), ("C", 3)], states)
    tree = leaf_verify(_states_of(basis, basis.labels))
    assert tree is not None
    assert tree.party == "A"
    assert len(tree.blocks) == 2
    for _, child in tree.blocks:
        assert child.party == "C"
    text = tree.text()
    assert "A splits" in text and "C splits" in text


def test_leaf_verify_none_on_bennett():
    basis = get_basis("bennett_3x3")
    assert leaf_verify(_states_of(basis, basis.labels)) is None


def test_leaf_verify_none_on_shift():
    basis = get_basis("shift_222")
    assert leaf_verify(_states_of(basis, basis.labels)) is None


def test_leaf_verify_none_on_entangled_input():
    from gnpb.qstate import CompositeSpace, Ket, Subsystem
    space = CompositeSpace([Subsystem("A", 2, "A"), Subsystem("B", 2, "B")])
    phi = np.zeros(4)
    phi[[0, 3]] = 1 / np.sqrt(2)
    psi = np.zeros(4)
    psi[[1, 2]] = 1 / np.sqrt(2)
    assert leaf_verify([("a", Ket(space, phi)), ("b", Ket(space, psi))]) is None


def test_leaf_verify_ignores_detached_resource():
    from gnpb.qstate import CompositeSpace, Ket, Subsystem
    space = CompositeSpace([
        Subsystem("A", 2, "A"), Subsystem("B", 2, "B"),
        Subsystem("x", 2, "A"), Subsystem("y", 2, "B"),
    ])
    phi = np.zeros(4)
    phi[[0, 3]] = 1 / np.sqrt(2)
    states = []
    for lbl, (i, j) in (("u", (0, 0)), ("v", (0, 1))):
        vec = np.kron(np.kron(comp(i, 2), comp(j, 2)), phi)
        states.append((lbl, Ket(space, vec)))
    assert leaf_verify(states) is None                        # entangled pair blocks
    assert leaf_verify(states, ignore=("x", "y")) is not None  # detached: fine


def test_leaf_verify_single_state():
    basis = _single_state_basis()
    tree = leaf_verify(_states_of(basis, ["only"]))
    assert tree is not None and tree.party is None


# ---------------------------------------------------------------------------
# symmetry completion

def test_identity_symmetry_leaves_tree_unchanged():
    proto = get_protocol("prop6")
    same = conjugate_tree(proto.root, {})
    assert same == proto.root
    ident = {"a1": (0, 1), "b1": (0, 1)}
    assert conjugate_tree(proto.root, ident) == proto.root


def test_complete_by_symmetry_fills_missing_branch():
    node = measure(
        "A",
        (eff("E0", P(A=0, x=0), P(A=1, x=1)), rest("E1")),
        {"E0": Identify("s"), "E1": None},
    )
    done = complete_by_symmetry(node, flip_sym("x"))
    assert done.children["E1"] == Identify("s")
    assert done.children["E0"] == Identify("s")


def test_complete_by_symmetry_noop_when_complete():
    node = measure("A", (eff("E", P(A=[0, 1])),), {"E": Identify("s")})
    assert complete_by_symmetry(node, flip_sym("x")) == node


def test_conjugation_flips_ancilla_values():
    term = P(A=[0, 1], a1=1)
    node = measure("A", (eff("K", term), rest("Kb")),
                   {"K": Identify("s"), "Kb": Fail()})
    flipped = conjugate_tree(node, flip_sym("a1"))
    (reg_a, ks_a), (reg_t, ks_t) = flipped.effects[0].terms[0].factors
    assert reg_t == "a1" and ks_t == (KetExpr(0),)
    assert reg_a == "A" and ks_a == (KetExpr(0), KetExpr(1))


def test_tampered_symmetry_fails_verification():
    """Completing with the wrong flip must be caught by the engine."""
    from gnpb.protocols import prop6_protocol

    proto = prop6_protocol()
    # rebuild with a deliberately wrong symmetry on the outer branch
    good = proto.root
    m_node = good.child.child
    bad_mb = conjugate_tree(m_node.children["M"], flip_sym("a2", "c1"))  # wrong pair
    tampered = Measure(m_node.actor, m_node.effects,
                       {"M": m_node.children["M"], "Mb": bad_mb})
    root = AttachResource("EPR", ("A", "B"), ("a1", "b1"),
                          AttachResource("EPR", ("A", "C"), ("a2", "c1"), tampered))
    report = verify_protocol(root, get_basis("B_II_33"), "tampered")
    assert not report.ok


# ---------------------------------------------------------------------------
# ledger rules

def test_untouched_resource_not_charged():
    basis = _single_state_basis()
    root = AttachResource(
        "EPR", ("A", "B"), ("x", "y"),
        measure("A", (eff("all", P(A=[0, 1])),), {"all": Identify("only")}),
    )
    ledger = resource_accounting(root, basis, "lazy")
    assert ledger.expected("EPR", ("A", "B")) == 0.0
    assert ledger.total_ebits == 0.0


def test_touched_resource_charged_in_full():
    basis = _single_state_basis()
    root = AttachResource(
        "EPR", ("A", "B"), ("x", "y"),
        measure("A", (eff("xp", P(x=(0, 1, 1))), eff("xm", P(x=(0, -1, 1)))),
                {"xp": Identify("only"), "xm": Identify("only")}),
    )
    ledger = resource_accounting(root, basis, "eager")
    assert ledger.expected("EPR", ("A", "B")) == pytest.approx(1.0)
    assert ledger.total_ebits == pytest.approx(1.0)


def test_merge_cost_must_match_support():
    basis = _single_state_basis()
    root = MergeParties("B", "A", 0.5,
                        measure("A", (eff("all", P(A=[0, 1])),),
                                {"all": Identify("only")}))
    report = verify_protocol(root, basis, "badmerge")
    assert not report.ok and any(f["kind"] == "merge-cost" for f in report.failures)


def test_accounting_requires_verification():
    basis = _single_state_basis()
    root = measure("A", (eff("half", P(A=0)),), {"half": Identify("only")})
    with pytest.raises(ProtocolVerificationError):
        resource_accounting(root, basis, "broken")


def _strip_one_attach(node):
    """Copies of the tree, each with one attach node removed."""
    out = []
    if isinstance(node, AttachResource):
        out.append(node.child)
        for sub in _strip_one_attach(node.child):
            out.append(AttachResource(node.kind, node.endpoints, node.labels, sub))
    elif isinstance(node, MergeParties):
        for sub in _strip_one_attach(node.child):
            out.append(MergeParties(node.source, node.destination, node.cost, sub))
    elif isinstance(node, Measure):
        for name, child in node.children.items():
            if child is None:
                continue
            for sub in _strip_one_attach(child):
                kids = dict(node.children)
                kids[name] = sub
                out.append(Measure(node.actor, node.effects, kids))
    return out


@pytest.mark.parametrize("name", ["prop6", "prop7", "prop8", "remark2"])
def test_ledger_monotone_under_attach_removal(name):
    proto = get_protocol(name)
    base = resource_accounting(proto.root, proto.basis(), name)
    base_total = base.total_ebits + base.ghz_distribution_bound_ebits
    for stripped in _strip_one_attach(proto.root):
        report = verify_protocol(stripped, proto.basis(), name + "-stripped")
        if report.ok:
            total = (report.ledger.total_ebits
                     + report.ledger.ghz_distribution_bound_ebits)
            assert total <= base_total + 1e-9
        # a failing verification also satisfies the monotonicity contract


def test_reports_are_deterministic():
    proto = get_protocol("prop7")
    a = proto.verify().to_dict()
    b = get_protocol("prop7").verify().to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_resource_cuts_per_path():
    proto = get_protocol("typeI_43")
    cuts = resource_cuts_per_path(proto.root)
    assert all(len(c) <= 1 for _, c in cuts)
    used = {cut for _, cs in cuts for cut in cs}
    assert used == {("B", "C"), ("A", "B")}


def test_materialize_rest_is_complement():
    from gnpb.qstate import CompositeSpace, Subsystem
    space = CompositeSpace([Subsystem("A", 3, "A"), Subsystem("c", 2, "C")])
    e1 = eff("N", P(A=[0, 1], c=0), P(A=2, c=1))
    e2 = rest("Nb")
    acted = ("A", "c")
    m1 = materialize(e1, (e1, e2), space, acted)
    m2 = materialize(e2, (e1, e2), space, acted)
    assert np.allclose(m1 + m2, np.eye(6))
    assert np.allclose(m1 @ m1, m1)
    assert np.allclose(m2 @ m2, m2)


def test_leaf_verify_strip_preserves_complex_phases():
    """Detaching a shared pair must not conjugate the remaining factors."""
    from gnpb.qstate import CompositeSpace, Ket, Subsystem

    space = CompositeSpace([
        Subsystem("A", 2, "A"), Subsystem("B", 2, "B"),
        Subsystem("x", 2, "A"), Subsystem("y", 2, "B"),
    ])
    phi = np.zeros(4)
    phi[[0, 3]] = 1 / np.sqrt(2)
    plus_i = np.array([1, 1j]) / np.sqrt(2)
    minus_i = np.array([1, -1j]) / np.sqrt(2)
    states = []
    for lbl, (a, b) in (("u", (plus_i, comp(0, 2))), ("v", (minus_i, comp(0, 2))),
                        ("w", (comp(0, 2), comp(1, 2)))):
        vec = np.kron(np.kron(a, b), phi)
        states.append((lbl, Ket(space, vec)))
    tree = leaf_verify(states, ignore=("x", "y"))
    assert tree is not None
    # u and v differ only in the +-i phases on A; a conjugation bug would
    # make their stripped factors identical and the strategy impossible
    flat = tree.text()
    assert "u" in flat and "v" in flat
