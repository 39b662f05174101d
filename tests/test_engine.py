"""Protocol engine: leaf strategies, symmetry completion, ledger rules."""

import copy
import json

import numpy as np
import pytest

from gnpb.bases import (
    RESOURCE_KINDS,
    OrthoProductBasis,
    ProductState,
    get_basis,
    resource_amplitudes,
)
from gnpb.engine import (
    conjugate_tree,
    leaf_verify,
    materialize,
    verify_protocol,
)
from gnpb.protocols import get_protocol
from gnpb.qstate import Ket, Subsystem
from gnpb.tree import (
    AttachResource,
    Distinguishable,
    Effect,
    Fail,
    Identify,
    KetExpr,
    Measure,
    MergeParties,
    Mirror,
    P,
    eff,
    measure,
    rest,
)

from .helpers import joint_kets, joint_rows, resource_cuts_per_path


def _single_state_basis():
    return OrthoProductBasis("one", [("A", 2), ("B", 2)],
                             [ProductState("only", (KetExpr(0).vector(2), KetExpr(1).vector(2)))])


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
        ProductState("big", (2 * KetExpr(0).vector(2), KetExpr(0).vector(2))),
        ProductState("ok", (KetExpr(1).vector(2), KetExpr(0).vector(2))),
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

def test_leaf_verify_two_states_second_party():
    basis = OrthoProductBasis("pair", [("A", 2), ("B", 2)], [
        ProductState("x", (KetExpr(0).vector(2), KetExpr(0).vector(2))),
        ProductState("y", (KetExpr(0).vector(2), KetExpr(1).vector(2))),
    ])
    tree = leaf_verify(joint_kets(basis, ["x", "y"]))
    assert tree is not None
    assert tree.party == "B"


def test_leaf_verify_twist_family():
    # |eta+->_A |2>_B |xi+->_C: A splits the eta signs, C the xi signs
    states = []
    for s, sn in ((1, "p"), (-1, "m")):
        for t, tn in ((1, "p"), (-1, "m")):
            factors = (KetExpr(0, 1, s).vector(3), KetExpr(2).vector(3), KetExpr(1, 2, t).vector(3))
            states.append(ProductState(f"psi_{sn}{tn}", factors))
    basis = OrthoProductBasis("fam", [("A", 3), ("B", 3), ("C", 3)], states)
    tree = leaf_verify(joint_kets(basis))
    assert tree is not None
    assert tree.party == "A"
    assert len(tree.blocks) == 2
    for _, child in tree.blocks:
        assert child.party == "C"
    text = tree.text()
    assert "A splits" in text and "C splits" in text


def test_leaf_verify_none_on_bennett():
    basis = get_basis("bennett_3x3")
    assert leaf_verify(joint_kets(basis)) is None


def test_leaf_verify_none_on_shift():
    basis = get_basis("shift_222")
    assert leaf_verify(joint_kets(basis)) is None


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
        vec = np.kron(np.kron(KetExpr(i).vector(2), KetExpr(j).vector(2)), phi)
        states.append((lbl, Ket(space, vec)))
    assert leaf_verify(states) is None                        # entangled pair blocks
    assert leaf_verify(states, ignore=("x", "y")) is not None  # detached: fine


def test_leaf_verify_single_state():
    basis = _single_state_basis()
    tree = leaf_verify(joint_kets(basis, ["only"]))
    assert tree is not None and tree.party is None


# ---------------------------------------------------------------------------
# mirrored outcomes

def test_identity_symmetry_leaves_tree_unchanged():
    proto = get_protocol("prop6")
    expanded = conjugate_tree(proto.root, {})
    assert expanded != proto.root  # the two mirror children are written out
    assert conjugate_tree(expanded, {}) == expanded
    ident = {"a1": (0, 1), "b1": (0, 1)}
    assert conjugate_tree(proto.root, ident) == expanded


def _tagged(child):
    """E0 keeps |0> on x, E1 repeats E0's child with x flipped."""
    return measure(
        "A",
        (eff("E0", P(A=0, x=0), P(A=1, x=1)), rest("E1")),
        {"E0": child, "E1": Mirror("E0", ("x",))},
    )


def test_conjugate_tree_expands_mirror_children():
    inner = measure("A", (eff("T", P(x=0)), rest("Tb")), {"T": Identify("s"), "Tb": Fail()})
    flipped = measure("A", (eff("T", P(x=1)), rest("Tb")), {"T": Identify("s"), "Tb": Fail()})
    done = conjugate_tree(_tagged(inner), {})
    assert done.effects == _tagged(inner).effects
    assert done.children == {"E0": inner, "E1": flipped}
    # an outer flip of x composes with the mirror's: E1 holds E0's child as written
    outer = conjugate_tree(_tagged(inner), {"x": (1, 0)})
    assert outer.children == {"E0": flipped, "E1": inner}


def test_conjugation_flips_ancilla_values():
    term = P(A=[0, 1], a1=1)
    node = measure("A", (eff("K", term), rest("Kb")),
                   {"K": Identify("s"), "Kb": Fail()})
    flipped = conjugate_tree(node, {"a1": (1, 0)})
    (reg_a, ks_a), (reg_t, ks_t) = flipped.effects[0].terms[0].factors
    assert reg_t == "a1" and ks_t == (KetExpr(0),)
    assert reg_a == "A" and ks_a == (KetExpr(0), KetExpr(1))


def test_tampered_symmetry_fails_verification():
    """A mirror with the wrong flips must be caught by the engine."""
    proto = get_protocol("prop6")
    m_node = proto.root.child.child
    assert m_node.children["Mb"] == Mirror("M", ("a1", "b1"))
    # b1 is restricted only above the mirror, so flipping a1 alone is the right
    # mirror too; leaving a1 unflipped or flipping the other pair is not
    for flips in (("a2", "c1"), ("b1",)):
        tampered = Measure(m_node.actor, m_node.effects,
                           {"M": m_node.children["M"], "Mb": Mirror("M", flips)})
        root = AttachResource("EPR", ("A", "B"), ("a1", "b1"),
                              AttachResource("EPR", ("A", "C"), ("a2", "c1"), tampered))
        report = verify_protocol(root, get_basis("B_II_33"), "tampered")
        assert not report.ok, flips
    assert verify_protocol(proto.root, get_basis("B_II_33"), "prop6").ok


# ---------------------------------------------------------------------------
# ledger rules

def test_untouched_resource_not_charged():
    basis = _single_state_basis()
    root = AttachResource(
        "EPR", ("A", "B"), ("x", "y"),
        measure("A", (eff("all", P(A=[0, 1])),), {"all": Identify("only")}),
    )
    ledger = verify_protocol(root, basis, "lazy").ledger
    assert ledger.expected("EPR", ("A", "B")) == 0.0
    assert ledger.total_ebits == 0.0


def test_touched_resource_charged_in_full():
    basis = _single_state_basis()
    root = AttachResource(
        "EPR", ("A", "B"), ("x", "y"),
        measure("A", (eff("xp", P(x=(0, 1, 1))), eff("xm", P(x=(0, -1, 1)))),
                {"xp": Identify("only"), "xm": Identify("only")}),
    )
    ledger = verify_protocol(root, basis, "eager").ledger
    assert ledger.expected("EPR", ("A", "B")) == pytest.approx(1.0)
    assert ledger.total_ebits == pytest.approx(1.0)


def test_merge_cost_must_match_support():
    basis = _single_state_basis()
    root = MergeParties("B", "A", 0.5,
                        measure("A", (eff("all", P(A=[0, 1])),),
                                {"all": Identify("only")}))
    report = verify_protocol(root, basis, "badmerge")
    assert not report.ok and any(f["kind"] == "merge-cost" for f in report.failures)


def test_repeated_attach_labels_fail_at_the_attach_node():
    basis = _single_state_basis()
    root = measure("A", (eff("all", P(A=[0, 1])),),
                   {"all": AttachResource("EPR", ("A", "B"), ("x", "x"), Identify("only"))})
    report = verify_protocol(root, basis, "twice")
    assert report.n_measurements == 1
    assert report.failures[0] == {"node": "root/all", "kind": "attach-label",
                                  "detail": "register 'x' already exists"}
    assert all(f["kind"] != "execution-error" for f in report.failures)


def test_accounting_requires_verification():
    basis = _single_state_basis()
    root = measure("A", (eff("half", P(A=0)),), {"half": Identify("only")})
    report = verify_protocol(root, basis, "broken")
    assert not report.ok and report.ledger is None


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
    base = verify_protocol(proto.root, proto.basis(), name).ledger
    base_total = base.total_ebits + base.ghz_distribution_bound_ebits
    for stripped in _strip_one_attach(conjugate_tree(proto.root, {})):
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
    """A walk builds a remainder's matrix from its siblings' matrices."""
    from gnpb.engine import _Walk
    from gnpb.qstate import TOL, CompositeSpace, Subsystem
    space = CompositeSpace([Subsystem("A", 3, "A"), Subsystem("c", 2, "A")])
    e1 = eff("N", P(A=[0, 1], c=0), P(A=2, c=1))
    e2 = rest("Nb")
    node = measure("A", (e1, e2), {"N": Fail(), "Nb": Fail()})
    walk = _Walk(_single_state_basis(), TOL)
    (m1, m2), broken = walk.node_matrices(node, space, node.acted())
    assert node.acted() == ("A", "c") and broken is None
    assert np.array_equal(m1, materialize(e1, space, ("A", "c")))
    assert np.allclose(m1 + m2, np.eye(6))
    assert np.allclose(m1 @ m1, m1)
    assert np.allclose(m2 @ m2, m2)


def test_measurement_of_only_a_remainder_acts_on_no_register():
    """``R = rest`` alone restricts nothing: it acts on no register (d = 1),
    as the identity, so every state reaches its fail leaf."""
    from gnpb import pdl

    doc = pdl.parse("parties { A:3 B:3 C:3 }\nbasis B_II_33\n"
                    "measure by A {\n  R = rest\n} outcomes {\n  R -> fail\n}\n")
    basis = get_basis("B_II_33")
    report = verify_protocol(doc.root, basis, "rest-only")
    assert (report.n_measurements, report.n_leaves) == (1, 1)
    assert report.failures[0] == {"node": "root/R", "kind": "fail-leaf",
                                  "detail": f"states reach a fail leaf: {list(basis.labels)}"}
    assert [(f["node"], f["kind"]) for f in report.failures[1:]] == (
        [("total", "identification")] * len(basis))


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
    zero, one = KetExpr(0).vector(2), KetExpr(1).vector(2)
    for lbl, (a, b) in (("u", (plus_i, zero)), ("v", (minus_i, zero)), ("w", (zero, one))):
        vec = np.kron(np.kron(a, b), phi)
        states.append((lbl, Ket(space, vec)))
    tree = leaf_verify(states, ignore=("x", "y"))
    assert tree is not None
    # u and v differ only in the +-i phases on A; a conjugation bug would
    # make their stripped factors identical and the strategy impossible
    flat = tree.text()
    assert "u" in flat and "v" in flat


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("eps", [0.0, 1e-10, 9e-9, 1e-7, 1e-3])
def test_product_test_decides_like_svd(dtype, eps):
    """The SVD-free product test gives the SVD's verdict and factor rays.

    At 9e-9 the pivot-cross residual exceeds RANK_TOL although s[1] does
    not, so those states take the SVD fallback and still come out product.
    """
    from gnpb.engine import _product_factors
    from gnpb.qstate import RANK_TOL

    rng = np.random.default_rng(11)

    def unit(*shape):
        g = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is complex else 0)
        return g / np.linalg.norm(g, axis=-1, keepdims=True)

    n = 6
    a, b = unit(n, 3), unit(n, 4)
    # a second direction orthogonal to the first on both sides, on half the states
    a2 = unit(n, 3)
    a2 -= np.sum(a.conj() * a2, axis=1, keepdims=True) * a
    b2 = unit(n, 4)
    b2 -= np.sum(b.conj() * b2, axis=1, keepdims=True) * b
    a2 /= np.linalg.norm(a2, axis=1, keepdims=True)
    b2 /= np.linalg.norm(b2, axis=1, keepdims=True)
    size = eps * (np.arange(n) % 2)
    mats = a[:, :, None] * b[:, None, :] + size[:, None, None] * a2[:, :, None] * b2[:, None, :]
    mats /= np.linalg.norm(mats, axis=(1, 2), keepdims=True)
    got = _product_factors(mats.astype(dtype))
    svds = [np.linalg.svd(m) for m in mats]
    assert (got is None) == any(s[1] > RANK_TOL for _, s, _ in svds)
    if got is not None:
        fa, fb = got
        assert fa.dtype == fb.dtype == np.dtype(dtype)
        for c, (u, _, vh) in enumerate(svds):
            assert abs(np.vdot(u[:, 0], fa[c])) == pytest.approx(1.0, abs=1e-9)
            assert abs(np.vdot(vh[0], fb[c])) == pytest.approx(1.0, abs=1e-9)


def test_product_test_on_three_groups():
    from gnpb.engine import _product_factors
    from gnpb.qstate import CompositeSpace, Subsystem

    space = CompositeSpace([Subsystem("A", 2, "A"), Subsystem("x", 2, "A"),
                            Subsystem("B", 3, "B"), Subsystem("y", 2, "B")])
    a, x = np.array([1, 1j]) / np.sqrt(2), KetExpr(0).vector(2)
    b, y = KetExpr(0, 1, -1).vector(3), np.array([0.6, 0.8])
    product = np.kron(np.kron(np.kron(a, x), b), y)
    phi = np.zeros(4)
    phi[[0, 3]] = 1 / np.sqrt(2)  # x and y share an EPR pair
    entangled = space.unsplit_axes(("A", "B", "x", "y"), np.kron(np.kron(a, b), phi)[:, None])

    def factors(groups, *states):
        dims = [np.prod([space.subsystem(r).dim for r in g]) for g in groups]
        names = [r for g in groups for r in g]
        return _product_factors(space.split_axes(names, np.array(states)).reshape(-1, *dims))

    groups = [("A",), ("B",), ("x", "y")]
    fa, fb, fxy = factors(groups, product)
    assert abs(np.vdot(fa[0], a)) == pytest.approx(1.0)
    assert abs(np.vdot(fb[0], b)) == pytest.approx(1.0)
    assert abs(np.vdot(fxy[0], np.kron(x, y))) == pytest.approx(1.0)
    # the EPR pair inside one group leaves the state product across the groups
    assert factors(groups, product, entangled) is not None
    parties = [("A", "x"), ("B", "y")]
    assert factors(parties, product) is not None
    assert factors(parties, product, entangled) is None


def test_effect_matrices_built_once_per_walk(monkeypatch):
    import gnpb.engine as eng

    built = []
    real = eng.materialize
    monkeypatch.setattr(eng, "materialize", lambda effect, *rest: built.append(effect)
                        or real(effect, *rest))
    proto = get_protocol("prop7")
    first = proto.verify()
    n_first = len(built)
    assert first.ok and proto.verify().ok
    assert n_first < first.n_measurements      # repeated nodes reuse their matrices
    assert len(built) == 2 * n_first           # nothing is kept from one walk to the next
    assert not any(e.is_rest for e in built)   # a remainder comes from its siblings' matrices


def test_complex_basis_walks_like_the_real_one():
    """A phase of i on every state's first factor makes the walk complex."""
    basis = get_basis("B_II_33")
    doc = json.loads(basis.to_json())
    for state in doc["states"]:
        state["factors"][0] = [[-im, re] for re, im in state["factors"][0]]
    phased = OrthoProductBasis.from_json(json.dumps(doc), name=basis.name)
    assert phased.joint_matrix().dtype == np.complex128
    real, cplx = (get_protocol("prop6").verify(b) for b in (basis, phased))
    assert cplx.ok and real.ok
    assert (cplx.n_measurements, cplx.n_leaves) == (real.n_measurements, real.n_leaves)
    assert cplx.identification == pytest.approx(real.identification)
    assert cplx.ledger.total_ebits == pytest.approx(real.ledger.total_ebits)
    assert [p for p, _, _ in cplx.leaf_strategies] == [p for p, _, _ in real.leaf_strategies]


def _empty_branch_tree(empty_leaves):
    """An EPR pair, then A keeps |0> (both states) or the rest (no state);
    the empty branch holds a measurement on B and the two given leaves."""
    hit = measure("A", (eff("ap", P(a=(0, 1, 1))), eff("am", P(a=(0, -1, 1)))),
                  {"ap": Distinguishable(["x", "y"]), "am": Distinguishable(["x", "y"])})
    miss = measure("B", (eff("b0", P(B=0, b=(0, 1, 1))), rest("b1")),
                   dict(zip(("b0", "b1"), empty_leaves)))
    return AttachResource("EPR", ("A", "B"), ("a", "b"),
                          measure("A", (eff("hit", P(A=0)), rest("miss")),
                                  {"hit": hit, "miss": miss}))


SPLIT_XY = "B splits {x, y}\n-> block {x}\n  identified: x\n-> block {y}\n  identified: y"


@pytest.mark.parametrize("leaves, failures, strategies, ledger_uses", [
    ((Identify("x"), Distinguishable(["x", "y"])),
     [("root/miss/b0", "identify"), ("root/miss/b1", "leaf-set")],
     [("root/hit/ap", ("x", "y"), SPLIT_XY), ("root/hit/am", ("x", "y"), SPLIT_XY)],
     None),
    ((Distinguishable([]), Fail()),
     [],
     [("root/hit/ap", ("x", "y"), SPLIT_XY), ("root/hit/am", ("x", "y"), SPLIT_XY),
      ("root/miss/b0", (), "identified: ")],
     0.9999999999999998),
    # a resource attached where no state arrives extends an empty stack
    ((AttachResource("EPR", ("A", "B"), ("c", "d"), Distinguishable([])), Fail()),
     [],
     [("root/hit/ap", ("x", "y"), SPLIT_XY), ("root/hit/am", ("x", "y"), SPLIT_XY),
      ("root/miss/b0", (), "identified: ")],
     0.9999999999999998),
])
def test_branch_no_state_reaches_is_still_walked(leaves, failures, strategies, ledger_uses):
    """No post-state is built for ``miss``, but its subtree is walked as
    before: its measurement and leaves are counted, its leaves fail or pass
    on an empty candidate set, and the ledger is unchanged (all values were
    recorded from the walk that projected every effect)."""
    basis = OrthoProductBasis("pair", [("A", 2), ("B", 2)], [
        ProductState("x", (KetExpr(0).vector(2), KetExpr(0).vector(2))),
        ProductState("y", (KetExpr(0).vector(2), KetExpr(1).vector(2))),
    ])
    report = verify_protocol(_empty_branch_tree(leaves), basis, "empty")
    assert (report.n_measurements, report.n_leaves) == (3, 4)
    assert [(f["node"], f["kind"]) for f in report.failures] == failures
    assert [(p, lbls, s.text()) for p, lbls, s in report.leaf_strategies] == strategies
    assert report.identification == {"x": 0.9999999999999998, "y": 0.9999999999999998}
    if ledger_uses is None:
        assert report.ledger is None
    else:
        assert report.ledger.to_dict() == {
            "rows": [{"kind": "EPR", "endpoints": ["A", "B"], "expected_uses": ledger_uses,
                      "ebits_per_use": 1.0, "ebits": ledger_uses}],
            "total_ebits": ledger_uses, "ghz_count": 0.0, "ghz_distribution_bound_ebits": 0.0,
            "baseline_ebits": 1.0, "beats_baseline": True}


def _attached_then_measured(kinds, labels):
    """Attach resources of ``kinds`` between A and B as registers a, b, c, d,
    ...; then A measures register a in the computational basis, so the first
    resource is consumed and the others stay untouched."""
    d = RESOURCE_KINDS[kinds[0]][0][0]
    child = measure("A", tuple(eff(f"a{k}", P(a=k)) for k in range(d)),
                    {f"a{k}": Distinguishable(labels) for k in range(d)})
    for i, kind in reversed(list(enumerate(kinds))):
        child = AttachResource(kind, ("A", "B"), tuple("abcd"[2 * i:2 * i + 2]), child)
    return child


@pytest.mark.parametrize("kinds_0, kinds_1", [
    (("EPR",), ("EPR3",)),
    (("EPR", "EPR3"), ("EPR3", "EPR")),
])
def test_sibling_leaves_reusing_labels_are_searched_on_their_own_space(kinds_0, kinds_1):
    """Sibling branches attach resources of other dims under the same labels
    (a label's scope ends with its branch).  Each distinguishable leaf is
    searched on its own space and register order, as :func:`leaf_verify`
    searches the same states written out in space order."""
    plus, minus = KetExpr(0, 1, 1).vector(2), KetExpr(0, 1, -1).vector(2)
    basis = OrthoProductBasis("pm", [("A", 2), ("B", 2)], [
        ProductState(lbl, (a, KetExpr(b).vector(2)))
        for lbl, a, b in (("x", plus, 0), ("y", plus, 1), ("z", minus, 0), ("w", minus, 1))
    ])
    branches = (("b0", kinds_0, ("x", "z")), ("b1", kinds_1, ("y", "w")))
    root = measure("B", (eff("b0", P(B=0)), rest("b1")),
                   {outcome: _attached_then_measured(kinds, labels)
                    for outcome, kinds, labels in branches})
    report = verify_protocol(root, basis, "siblings")
    assert report.ok, report.failures

    expected = []
    for outcome, kinds, labels in branches:
        space = basis.space().extended(
            Subsystem(name, dim, party)
            for i, kind in enumerate(kinds)
            for name, dim, party in zip("abcd"[2 * i:2 * i + 2], RESOURCE_KINDS[kind][0], "AB"))
        d = RESOURCE_KINDS[kinds[0]][0][0]
        for k in range(d):
            pair = np.zeros(d * d)
            pair[k * d + k] = 1.0
            states = []
            for lbl in labels:
                amps = np.kron(joint_rows(basis)[lbl], pair)
                for kind in kinds[1:]:
                    amps = np.kron(amps, resource_amplitudes(kind))
                states.append((lbl, Ket(space, amps)))
            strategy = leaf_verify(states, ignore="abcd"[2:2 * len(kinds)])
            assert strategy is not None
            expected.append((f"root/{outcome}/a{k}", tuple(sorted(labels)), strategy.text()))
    assert [(p, lbls, s.text()) for p, lbls, s in report.leaf_strategies] == expected
