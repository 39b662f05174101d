"""Basis constructors: counts, membership, orthogonality, tiles, resources."""

from functools import reduce

import numpy as np
import pytest

from gnpb.bases import (
    OrthoProductBasis,
    ProductState,
    GRID_43,
    RESOURCE_KINDS,
    basis_I_43,
    basis_II_33,
    basis_II_43,
    basis_IIb_33,
    bennett_npb_3x3,
    check_basis,
    get_basis,
    render_tiles,
    resource_amplitudes,
    shift_upb_opb_222,
)
from gnpb.qstate import CompositeSpace, Subsystem, schmidt_ebits
from gnpb.tree import KetExpr

from .helpers import states_by_label
from .test_golden_classify import rotated

ALL_BASES = ["bennett_3x3", "B_I_43", "B_II_43", "B_II_33", "B_IIb_33", "shift_222"]
EXPECTED_COUNTS = {"bennett_3x3": 9, "B_I_43": 64, "B_II_43": 64,
                   "B_II_33": 27, "B_IIb_33": 27, "shift_222": 8}


@pytest.mark.parametrize("name", ALL_BASES)
def test_integrity(name):
    report = check_basis(get_basis(name))
    assert report.cardinality == EXPECTED_COUNTS[name]
    assert report.max_overlap < 1e-9
    assert report.completeness_rank == report.total_dim
    assert report.complete


def test_bennett_pairwise_scan():
    b = bennett_npb_3x3()
    mat = b.joint_matrix()
    for i in range(9):
        for j in range(i + 1, 9):
            assert abs(np.vdot(mat[i], mat[j])) < 1e-12


def test_grid_43_frozen():
    assert len(GRID_43) == 46
    assert len(set(GRID_43)) == 46
    # spot membership at the table's corners and interior
    for t in ["303", "333", "200", "033", "133", "111"]:
        assert t in GRID_43
    for t in ["300", "039", "223"]:
        assert t not in GRID_43


def test_basis_I_alice_three_sector_is_sixteen():
    b = basis_I_43()
    e3 = KetExpr(3).vector(4)
    sector = [st.label for st in b.states
              if abs(np.vdot(e3, st.factors[0])) > 1 - 1e-9]
    expected = {f"3_{n}" for n in
                ("0ep", "0em", "ep2", "em2", "2xp", "2xm", "xp0", "xm0", "11")}
    expected |= {"303", "313", "323", "330", "331", "332", "333"}
    assert set(sector) == expected and len(sector) == 16


def test_basis_I_embeds_bennett_both_ways():
    b = states_by_label(basis_I_43())
    bennett = bennett_npb_3x3()
    for lbl, st2 in zip(bennett.labels, bennett.states):
        bc = b[f"3_{lbl}"]
        assert np.allclose(bc.factors[0], KetExpr(3).vector(4))
        assert np.allclose(bc.factors[1][:3], st2.factors[0])
        assert np.allclose(bc.factors[2][:3], st2.factors[1])
        ab = b[f"{lbl}_3"]
        assert np.allclose(ab.factors[2], KetExpr(3).vector(4))
        assert np.allclose(ab.factors[0][:3], st2.factors[0])
        assert np.allclose(ab.factors[1][:3], st2.factors[1])


def test_II_43_swaps_exactly_six_states():
    a, b = basis_I_43(), basis_II_43()
    only_a = set(a.labels) - set(b.labels)
    only_b = set(b.labels) - set(a.labels)
    assert only_a == {"032", "033", "222", "232", "231", "331"}
    assert only_b == {"03cp", "03cm", "2cp2", "2cm2", "cp31", "cm31"}


def test_II_43_contains_twist_not_computational():
    labels = set(basis_II_43().labels)
    assert "03cp" in labels and "032" not in labels
    st = states_by_label(basis_II_43())["03cp"]
    assert np.allclose(st.factors[2], KetExpr(2, 3, 1).vector(4))


def test_II_33_sign_convention():
    b = basis_II_33()
    st = states_by_label(b)["psi_1_pm"]  # |0>|eta+>|xi->
    assert np.allclose(st.factors[0], KetExpr(0).vector(3))
    assert np.allclose(st.factors[1], KetExpr(0, 1, 1).vector(3))
    assert np.allclose(st.factors[2], KetExpr(1, 2, -1).vector(3))
    # <psi(+,+)_1 | psi(-,+)_1> = 0 through the eta factors
    rows = dict(zip(b.labels, b.joint_matrix()))
    assert abs(np.vdot(rows["psi_1_pp"], rows["psi_1_mp"])) < 1e-12


def test_IIb_33_contains_kappa_state():
    st = states_by_label(basis_IIb_33())["gamma_2_p"]  # |kappa+>|0>|2>
    assert np.allclose(st.factors[0], KetExpr(0, 2, 1).vector(3))
    assert np.allclose(st.factors[1], KetExpr(0).vector(3))
    assert np.allclose(st.factors[2], KetExpr(2).vector(3))


def test_shift_relabeling_of_conditional_branch_states():
    """The relabeling 2->1, 3->0 (A, B) and 1->1, 2->0 (C) carries the
    eight conditional-branch states of the 64-state basis onto the shift set."""
    b43 = basis_II_43()
    outcome = ["3_2xp", "3_2xm", "2cp2", "2cm2", "cp31", "cm31", "332", "221"]
    perm_ab = {2: 1, 3: 0}
    perm_c = {1: 1, 2: 0}

    def relabel(vec, perm):
        out = np.zeros(2, dtype=complex)
        for src, dst in perm.items():
            out[dst] = vec[src]
        return out

    relabeled = []
    for lbl in outcome:
        fs = states_by_label(b43)[lbl].factors
        relabeled.append(np.kron(np.kron(relabel(fs[0], perm_ab), relabel(fs[1], perm_ab)),
                                 relabel(fs[2], perm_c)))
    shift = shift_upb_opb_222()
    shift_vecs = shift.joint_matrix()
    matched = set()
    for v in relabeled:
        overlaps = np.abs(shift_vecs.conj() @ v)
        k = int(np.argmax(overlaps))
        assert overlaps[k] == pytest.approx(1.0, abs=1e-9)
        matched.add(k)
    assert len(matched) == 8


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        OrthoProductBasis("bad", [("A", 2)], [
            ProductState("x", (KetExpr(0).vector(2),)),
            ProductState("x", (KetExpr(1).vector(2),)),
        ])


def test_json_round_trip():
    b = basis_IIb_33()
    b2 = OrthoProductBasis.from_json(b.to_json(), name=b.name)
    assert b2.labels == b.labels
    assert b2.parties == b.parties
    assert np.allclose(b2.joint_matrix(), b.joint_matrix())
    assert check_basis(b2).complete


def _kron_per_state(basis):
    """The joint amplitudes as ``joint_matrix`` built them before: one
    ``np.kron`` chain per state."""
    return np.array([reduce(np.kron, st.factors) for st in basis.states])


@pytest.mark.parametrize("name", ALL_BASES)
def test_joint_matrix_is_the_per_state_kron_byte_for_byte(name):
    b = get_basis(name)
    for basis in (b, OrthoProductBasis.from_json(b.to_json()), rotated(name, 3), rotated(name, 11)):
        got, want = basis.joint_matrix(), _kron_per_state(basis)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_joint_matrix_mixing_real_and_complex_factors_keeps_the_values():
    # a real state times a complex one gives the same values, but the row-wise
    # product may flip the sign of a zero imaginary part
    phase = np.exp(0.7j)
    e2m, e3p = KetExpr(0, 1, -1).vector(2), KetExpr(0, 1, 1).vector(3)
    x3m, x3p = KetExpr(1, 2, -1).vector(3), KetExpr(1, 2, 1).vector(3)
    basis = OrthoProductBasis("mixed", [("A", 2), ("B", 3)], [
        ProductState("a", (e2m, x3m)),
        ProductState("b", (phase * KetExpr(0).vector(2), -e3p)),
        ProductState("c", (-KetExpr(1).vector(2), x3p * 1j))])
    got, want = basis.joint_matrix(), _kron_per_state(basis)
    assert got.dtype == want.dtype == complex
    assert np.array_equal(got, want)


def test_empty_basis_has_an_empty_joint_matrix():
    basis = OrthoProductBasis("empty", [("A", 2), ("B", 3)], [])
    assert basis.joint_matrix().shape == (0, 6)
    assert check_basis(basis).completeness_rank == 0


@pytest.mark.parametrize("kind,cut_ebits", [
    ("EPR", 1.0),
    ("EPR3", np.log2(3)),
    ("GHZ", 1.0),
    ("W", np.log2(3) - 2 / 3),
])
def test_resource_entropies(kind, cut_ebits):
    dims, declared = RESOURCE_KINDS[kind][:2]
    labels = [f"r{i}" for i in range(len(dims))]
    space = CompositeSpace(Subsystem(lbl, d, lbl) for lbl, d in zip(labels, dims))
    for lbl in labels:
        assert schmidt_ebits(space, resource_amplitudes(kind), (lbl,)) == pytest.approx(
            cut_ebits, abs=1e-9)
    assert declared == pytest.approx(cut_ebits)


def _cells(group):
    return len(group.rows) * len(group.cols)


def test_tiles_bennett_dominoes():
    rep = render_tiles(bennett_npb_3x3(), merged=("A",))
    assert (rep.n_rows, rep.n_cols) == (3, 3)
    assert len(rep.groups) == 5  # four dominoes plus the center cell
    dominoes = [g for g in rep.groups if _cells(g) == 2]
    single = [g for g in rep.groups if _cells(g) == 1]
    assert len(dominoes) == 4 and len(single) == 1
    assert single[0].labels == ("11",)
    assert all(g.is_rectangle for g in rep.groups)
    # the five tiles partition the grid
    assert sum(_cells(g) for g in rep.groups) == 9


def test_tiles_II_33_cut_AB_C():
    rep = render_tiles(basis_II_33(), merged=("A", "B"))
    assert (rep.n_rows, rep.n_cols) == (9, 3)
    assert len(rep.groups) == 9    # six twist families plus three diagonal cells
    multi = [g for g in rep.groups if _cells(g) > 1]
    single = [g for g in rep.groups if _cells(g) == 1]
    assert len(multi) == 6 and len(single) == 3
    # contiguous-run decomposition of the multi-cell families
    assert sum(len(g.pieces) for g in multi) == 10
    assert sum(_cells(g) for g in rep.groups) == 27


def test_tiles_shift_4x2():
    rep = render_tiles(shift_upb_opb_222(), merged=("A", "B"))
    assert (rep.n_rows, rep.n_cols) == (4, 2)
    assert sum(_cells(g) for g in rep.groups) == 8
    assert {g.labels for g in rep.groups if _cells(g) == 1} == {("000",), ("111",)}


def test_tiles_text_contains_grid_and_legend():
    rep = render_tiles(basis_II_33(), merged=("A", "B"))
    assert "rows=A*B (9)" in rep.text
    assert "[rect]" in rep.text or "pieces]" in rep.text
