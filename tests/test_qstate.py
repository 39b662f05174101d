"""Core linear-algebra layer: frozen examples plus algebraic properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnpb.qstate import (
    CompositeSpace,
    Ket,
    LabelCollisionError,
    Subsystem,
    born,
    pairwise_max_overlap,
    schmidt_ebits,
)
from gnpb.tree import KetExpr


def test_tensor_basis_case():
    # |0> x |0> -> amplitude 1 at flat index 0
    amps = np.kron(KetExpr(0).vector(2), KetExpr(0).vector(2))
    assert amps[0] == 1.0
    assert np.count_nonzero(amps) == 1


def test_tensor_eta_xi_positions():
    # |eta+> x |xi+>: four amplitudes of 1/2 at (0,1),(0,2),(1,1),(1,2)
    amps = np.kron(KetExpr(0, 1, 1).vector(3), KetExpr(1, 2, 1).vector(3))
    expected = np.zeros(9)
    for i, j in [(0, 1), (0, 2), (1, 1), (1, 2)]:
        expected[3 * i + j] = 0.5
    assert np.allclose(amps, expected)


def test_tensor_norm_multiplicative():
    amps = np.kron(np.kron(KetExpr(0, 1, 1).vector(3), KetExpr(1, 2, -1).vector(3)),
                   KetExpr(2).vector(3))
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_tensor_label_collision():
    space = CompositeSpace([Subsystem("A", 3, "A")])
    with pytest.raises(LabelCollisionError):
        space.extended([Subsystem("A", 3, "A")])


def test_inner_eta_pair_orthogonal():
    assert abs(np.vdot(KetExpr(0, 1, 1).vector(3), KetExpr(0, 1, -1).vector(3))) < 1e-12


def test_inner_eta_xi_half():
    # expand ((<0|+<1|)/sqrt2)((|1>+|2>)/sqrt2) = 1/2
    assert np.vdot(KetExpr(0, 1, 1).vector(3), KetExpr(1, 2, 1).vector(3)) == pytest.approx(0.5)


def test_inner_self_is_one():
    psi = KetExpr(1, 2, -1).vector(3)
    assert np.vdot(psi, psi) == pytest.approx(1.0)


def test_ket_vocabulary_levels():
    assert np.array_equal(KetExpr(2).vector(4), [0, 0, 1, 0])
    assert np.array_equal(KetExpr(1, 0, -1).vector(3), KetExpr(0, 1, -1).vector(3))
    assert np.array_equal(KetExpr(0, 1, -1).vector(3), np.array([1, -1, 0]) / np.sqrt(2))
    with pytest.raises(ValueError):
        KetExpr(3).vector(3)
    with pytest.raises(ValueError):
        KetExpr(1, 3).vector(3)


def _proj(vec):
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


def _born1(space, acted, matrix, vec, tol=1e-9):
    """One effect on one state: (probability, post-state or None)."""
    out = born(space, acted, [matrix], np.asarray(vec)[None], np.arange(space.dim), {}, tol)
    values, cols = next(out.posts)
    if not len(values):
        return float(out.probs[0, 0]), None
    post = np.zeros(space.dim, values.dtype)
    post[cols] = values[0]  # the flat indices of space that born returns
    return float(out.probs[0, 0]), post


def _space(*dims):
    return CompositeSpace([Subsystem(n, d, n) for n, d in zip("ABC", dims)])


def test_apply_effect_eigenstate():
    space = _space(4, 4, 4)
    state = KetExpr(48).vector(64)  # |300>
    p, post = _born1(space, ("A",), _proj([0, 0, 0, 1]), state)
    assert p == pytest.approx(1.0)
    assert abs(np.vdot(post, state)) == pytest.approx(1.0)


def test_apply_effect_annihilated():
    space = _space(4, 4, 4)
    state = KetExpr(32).vector(64)  # |200>
    p, post = _born1(space, ("A",), _proj([0, 0, 0, 1]), state)
    assert p == 0.0 and post is None


def test_apply_effect_twist_break_on_epr():
    # M = P[(0,1)_B; 0_b1] + P[2_B; 1_b1] applied to |eta+>_B x |phi+>_{a1 b1}
    # keeps the |00> tag component: probability 1/2, post = |eta+>|00>
    space = CompositeSpace([Subsystem("B", 3, "B"), Subsystem("a1", 2, "A"),
                            Subsystem("b1", 2, "B")])
    phi = np.zeros(4, dtype=complex)
    phi[[0, 3]] = 1 / np.sqrt(2)
    eta = KetExpr(0, 1, 1).vector(3)
    joint = np.kron(eta, phi)
    m = np.kron(_proj([1, 0, 0]) + _proj([0, 1, 0]), _proj([1, 0])) \
        + np.kron(_proj([0, 0, 1]), _proj([0, 1]))
    p, post = _born1(space, ("B", "b1"), m, joint)
    expected = np.kron(eta, np.array([1, 0, 0, 0]))
    assert p == pytest.approx(0.5)
    assert abs(np.vdot(expected, post)) == pytest.approx(1.0)


def test_apply_effect_idempotent():
    space = _space(3, 3)
    eta = KetExpr(0, 1, 1).vector(3)
    state = np.kron(eta, KetExpr(1, 2, -1).vector(3))
    p, post = _born1(space, ("A",), _proj(eta), state)
    p2, post2 = _born1(space, ("A",), _proj(eta), post)
    assert p == pytest.approx(1.0) and p2 == pytest.approx(1.0)
    assert abs(np.vdot(post, post2)) == pytest.approx(1.0)


def test_born_reports_probability_below_tolerance():
    # the walk sums every outcome probability, including the cut-off ones
    space = _space(2)
    p, post = _born1(space, ("A",), _proj([0, 1]), np.array([1.0, 1e-6]), tol=1e-9)
    assert p == pytest.approx(1e-12) and post is None


def test_schmidt_epr_is_one_ebit():
    space = CompositeSpace([Subsystem("x", 2, "A"), Subsystem("y", 2, "B")])
    phi = np.zeros(4)
    phi[[0, 3]] = 1 / np.sqrt(2)
    assert schmidt_ebits(Ket(space, phi), ("x",)) == pytest.approx(1.0)


def test_schmidt_qutrit_pair():
    space = CompositeSpace([Subsystem("x", 3, "A"), Subsystem("y", 3, "B")])
    phi = np.zeros(9)
    phi[[0, 4, 8]] = 1 / np.sqrt(3)
    assert schmidt_ebits(Ket(space, phi), ("y",)) == pytest.approx(np.log2(3), abs=1e-9)


def test_schmidt_product_state_zero():
    amps = np.kron(np.kron(KetExpr(0, 1, 1).vector(3), KetExpr(1, 2, 1).vector(3)),
                   KetExpr(0).vector(3))
    k = Ket(_space(3, 3, 3), amps)
    assert schmidt_ebits(k, ("A",)) == pytest.approx(0.0, abs=1e-9)
    assert schmidt_ebits(k, ("A", "B")) == pytest.approx(0.0, abs=1e-9)


def test_schmidt_w_state_single_cut():
    space = CompositeSpace([Subsystem(n, 2, n) for n in "xyz"])
    w = np.zeros(8)
    w[[1, 2, 4]] = 1 / np.sqrt(3)
    expected = np.log2(3) - 2 / 3
    for cut in ("x", "y", "z"):
        assert schmidt_ebits(Ket(space, w), (cut,)) == pytest.approx(expected, abs=1e-9)


def test_schmidt_symmetric_under_cut_swap():
    space = CompositeSpace([Subsystem("x", 2, "A"), Subsystem("y", 3, "B"),
                            Subsystem("z", 2, "C")])
    rng = np.random.default_rng(7)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    k = Ket(space, amps / np.linalg.norm(amps))
    assert schmidt_ebits(k, ("x",)) == pytest.approx(schmidt_ebits(k, ("y", "z")), abs=1e-9)


@st.composite
def random_kets(draw, dim=6):
    res = draw(st.lists(st.tuples(
        st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)),
        min_size=dim, max_size=dim))
    vec = np.array([complex(re, im) for re, im in res])
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        vec = np.ones(dim, dtype=complex)
        norm = np.linalg.norm(vec)
    return vec / norm


@settings(max_examples=30, deadline=None)
@given(random_kets(dim=6), st.integers(0, 1000))
def test_complete_measurement_probabilities_sum_to_one(u, seed):
    space = CompositeSpace([Subsystem("x", 2, "A"), Subsystem("y", 3, "B")])
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(g)
    total = sum(_born1(space, ("y",), _proj(q[:, k]), u)[0] for k in range(3))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_pairwise_max_overlap():
    vecs = [KetExpr(0).vector(3), KetExpr(1).vector(3), KetExpr(0, 1, 1).vector(3)]
    assert pairwise_max_overlap(vecs) == pytest.approx(1 / np.sqrt(2))


@st.composite
def born_cases(draw):
    """A small space, an acted subset, a complete projective measurement on
    it and a stack of states, real or complex throughout.  The states are
    nonzero only on a random support (every column, one column, or a random
    subset), whose columns are listed in a random order."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    space = CompositeSpace([Subsystem(n, d, n) for n, d in zip("ABC", dims)])
    acted = tuple(draw(st.permutations(space.names))[:draw(st.integers(1, len(dims)))])
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        g = rng.normal(size=shape)
        return g + 1j * rng.normal(size=shape) if is_complex else g

    d = int(np.prod([space.subsystem(n).dim for n in acted]))
    q, _ = np.linalg.qr(gaussian(d, d))
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), max_size=d - 1))) if d > 1 else []
    mats = [q[:, a:b] @ q[:, a:b].conj().T for a, b in zip([0] + cuts, cuts + [d])]
    support = draw(st.sampled_from(["all", "one", "subset"]))
    cols = {"all": range(space.dim), "one": [draw(st.integers(0, space.dim - 1))],
            "subset": sorted(draw(st.sets(st.integers(0, space.dim - 1), min_size=1)))
            }[support]
    cols = np.array(draw(st.permutations(cols)), np.intp)
    stack = gaussian(draw(st.integers(1, 4)), len(cols))
    stack /= np.linalg.norm(stack, axis=1, keepdims=True)
    tol = draw(st.sampled_from([1e-9, 0.2]))
    return space, acted, mats, stack, cols, tol


@settings(max_examples=80, deadline=None)
@given(born_cases())
def test_born_stack_matches_one_projection_per_row(case):
    space, acted, mats, stack, cols, tol = case
    dense = np.zeros((len(stack), space.dim), stack.dtype)
    dense[:, cols] = stack
    out = born(space, acted, mats, stack, cols, {}, tol)
    rest = tuple(n for n in space.names if n not in acted)
    # the rank of each flat index when the acted registers run first
    acted_major = space.split_axes(acted + rest, np.arange(space.dim)).reshape(-1).argsort()
    assert out.probs.shape == (len(mats), len(stack))
    assert np.allclose(out.sums, 1.0, rtol=0, atol=1e-12)
    for e, (m, idx, (values, post_cols)) in enumerate(zip(mats, out.survivors, out.posts)):
        projected = [m @ space.split_axes(acted, row) for row in dense]
        expected = np.array([np.linalg.norm(x) ** 2 for x in projected])
        assert np.allclose(out.probs[e], expected, rtol=0, atol=1e-12)
        assert np.array_equal(idx, np.flatnonzero(expected > tol))
        assert values.shape == (len(idx), len(post_cols))
        assert values.dtype == np.result_type(m, stack)
        assert post_cols.dtype.kind == "i"
        assert np.all((0 <= post_cols) & (post_cols < space.dim))
        # distinct, in the projection's column order: acted index first, then rest
        assert np.all(np.diff(acted_major[post_cols]) > 0)
        assert np.all((values != 0).any(axis=0))
        posts = np.zeros((len(idx), space.dim), values.dtype)
        posts[:, post_cols] = values
        assert np.allclose(np.linalg.norm(posts, axis=1), 1.0, rtol=0, atol=1e-12)
        for c, post in zip(idx, posts):
            want = projected[c] / np.sqrt(expected[c])
            assert np.allclose(space.split_axes(acted, post), want, rtol=0, atol=1e-12)


def test_split_axes_keeps_leading_stack_axis():
    space = _space(2, 3, 2)
    stack = np.arange(3 * space.dim, dtype=float).reshape(3, space.dim)
    split = space.split_axes(("C", "A"), stack)
    assert split.shape == (3, 4, 3)
    for row, mat in zip(stack, split):
        assert np.array_equal(mat, space.split_axes(("C", "A"), row))
    assert np.array_equal(space.unsplit_axes(("C", "A"), split), stack)


def test_dtype_follows_inputs():
    assert KetExpr(0, 1, -1).vector(3).dtype == np.float64
    assert Ket(_space(2), [1, 0]).amplitudes.dtype == np.float64
    assert Ket(_space(2), [1j, 0]).amplitudes.dtype == np.complex128
