"""Solution spaces, eliminating measurements, classification, and the
brute-force oracle for the nullspace solver."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnpb import opm
from gnpb.bases import BUILTIN_BASES, OrthoProductBasis, ProductState, get_basis
from gnpb.opm import (
    HermitianSolutionSpace,
    classify,
    constrained_pairs,
    find_eliminating_opm,
    group_factorization,
    opm_solution_space,
)
from gnpb.qstate import RANK_TOL

from .helpers import is_locally_irreducible

# ---------------------------------------------------------------------------
# independent oracle: full-space embedding, all pairs, no overlap gating

def _hermitian_basis_dense(d):
    mats = []
    for k in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[k, k] = 1
        mats.append(m)
    for k in range(d):
        for l in range(k + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[k, l] = m[l, k] = 1
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[k, l] = 1j
            m[l, k] = -1j
            mats.append(m)
    return mats


def _apply_on_group(h, psi, dims, group_positions):
    """(H on the group axes x identity elsewhere) |psi>, by tensor reshape."""
    tensor = psi.reshape(dims)
    rest = [i for i in range(len(dims)) if i not in group_positions]
    moved = np.transpose(tensor, list(group_positions) + rest)
    dg = int(np.prod([dims[i] for i in group_positions]))
    flat = moved.reshape(dg, -1)
    out = (h @ flat).reshape([dims[i] for i in group_positions] + [dims[i] for i in rest])
    inverse = np.argsort(list(group_positions) + rest)
    return np.transpose(out, inverse).reshape(-1)


def oracle_solution_dim(basis, group):
    """Dimension of the OPM effect space, via full-space constraint rows."""
    dims = [d for _, d in basis.parties]
    names = [p for p, _ in basis.parties]
    pos = sorted(names.index(p) for p in group)
    dg = int(np.prod([dims[i] for i in pos]))
    hbasis = _hermitian_basis_dense(dg)
    vectors = basis.joint_matrix()
    rows = []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            vals = np.array([
                np.vdot(vectors[i], _apply_on_group(h, vectors[j], dims, pos))
                for h in hbasis
            ])
            rows.append(vals.real)
            rows.append(vals.imag)
    mat = np.array(rows)
    rank = int(np.linalg.matrix_rank(mat, tol=1e-8))
    return dg * dg - rank


def oracle_sweep_dim(basis, group, n_samples=60, seed=11):
    """Sample random Hermitians, project onto the constraint nullspace, and
    measure the dimension the projections span."""
    dims = [d for _, d in basis.parties]
    names = [p for p, _ in basis.parties]
    pos = sorted(names.index(p) for p in group)
    dg = int(np.prod([dims[i] for i in pos]))
    hbasis = _hermitian_basis_dense(dg)
    vectors = basis.joint_matrix()
    rows = []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            vals = np.array([
                np.vdot(vectors[i], _apply_on_group(h, vectors[j], dims, pos))
                for h in hbasis
            ])
            rows.append(vals.real)
            rows.append(vals.imag)
    mat = np.array(rows)
    _, svals, vt = np.linalg.svd(mat)
    rank = int(np.sum(svals > 1e-8 * (svals[0] if len(svals) and svals[0] > 0 else 1)))
    null = vt[rank:]  # rows span the nullspace (orthonormal)
    rng = np.random.default_rng(seed)
    projected = []
    for _ in range(n_samples):
        coeffs = rng.normal(size=dg * dg)
        proj = null.T @ (null @ coeffs)
        projected.append(proj)
        h = sum(c * b for c, b in zip(proj, hbasis))
        # every projected matrix must satisfy every constraint
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                val = np.vdot(vectors[i], _apply_on_group(h, vectors[j], dims, pos))
                assert abs(val) < 1e-7
    return int(np.linalg.matrix_rank(np.array(projected), tol=1e-8))


# ---------------------------------------------------------------------------
# random orthogonal product sets in 2x2x2

def _haar_unitary(rng, d=2):
    """A Haar-random d x d unitary."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_product_basis_222(rng):
    """A full product basis of three qubits built by recursive splitting."""
    states = []

    def split(fixed, free):
        if not free:
            states.append(ProductState(f"s{len(states)}", tuple(fixed)))
            return
        p = rng.integers(len(free))
        u = _haar_unitary(rng)
        rest = free[:p] + free[p + 1:]
        for col in range(2):
            assign = list(fixed)
            assign[free[p]] = u[:, col]
            split(assign, rest)

    split([None, None, None], [0, 1, 2])
    return states


def random_orthogonal_product_set(rng):
    if rng.random() < 0.25:
        # the shift completion, twirled by local unitaries
        base = get_basis("shift_222")
        us = [_haar_unitary(rng) for _ in range(3)]
        pool = [ProductState(st.label, tuple(u @ f for u, f in zip(us, st.factors)))
                for st in base.states]
    else:
        pool = random_product_basis_222(rng)
    n = int(rng.integers(4, 9))
    idx = rng.permutation(len(pool))[:n]
    chosen = [pool[i] for i in sorted(idx)]
    return OrthoProductBasis("random", [("A", 2), ("B", 2), ("C", 2)],
                             [ProductState(f"s{k}", st.factors)
                              for k, st in enumerate(chosen)])


GROUPS_222 = [("A",), ("B",), ("C",), ("A", "B"), ("B", "C"), ("A", "C")]


def test_oracle_equivalence_on_random_sets():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        basis = random_orthogonal_product_set(rng)
        group = GROUPS_222[checked % len(GROUPS_222)]
        solver_dim = opm_solution_space(basis, group).dim
        assert solver_dim == oracle_solution_dim(basis, group)
        checked += 1


def test_oracle_sweep_matches_on_sample():
    rng = np.random.default_rng(5)
    for k in range(6):
        basis = random_orthogonal_product_set(rng)
        group = GROUPS_222[k]
        assert opm_solution_space(basis, group).dim == oracle_sweep_dim(basis, group)


# ---------------------------------------------------------------------------
# named-basis facts

#: typed in: single dims A/B/C, merged dims A+B/A+C/B+C, witness group
CLASSIFIED = {
    "B_I_43": ((2, 2, 2), (10, 12, 10), ("A",)),
    "B_II_43": ((1, 1, 1), (8, 10, 8), ("A", "B")),
    "B_II_33": ((1, 1, 1), (1, 1, 1), None),
    "B_IIb_33": ((1, 1, 1), (1, 1, 1), None),
    "shift_222": ((1, 1, 1), (2, 2, 2), ("A", "B")),
}
MERGED = (("A", "B"), ("A", "C"), ("B", "C"))


def _satisfies_by_einsum(space, matrix):
    """``HermitianSolutionSpace.satisfies`` as a three-operand einsum."""
    i, j = space.pairs
    vals = np.einsum("pk,kl,pl->p", space.factors[i].conj(), matrix, space.factors[j])
    return bool(np.all(np.abs(vals) < RANK_TOL))


SPACES = [opm_solution_space(get_basis(name), g)
          for name in sorted(CLASSIFIED) for g in GROUPS_222]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(which=st.integers(0, len(SPACES) - 1), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["solution", "random", "perturbed"]))
def test_satisfies_agrees_with_the_einsum_form(which, seed, kind):
    space, rng = SPACES[which], np.random.default_rng(seed)
    d = space.local_dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    noise = g + g.conj().T
    mats = space.basis_matrices
    if kind == "random":
        mats = noise[None]
    elif kind == "perturbed":
        mats = mats + 1e-3 * noise
    each = [_satisfies_by_einsum(space, m) for m in mats]
    assert [space.satisfies(m) for m in mats] == each
    assert space.satisfies(mats) == all(each)  # a stack at once
    if kind == "solution":
        assert all(each)


def test_identity_always_a_solution():
    for name in CLASSIFIED:
        basis = get_basis(name)
        for group in GROUPS_222:
            space = opm_solution_space(basis, group)
            assert space.dim >= 1
            ident = np.eye(space.local_dim).reshape(-1)
            stack = space.basis_matrices.reshape(space.dim, -1)
            coeff, _, _, _ = np.linalg.lstsq(stack.T, ident, rcond=None)
            assert np.max(np.abs(stack.T @ coeff - ident)) < 1e-8


def test_basis_I_alice_space_contains_three_projector():
    basis = get_basis("B_I_43")
    space = opm_solution_space(basis, ("A",))
    assert space.dim == 2
    p3 = np.zeros((4, 4), dtype=complex)
    p3[3, 3] = 1.0
    assert space.satisfies(p3)
    # |3><3| lies in the span of the returned basis matrices
    stack = np.array([m.reshape(-1) for m in space.basis_matrices])
    coeff, res, _, _ = np.linalg.lstsq(stack.T, p3.reshape(-1), rcond=None)
    recon = (stack.T @ coeff).reshape(4, 4)
    assert np.max(np.abs(recon - p3)) < 1e-8


@pytest.mark.parametrize("name", ["B_II_43", "B_II_33", "B_IIb_33"])
def test_single_party_spaces_trivial(name):
    basis = get_basis(name)
    for p, _ in basis.parties:
        assert opm_solution_space(basis, (p,)).dim == 1


def test_IIb_merged_spaces_trivial():
    basis = get_basis("B_IIb_33")
    for g in (("A", "B"), ("A", "C"), ("B", "C")):
        assert opm_solution_space(basis, g).dim == 1
    assert is_locally_irreducible(basis, (("A", "B"), ("C",)))


def test_irreducibility_by_partition():
    separated = (("A",), ("B",), ("C",))
    assert not is_locally_irreducible(get_basis("B_I_43"), separated)
    assert is_locally_irreducible(get_basis("B_II_43"), separated)
    assert is_locally_irreducible(get_basis("B_II_33"), separated)
    with pytest.raises(ValueError):
        is_locally_irreducible(get_basis("B_II_33"), (("A",), ("B",)))


def test_II_43_has_nontrivial_merge():
    basis = get_basis("B_II_43")
    dims = {g: opm_solution_space(basis, g).dim for g in
            (("A", "B"), ("A", "C"), ("B", "C"))}
    assert any(d > 1 for d in dims.values())
    witness = find_eliminating_opm(basis, ("A", "B"))
    assert witness is not None
    assert any(e for e in witness.eliminated if e)


def test_solution_space_phase_invariant():
    basis = get_basis("B_II_33")
    phased = OrthoProductBasis(
        "phased", basis.parties,
        [ProductState(st.label,
                      (st.factors[0] * np.exp(1j * (0.3 + k)),) + st.factors[1:])
         for k, st in enumerate(basis.states)])
    for g in (("A",), ("B", "C")):
        assert opm_solution_space(phased, g).dim == opm_solution_space(basis, g).dim


@pytest.mark.parametrize("name", sorted(CLASSIFIED))
def test_classification_pinned(name):
    single, merged, witness_group = CLASSIFIED[name]
    basis = get_basis(name)
    cert = classify(basis)
    assert tuple(cert.single_dims[p] for p in "ABC") == single
    assert tuple(cert.merged_dims[g] for g in MERGED) == merged
    assert (cert.witness and cert.witness.group) == witness_group
    for group in GROUPS_222:
        space = opm_solution_space(basis, group)
        for m in space.basis_matrices:
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert space.satisfies(m)


def test_classify_verdicts():
    assert classify(get_basis("B_I_43")).verdict == "TypeI"
    assert classify(get_basis("B_II_43")).verdict == "TypeIIa"
    assert classify(get_basis("B_IIb_33")).verdict == "TypeIIb"


def test_classify_B_I_witness_is_three_vs_rest():
    cert = classify(get_basis("B_I_43"))
    assert cert.witness is not None and cert.witness.group == ("A",)
    effects = cert.witness.effects
    assert len(effects) == 2
    p3 = np.zeros((4, 4), dtype=complex)
    p3[3, 3] = 1.0
    deltas = [np.max(np.abs(e - p3)) for e in effects]
    k = int(np.argmin(deltas))
    assert deltas[k] < 1e-8
    assert np.max(np.abs(effects[1 - k] - (np.eye(4) - p3))) < 1e-8
    surv = set(cert.witness.survivors[k])
    expected = {f"3_{n}" for n in
                ("0ep", "0em", "ep2", "em2", "2xp", "2xm", "xp0", "xm0", "11")}
    expected |= {"303", "313", "323", "330", "331", "332", "333"}
    assert surv == expected


def test_find_eliminating_opm_none_when_trivial():
    basis = get_basis("B_IIb_33")
    assert find_eliminating_opm(basis, ("A",)) is None


def test_classify_stable_under_party_permutation():
    basis = get_basis("B_II_43")
    # cyclic relabeling A->B->C->A applied consistently to parties and factors
    permuted = OrthoProductBasis(
        "permuted", basis.parties,
        [ProductState(st.label, (st.factors[2], st.factors[0], st.factors[1]))
         for st in basis.states])
    assert classify(permuted).verdict == classify(basis).verdict


def test_group_factorization_orders_by_party():
    basis = get_basis("B_II_33")
    group, rest = group_factorization(basis, ("C", "A"))  # order must not matter
    # a_i (x) r_i is the state with its axes reordered to A, C | B
    joint = basis.joint_matrix().reshape(-1, 3, 3, 3).transpose(0, 1, 3, 2)
    assert np.allclose(group[:, :, None] * rest[:, None, :], joint.reshape(-1, 9, 3))


# ---------------------------------------------------------------------------
# the block solver against one dense QR + SVD of the whole system

def _dense_hermitian_basis(d):
    """The solver's coordinates as matrices: the diagonal units, then per
    k < l the symmetric element and the one with -i at (k, l)."""
    mats = np.zeros((d * d, d, d), dtype=complex)
    diag = np.arange(d)
    mats[diag, diag, diag] = 1.0
    k, l = np.triu_indices(d, 1)
    sym = d + 2 * np.arange(len(k))
    mats[sym, k, l] = mats[sym, l, k] = 1.0
    mats[sym + 1, k, l] = -1.0j
    mats[sym + 1, l, k] = 1.0j
    return mats


def dense_solution_space(basis, group):
    """The whole constraint system in one QR + SVD: every pair against
    every coordinate."""
    group = tuple(group)
    (i, j), factors = constrained_pairs(basis, group)
    d = factors.shape[1]
    h_flat = _dense_hermitian_basis(d).reshape(d * d, d * d)
    if len(i):
        kron = (factors[i].conj()[:, :, None] * factors[j][:, None, :]).reshape(len(i), d * d)
        vals = kron @ h_flat.T
        rows = np.stack([vals.real, vals.imag], axis=1).reshape(-1, d * d)
        _, svals, vt = np.linalg.svd(np.linalg.qr(rows, mode="r"))
        null_rows = vt[int(np.sum(svals > RANK_TOL * svals[0])):]
    else:
        null_rows = np.eye(d * d)
    mats = (null_rows @ h_flat).reshape(-1, d, d)
    return HermitianSolutionSpace(group, d, len(mats), factors, (i, j), lambda: mats)


def _coordinates(mats):
    """Real coordinates of Hermitian matrices: the diagonal, then per k < l
    the real part and minus the imaginary part of entry (k, l)."""
    d = mats.shape[-1]
    k, l = np.triu_indices(d, 1)
    upper = mats[:, k, l]
    off = np.stack([upper.real, -upper.imag], axis=2).reshape(len(mats), -1)
    return np.concatenate([np.diagonal(mats, axis1=1, axis2=2).real, off], axis=1)


def _sparse_unitary(rng, d):
    """A level permutation, then a real or complex rotation of one random
    pair of levels: zero patterns stay sparse, so systems keep many blocks."""
    u = np.eye(d, dtype=complex)[rng.permutation(d)]
    if d > 1:
        a, b = rng.choice(d, 2, replace=False)
        t = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(t), np.sin(t)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi)) if rng.random() < 0.5 else 1.0
        rot = np.eye(d, dtype=complex)
        rot[[a, a, b, b], [a, b, a, b]] = c, -s * np.conj(phase), s * phase, c
        u = rot @ u
    return u


def _rotated(basis, unitary, rng):
    us = [unitary(rng, d) for _, d in basis.parties]
    return OrthoProductBasis(basis.name, basis.parties, [
        ProductState(st.label, tuple(u @ f for u, f in zip(us, st.factors)))
        for st in basis.states])


def _with_trivial_party(rng):
    """A random 2 x 2 product basis plus a party of dim 1 at a random place;
    that party alone has no constrained pair."""
    u, v, w = (_haar_unitary(rng) if rng.random() < 0.5 else _sparse_unitary(rng, 2)
               for _ in range(3))
    pos = int(rng.integers(3))
    states = []
    for n, (a, b) in enumerate([(u[:, 0], v[:, 0]), (u[:, 0], v[:, 1]),
                                (u[:, 1], w[:, 0]), (u[:, 1], w[:, 1])]):
        factors = [a, b]
        factors.insert(pos, np.exp(1j * rng.uniform(0, 2 * np.pi, size=1)))
        states.append(ProductState(f"s{n}", tuple(factors)))
    parties = [("A", 2), ("B", 2)]
    parties.insert(pos, ("C", 1))
    return OrthoProductBasis("trivial_party", parties, states)


def _check_against_dense(basis, group):
    space, dense = opm_solution_space(basis, group), dense_solution_space(basis, group)
    dim = space.dim
    assert "basis_matrices" not in vars(space)  # the dims come without them
    assert len(space.basis_matrices) == dim == space.dim == dense.dim
    got, want = _coordinates(space.basis_matrices), _coordinates(dense.basis_matrices)
    # orthonormal in the coordinates (not in Hilbert-Schmidt: an
    # off-diagonal coordinate unit has Hilbert-Schmidt norm sqrt 2)
    assert np.max(np.abs(got @ got.T - np.eye(space.dim))) < 1e-9
    assert np.max(np.abs(got.T @ got - want.T @ want)) < 1e-9
    for m in space.basis_matrices:
        assert np.array_equal(m, m.conj().T)
        assert space.satisfies(m)
    return space


@pytest.mark.parametrize("unitary", [_sparse_unitary, _haar_unitary])
@pytest.mark.parametrize("name", sorted(CLASSIFIED))
@settings(max_examples=2, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_blocks_match_dense_solve_under_local_unitaries(name, unitary, seed):
    basis = _rotated(get_basis(name), unitary, np.random.default_rng(seed))
    single, merged, _ = CLASSIFIED[name]
    # local unitaries keep every dimension
    assert tuple(_check_against_dense(basis, (p,)).dim for p in "ABC") == single
    assert tuple(_check_against_dense(basis, g).dim for g in MERGED) == merged


def _as_complex(basis):
    """The same basis with complex128 factors: the solver's complex path."""
    return OrthoProductBasis(basis.name, basis.parties, [
        ProductState(st.label, tuple(np.asarray(f, dtype=complex) for f in st.factors))
        for st in basis.states])


VARIANTS = {
    "plain": lambda basis: basis,
    "sparse": lambda basis: _rotated(basis, _sparse_unitary, np.random.default_rng(4)),
    "haar": lambda basis: _rotated(basis, _haar_unitary, np.random.default_rng(4)),
    "complex128": _as_complex,
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", sorted(CLASSIFIED))
def test_dims_need_no_basis_matrices(name, variant):
    basis = VARIANTS[variant](get_basis(name))
    assert np.iscomplexobj(basis.factor_arrays()[0]) is (variant != "plain")
    single, merged, _ = CLASSIFIED[name]
    assert tuple(_check_against_dense(basis, (p,)).dim for p in "ABC") == single
    assert tuple(_check_against_dense(basis, g).dim for g in MERGED) == merged


@pytest.mark.parametrize("name", sorted(CLASSIFIED))
def test_classify_builds_the_basis_matrices_of_its_witness_only(name, monkeypatch):
    builds, build = [], opm._basis_matrices
    monkeypatch.setattr(opm, "_basis_matrices", lambda *args: builds.append(args) or build(*args))
    cert = classify(get_basis(name))
    assert (cert.witness and cert.witness.group) == CLASSIFIED[name][2]
    assert len(builds) == (cert.verdict != "TypeIIb")


# per classify: singular-value-only SVDs (one per block shape of each of the
# 7 solves), and the QR + full SVD of each kept stack of the witness space
LAPACK_CALLS = {"B_I_43": (33, 1), "B_II_43": (61, 3), "B_II_33": (12, 0),
                "B_IIb_33": (12, 0), "shift_222": (18, 1)}


@pytest.mark.parametrize("name", sorted(CLASSIFIED))
def test_classify_factorises_only_the_witness_stacks(name, monkeypatch):
    basis, calls = get_basis(name), []
    qr, svd = np.linalg.qr, np.linalg.svd
    with monkeypatch.context() as m:  # only around classify: the helpers here call qr too
        m.setattr(np.linalg, "qr", lambda *a, **k: calls.append("qr") or qr(*a, **k))
        m.setattr(np.linalg, "svd", lambda a, compute_uv=True: calls.append(
            "svd" if compute_uv else "svals") or svd(a, compute_uv=compute_uv))
        classify(basis)
    svals, kept = LAPACK_CALLS[name]
    assert (calls.count("svals"), calls.count("svd"), calls.count("qr")) == (svals, kept, kept)


@pytest.mark.parametrize("name", sorted(BUILTIN_BASES))
def test_real_factors_solve_as_the_complex_ones(name):
    """Real factors split each block into its symmetric and antisymmetric
    halves; the space they solve is the complex path's."""
    real = get_basis(name)
    parties = [p for p, _ in real.parties]
    assert not any(np.iscomplexobj(f) for f in real.factor_arrays())
    cplx = _as_complex(real)
    for group in [(p,) for p in parties] + list(itertools.combinations(parties, 2)):
        a, b = opm_solution_space(real, group), opm_solution_space(cplx, group)
        assert a.dim == b.dim
        pa, pb = _coordinates(a.basis_matrices), _coordinates(b.basis_matrices)
        assert np.max(np.abs(pa.T @ pa - pb.T @ pb)) < 1e-9
    if len(parties) == 3:
        x, y = classify(real), classify(cplx)
        assert (x.verdict, x.single_dims, x.merged_dims) == (y.verdict, y.single_dims,
                                                              y.merged_dims)
        assert (x.witness and x.witness.group) == (y.witness and y.witness.group)
        if x.witness:
            assert sorted(x.witness.survivors) == sorted(y.witness.survivors)


def test_an_exactly_cancelling_symmetric_coefficient():
    """|+> and |-> on A: the pair's symmetric coefficient a_i[0] a_j[1] +
    a_i[1] a_j[0] is exactly 0, so sigma_x stays free while the pair still
    ties the diagonal and the antisymmetric coordinate."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    e = np.eye(2)
    basis = OrthoProductBasis("cancel", [("A", 2), ("B", 2)], [
        ProductState(f"{s}{b}", (h[:, s], e[b])) for s in range(2) for b in range(2)])
    a, b = (_check_against_dense(basis, (p,)) for p in "AB")
    assert (a.dim, b.dim) == (2, 2)
    assert a.satisfies(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not a.satisfies(np.array([[0.0, -1.0j], [1.0j, 0.0]]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_blocks_match_dense_solve_with_a_trivial_party(seed):
    basis = _with_trivial_party(np.random.default_rng(seed))
    for group in GROUPS_222:
        _check_against_dense(basis, group)
    assert len(constrained_pairs(basis, ("C",))[0][0]) == 0
    assert opm_solution_space(basis, ("C",)).dim == 1


def test_a_zero_factor_touches_no_entry():
    e = np.eye(2)
    basis = OrthoProductBasis("zero", [("A", 2), ("B", 2)], [
        ProductState("a", (e[0], e[0])), ProductState("b", (e[1], e[0])),
        ProductState("z", (np.zeros(2), e[0]))])
    # the last constrained pair has a zero factor on A, so no edge
    assert [space.dim for space in (_check_against_dense(basis, ("A",)),
                                    _check_against_dense(basis, ("B",)))] == [2, 4]


@pytest.mark.parametrize("name", sorted(CLASSIFIED))
def test_one_block_systems_keep_the_dense_bits(name, monkeypatch):
    # generic amplitudes: every pair touches every entry, so one block
    basis = _rotated(get_basis(name), _haar_unitary, np.random.default_rng(7))
    for group in GROUPS_222:
        assert np.array_equal(opm_solution_space(basis, group).basis_matrices,
                              dense_solution_space(basis, group).basis_matrices)
    blocks = classify(basis).to_dict()
    monkeypatch.setattr(opm, "opm_solution_space", dense_solution_space)
    assert blocks == classify(basis).to_dict()


def _witness_cases():
    for name in sorted(CLASSIFIED):
        yield name, get_basis(name)
        for seed in (1, 2):
            yield name, _rotated(get_basis(name), _sparse_unitary, np.random.default_rng(seed))


def test_witnesses_are_valid_eliminating_measurements():
    for name, basis in _witness_cases():
        witness = classify(basis).witness
        assert (witness and witness.group) == CLASSIFIED[name][2]
        if witness is None:
            continue
        space = opm_solution_space(basis, witness.group)
        labels = list(basis.labels)
        for e, eliminated, survivors in zip(witness.effects, witness.eliminated,
                                            witness.survivors):
            assert np.max(np.abs(e - e.conj().T)) < 1e-12
            assert np.max(np.abs(e @ e - e)) < 1e-9
            assert space.satisfies(e)
            weight = dict(zip(labels, np.linalg.norm(space.factors @ e.T, axis=1)))
            assert all(weight[lbl] < RANK_TOL for lbl in eliminated)
            assert all(weight[lbl] >= RANK_TOL for lbl in survivors)
            assert sorted(eliminated + survivors) == sorted(labels)
        assert np.max(np.abs(sum(witness.effects) - np.eye(space.local_dim))) < 1e-9
        assert any(witness.eliminated)


def _eager_find_eliminating_opm(basis, group):
    """The witness search as it was before the draw became lazy: all 20
    seeded random combinations are drawn up front, after the basis matrices."""
    space = opm_solution_space(basis, group)
    if not space.dim > 1:
        return None
    labels = np.array(basis.labels, dtype=object)
    d = space.local_dim
    coeffs = np.random.default_rng(0).normal(size=(20, space.dim))
    candidates = np.concatenate(
        [space.basis_matrices, np.tensordot(coeffs, space.basis_matrices, axes=1)])
    for h in candidates:
        h0 = h - (np.trace(h).real / d) * np.eye(d)
        if np.max(np.abs(h0)) < RANK_TOL:
            continue
        projectors = opm._eigen_projectors(h0)
        if len(projectors) < 2:
            continue
        for effects in opm._groupings(projectors):
            effects = np.array(effects)
            if not space.satisfies(effects):
                continue
            if np.max(np.abs(effects.sum(0) - np.eye(d))) > RANK_TOL:
                continue
            killed = np.linalg.norm(space.factors @ effects.transpose(0, 2, 1), axis=2) < RANK_TOL
            if killed.any():
                return opm.EliminatingOpm(
                    group=tuple(group),
                    effects=tuple(effects),
                    eliminated=tuple(tuple(labels[k]) for k in killed),
                    survivors=tuple(tuple(labels[~k]) for k in killed),
                )
    return None


def _assert_same_witness(got, want):
    assert (got is None) == (want is None)
    if want is None:
        return
    assert got.group == want.group
    assert len(got.effects) == len(want.effects)
    assert all(np.array_equal(g, w) for g, w in zip(got.effects, want.effects))
    assert got.eliminated == want.eliminated
    assert got.survivors == want.survivors


@pytest.mark.parametrize("seed", [None, 3, 11])
@pytest.mark.parametrize("name", sorted(CLASSIFIED))
def test_lazy_witness_search_matches_the_eager_one(name, seed):
    basis = get_basis(name)
    if seed is not None:
        basis = _rotated(basis, _haar_unitary, np.random.default_rng(seed))
    for group in GROUPS_222:
        _assert_same_witness(find_eliminating_opm(basis, group),
                             _eager_find_eliminating_opm(basis, group))


@pytest.mark.parametrize("name, group", [("B_I_43", ("A",)), ("B_II_43", ("A", "B")),
                                         ("shift_222", ("A", "B"))])
def test_random_candidates_match_the_eager_search(name, group, monkeypatch):
    """No basis matrix yields two projectors, so the seeded draw must run and
    give the eager search's witness."""
    basis, real = get_basis(name), opm._eigen_projectors
    dim = opm_solution_space(basis, group).dim

    def search(find):
        calls = []

        def projectors(h):
            calls.append(h)
            return [np.eye(len(h))] if len(calls) <= dim else real(h)

        monkeypatch.setattr(opm, "_eigen_projectors", projectors)
        found = find(basis, group)
        assert len(calls) > dim  # at least one random candidate was tried
        return found

    got = search(find_eliminating_opm)
    assert got is not None
    _assert_same_witness(got, search(_eager_find_eliminating_opm))


def _looped_eigen_projectors(h):
    """The eigenvalue clustering as a loop: an eigenvalue joins the previous
    one's cluster when their gap is below the tolerance."""
    evals, evecs = np.linalg.eigh(h)
    tol = opm.EIGEN_CLUSTER_TOL * max(1.0, abs(evals[-1]))
    clusters = []
    for idx, ev in enumerate(evals):
        if clusters and abs(ev - evals[clusters[-1][-1]]) < tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return [evecs[:, c] @ evecs[:, c].conj().T for c in clusters]


def _spectrum(*evals):
    u = _haar_unitary(np.random.default_rng(len(evals)), len(evals))
    return (u * np.array(evals)) @ u.conj().T


@pytest.mark.parametrize("h, sizes", [
    (_spectrum(0, 0, 1, 1, 1, 2), [2, 3, 1]),
    (_spectrum(0, 5e-8, 1e-7, 1), [3, 1]),  # a chain of close gaps is one cluster
    (_spectrum(0, 2e-7, 1), [1, 1, 1]),
    (_spectrum(0, 2e-7, 3), [2, 1]),  # the tolerance scales with the largest eigenvalue
    (np.diag([np.nan, 1.0, 1.0]), [1, 2]),  # a NaN gap ends a cluster
])
def test_eigen_projectors_match_the_loop(h, sizes):
    got, want = opm._eigen_projectors(h), _looped_eigen_projectors(h)
    assert [round(np.trace(p).real) for p in want] == sizes
    assert len(got) == len(want)
    assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))
