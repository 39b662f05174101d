"""Local (ir)reducibility of orthogonal product sets under OPMs.

A first measurement by a party group preserves orthogonality of a product
set iff every effect E satisfies ``<a_i|E|a_j> = 0`` for all state pairs
whose factors outside the group still overlap.  These are linear conditions
on Hermitian E, so the admissible effects form a real vector space that
always contains the identity; the group can eliminate states only if that
space is bigger than span{I}.  This module computes the space explicitly,
searches it for eliminating projective measurements, and classifies bases
by where elimination is possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import RANK_TOL, TOL, kron_rows


def _party_index(basis):
    return {p: i for i, (p, _) in enumerate(basis.parties)}


def group_factorization(basis, group):
    """Per-state group and rest factors, as ``(n_states, d_group)`` and
    ``(n_states, d_rest)`` arrays.

    Factors multiply in party order, so two states' group factors live in
    the same tensor ordering.  An empty rest is the factor ``[1]``.
    """
    idx = _party_index(basis)
    for p in group:
        if p not in idx:
            raise KeyError(f"unknown party {p!r}")
    group_pos = {idx[p] for p in group}
    arrays = list(enumerate(basis.factor_arrays()))
    sides = ([f for i, f in arrays if i in group_pos],
             [f for i, f in arrays if i not in group_pos])
    return tuple(kron_rows(fs) if fs else np.ones((len(basis.states), 1)) for fs in sides)


def constrained_pairs(basis, group):
    """Index arrays ``(i, j)``, ``i < j``, of the state pairs whose rest
    overlap forces ``<a_i|E|a_j> = 0``, and the per-state group factors."""
    group_factors, rest_factors = group_factorization(basis, group)
    gram = np.abs(rest_factors.conj() @ rest_factors.T)
    upper = np.arange(len(gram))
    return ((gram > TOL) & (upper[:, None] < upper)).nonzero(), group_factors


@dataclass(frozen=True)
class HermitianSolutionSpace:
    """All Hermitian effects a party group may use in an orthogonality-preserving first measurement."""

    group: tuple
    local_dim: int
    basis_matrices: np.ndarray  # (dim, d, d), orthonormal in opm_solution_space's coordinates
    factors: np.ndarray         # (n_states, d): per-state group factor a_i
    pairs: tuple                # index arrays (i, j) of the constrained pairs

    @property
    def dim(self):
        return len(self.basis_matrices)

    @property
    def nontrivial(self):
        return self.dim > 1

    def satisfies(self, matrix):
        """Check the OPM constraints directly for one Hermitian matrix, or
        for all of a ``(k, d, d)`` stack at once."""
        i, j = self.pairs
        # <a_s|E|a_t> of all states, then the pairs': no (pairs, d) temporaries
        vals = (self.factors.conj() @ matrix @ self.factors.T)[..., i, j]
        return bool(np.all(np.abs(vals) < RANK_TOL))


def opm_solution_space(basis, group):
    """Solve the OPM constraint system for one party group.

    Returns a basis of the real solution space, orthonormal in the real
    coordinates of a Hermitian E: the diagonal, then per k < l the real and
    minus the imaginary part of E[k, l].  A pair constrains only the entries
    {k, l} (nodes) where its factors are nonzero; the nodes that share pairs
    form independent blocks, each solved by the SVD of its QR factor R.
    """
    group = tuple(group)
    (i, j), factors = constrained_pairs(basis, group)
    d = factors.shape[1]  # from the party dims, so also with no states
    r = np.arange(d)
    k, l = (r[:, None] < r).nonzero()
    rk, cl = np.concatenate([r, k]), np.concatenate([r, l])  # node n is {rk[n], cl[n]}
    first = np.concatenate([r, np.arange(d, d * d, 2)])  # a node's first coordinate
    width = 1 + (first >= d)
    # edges (pair, node) on the exact zero pattern: <a_i|E|a_j> has the
    # terms conj(a_i[k]) a_j[l] E[k, l] + conj(a_i[l]) a_j[k] E[l, k]; per
    # state, the nodes its k and its l levels reach, packed to bits
    nz = factors != 0
    a, b = np.packbits(nz[:, rk], axis=1), np.packbits(nz[:, cl], axis=1)
    touched = np.unpackbits(a[i] & b[j] | b[i] & a[j], axis=1, count=len(rk)).view(bool)
    ep, en = np.divmod(touched.ravel().nonzero()[0], len(rk))
    # label propagation: every node and pair ends with its block's smallest node
    label = np.arange(len(rk))
    while True:
        plabel = np.full(len(i), len(rk) - 1)
        np.minimum.at(plabel, ep, label[en])
        low = label.copy()
        np.minimum.at(low, en, plabel[ep])
        low = low[low]  # a label's own label lies in the same block and is no larger
        if (low == label).all():
            break
        label = low
    plabel = label[plabel]  # a pair with no edge (a zero factor) adds zero rows
    # number the blocks by shape, free nodes (no pairs) first, so that one
    # stacked QR and SVD solves all blocks of a shape
    cols = np.bincount(label.repeat(width), minlength=len(rk))
    npairs = np.bincount(plabel, minlength=len(rk))
    shape = npairs * (d * d + 1) + cols  # 0 for a node that is not its block's smallest
    by_shape = shape.argsort(kind="stable")[(shape == 0).sum():]
    number = np.empty(len(rk), int)
    number[by_shape] = np.arange(len(by_shape))
    comp, pcomp = number[label], number[plabel]
    shape, cols, npairs = shape[by_shape], cols[by_shape], npairs[by_shape]
    # a block's columns ascend in coordinate order, its rows in pair order
    # with re and im interleaved: the nullspace basis the SVD returns, and
    # so the witness found, depends on this order
    perm = comp.repeat(width).argsort(kind="stable")
    col0, size = cols.cumsum() - cols, 2 * npairs * cols
    local = (np.arange(d * d) - col0.repeat(cols))[perm.argsort()]
    # a block's rows, re then im of each pair, lie one after another in flat,
    # so the blocks of one shape form one contiguous stack
    start = size.cumsum() - size
    pos = np.empty(len(pcomp), int)  # a pair's place when pairs are sorted by block
    pos[pcomp.argsort(kind="stable")] = np.arange(len(pcomp))
    w = cols[pcomp]  # the width of a pair's rows
    row = start[pcomp] + 2 * w * (pos - (npairs.cumsum() - npairs)[pcomp])
    flat = np.zeros(size.sum())
    f, fi, fj, off = factors.ravel(), i[ep] * d, j[ep] * d, en >= d
    x = f[fi + rk[en]].conj() * f[fj + cl[en]]
    y = f[fi + cl[en]].conj() * f[fj + rk[en]] * off  # 0 on the diagonal, where y = x
    at, s, w = row[ep] + local[first[en]], x + y, w[ep]
    flat[at], flat[at + w] = s.real, s.imag  # diagonal: x; sym: x + y
    at, x, y, w = at[off] + 1, x[off], y[off], w[off]
    flat[at], flat[at + w] = x.imag - y.imag, y.real - x.real  # anti: i (y - x)
    flat += 0.0  # no -0.0: one block is then the dense system's rows bit for bit
    solved, top = [], 0.0
    bounds = [0] + ((shape[1:] != shape[:-1]).nonzero()[0] + 1).tolist() + [len(shape)]
    for b0, b1 in zip(bounds, bounds[1:]):
        n, c, rows = b1 - b0, cols[b0], 2 * npairs[b0]
        if rows:
            stack = flat[start[b0]:start[b0] + n * rows * c].reshape(n, rows, c)
            # R keeps the rows' singular values and row space, not rows x rows
            svals, vt = np.linalg.svd(np.linalg.qr(stack, mode="r"))[1:]
            top = max(top, svals[:, 0].max())
            solved.append((svals, vt, perm[col0[b0]:col0[b0] + n * c].reshape(n, c)))
    null = [np.eye(d * d, dtype=bool)[perm[:cols[npairs == 0].sum()]]]  # free nodes
    for svals, vt, where in solved:
        # the whole system's singular values are the union of the blocks'
        rank = (svals > RANK_TOL * top).sum(1)
        if rank.min() == vt.shape[1]:
            continue  # no block of this shape has a nullspace
        keep = np.arange(vt.shape[1]) >= rank[:, None]
        part = np.zeros((keep.sum(), d * d))
        part[np.arange(len(part))[:, None], where.repeat(keep.sum(1), axis=0)] = vt[keep]
        null.append(part)
    null = np.concatenate(null) + 0.0  # likewise no -0.0
    mats = np.zeros((len(null), d, d), dtype=complex)
    mats.real[:, rk, cl] = mats.real[:, cl, rk] = null[:, first]
    mats.imag[:, l, k] = null[:, first[d:] + 1]
    mats.imag[:, k, l] = 0.0 - mats.imag[:, l, k]
    return HermitianSolutionSpace(group=group, local_dim=d, basis_matrices=mats,
                                  factors=factors, pairs=(i, j))


def is_locally_irreducible(basis, partition):
    """True iff every group of the partition only has trivial OPMs."""
    seen = []
    for g in partition:
        seen.extend(g)
    if sorted(seen) != sorted(p for p, _ in basis.parties):
        raise ValueError("partition must cover every party exactly once")
    return all(opm_solution_space(basis, g).dim == 1 for g in partition)


# ---------------------------------------------------------------------------
# eliminating measurements

@dataclass(frozen=True)
class EliminatingOpm:
    """A complete projective OPM for one group with an elimination witness."""

    group: tuple
    effects: tuple          # Hermitian projector matrices summing to identity
    eliminated: tuple       # per effect: labels annihilated by that outcome
    survivors: tuple        # per effect: labels with nonzero outcome weight

    def to_dict(self):
        return {
            "group": list(self.group),
            "n_effects": len(self.effects),
            "effects": [[[ [z.real, z.imag] for z in row] for row in e] for e in self.effects],
            "eliminated": [list(e) for e in self.eliminated],
            "survivors": [list(s) for s in self.survivors],
        }


#: eigenvalues closer than this (relative to the largest) share one projector
EIGEN_CLUSTER_TOL = 1e-7


def _eigen_projectors(h):
    evals, evecs = np.linalg.eigh(h)
    clusters = []
    for idx, ev in enumerate(evals):
        if clusters and abs(ev - clusters[-1][0][-1]) < EIGEN_CLUSTER_TOL * max(1.0, abs(evals[-1])):
            clusters[-1][0].append(ev)
            clusters[-1][1].append(idx)
        else:
            clusters.append(([ev], [idx]))
    projectors = []
    for _, idxs in clusters:
        v = evecs[:, idxs]
        projectors.append(v @ v.conj().T)
    return projectors


def _groupings(projectors):
    """Candidate complete measurements built from spectral projectors."""
    n = len(projectors)
    yield list(projectors)
    if n > 2:
        # binary coarse-grainings: subset vs complement
        for mask in range(1, 2 ** (n - 1)):
            included = [projectors[k] for k in range(n) if mask & (1 << k)]
            excluded = [projectors[k] for k in range(n) if not mask & (1 << k)]
            yield [sum(included), sum(excluded)]


def find_eliminating_opm(basis, group):
    """Search the solution space for a complete projective eliminating OPM.

    Returns None when the space is trivial, and also when no eigenprojector
    grouping of any inspected solution both stays inside the space and
    eliminates a state; a nontrivial space does not by itself guarantee an
    eliminating projective measurement.
    """
    space = opm_solution_space(basis, group)
    if not space.nontrivial:
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
        projectors = _eigen_projectors(h0)
        if len(projectors) < 2:
            continue
        for effects in _groupings(projectors):
            effects = np.array(effects)
            if not space.satisfies(effects):
                continue
            if np.max(np.abs(effects.sum(0) - np.eye(d))) > RANK_TOL:
                continue
            # (E, n): the states each effect annihilates
            killed = np.linalg.norm(space.factors @ effects.transpose(0, 2, 1), axis=2) < RANK_TOL
            if killed.any():
                return EliminatingOpm(
                    group=tuple(group),
                    effects=tuple(effects),
                    eliminated=tuple(tuple(labels[k]) for k in killed),
                    survivors=tuple(tuple(labels[~k]) for k in killed),
                )
    return None


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class GnpbClassification:
    basis: str
    single_dims: dict       # party -> solution space dimension
    merged_dims: dict       # (party, party) -> solution space dimension
    verdict: str            # "TypeI" | "TypeIIa" | "TypeIIb"
    witness: EliminatingOpm | None

    def to_dict(self):
        return {
            "basis": self.basis,
            "single_dims": {p: d for p, d in self.single_dims.items()},
            "merged_dims": {"+".join(g): d for g, d in self.merged_dims.items()},
            "verdict": self.verdict,
            "witness": self.witness.to_dict() if self.witness else None,
        }


def classify(basis):
    """Type of a tripartite basis by where OPM elimination is possible.

    TypeI: some single party already has a nontrivial OPM.  TypeIIa: only
    merged pairs do.  TypeIIb: not even merged pairs do.  The verdict covers
    the elimination hierarchy only; it does not by itself certify local
    indistinguishability.
    """
    parties = [p for p, _ in basis.parties]
    if len(parties) != 3:
        raise ValueError("classification is implemented for tripartite bases")
    if not basis.states:
        raise ValueError("classification needs at least one state")
    single_dims = {p: opm_solution_space(basis, (p,)).dim for p in parties}
    merged_dims = {}
    for i in range(3):
        for j in range(i + 1, 3):
            g = (parties[i], parties[j])
            merged_dims[g] = opm_solution_space(basis, g).dim
    if any(d > 1 for d in single_dims.values()):
        verdict = "TypeI"
        witness_group = next((p,) for p in parties if single_dims[p] > 1)
    elif any(d > 1 for d in merged_dims.values()):
        verdict = "TypeIIa"
        witness_group = next(g for g in merged_dims if merged_dims[g] > 1)
    else:
        verdict = "TypeIIb"
        witness_group = None
    witness = find_eliminating_opm(basis, witness_group) if witness_group else None
    return GnpbClassification(
        basis=basis.name,
        single_dims=single_dims,
        merged_dims=merged_dims,
        verdict=verdict,
        witness=witness,
    )
