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

from .qstate import RANK_TOL, TOL


def _party_index(basis):
    return {p: i for i, (p, _) in enumerate(basis.parties)}


def _kron_rows(x, y):
    """Row-wise Kronecker product of an (n, a) and an (n, b) array."""
    return (x[:, :, None] * y[:, None, :]).reshape(len(x), x.shape[1] * y.shape[1])


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
    n = len(basis.states)
    group_factors = rest_factors = np.ones((n, 1), dtype=complex)
    for i, (_, d) in enumerate(basis.parties):
        f = np.array([st.factors[i] for st in basis.states], dtype=complex).reshape(n, d)
        if i in group_pos:
            group_factors = _kron_rows(group_factors, f)
        else:
            rest_factors = _kron_rows(rest_factors, f)
    return group_factors, rest_factors


def constrained_pairs(basis, group):
    """Index arrays ``(i, j)``, ``i < j``, of the state pairs whose rest
    overlap forces ``<a_i|E|a_j> = 0``, and the per-state group factors."""
    group_factors, rest_factors = group_factorization(basis, group)
    gram = np.abs(rest_factors.conj() @ rest_factors.T)
    return np.nonzero(np.triu(gram > TOL, k=1)), group_factors


def hermitian_basis(d):
    """Real basis of d x d Hermitian matrices, as a ``(d^2, d, d)`` array.

    The d diagonal units come first, then for each ``k < l`` the symmetric
    and the antisymmetric element on (k, l).
    """
    mats = np.zeros((d * d, d, d), dtype=complex)
    diag = np.arange(d)
    mats[diag, diag, diag] = 1.0
    k, l = np.triu_indices(d, 1)
    sym = d + 2 * np.arange(len(k))
    mats[sym, k, l] = mats[sym, l, k] = 1.0
    mats[sym + 1, k, l] = -1.0j
    mats[sym + 1, l, k] = 1.0j
    return mats


@dataclass(frozen=True)
class HermitianSolutionSpace:
    """All Hermitian effects a party group may use in an orthogonality-preserving first measurement."""

    group: tuple
    local_dim: int
    basis_matrices: np.ndarray  # (dim, d, d), Hilbert-Schmidt orthonormal
    factors: np.ndarray         # (n_states, d): per-state group factor a_i
    pairs: tuple                # index arrays (i, j) of the constrained pairs

    @property
    def dim(self):
        return len(self.basis_matrices)

    @property
    def nontrivial(self):
        return self.dim > 1

    def satisfies(self, matrix):
        """Check the OPM constraints directly for one Hermitian matrix."""
        i, j = self.pairs
        vals = np.einsum("pk,kl,pl->p", self.factors[i].conj(), matrix, self.factors[j])
        return bool(np.all(np.abs(vals) < RANK_TOL))


def opm_solution_space(basis, group):
    """Solve the OPM constraint system for one party group.

    Returns an orthonormal (in Hilbert-Schmidt sense) basis of the real
    solution space, computed by SVD nullspace extraction over the real
    parametrization of Hermitian matrices.
    """
    group = tuple(group)
    (i, j), factors = constrained_pairs(basis, group)
    d = factors.shape[1]  # from the party dims, so also with no states
    h_flat = hermitian_basis(d).reshape(d * d, d * d)
    if len(i):
        # <a_i|h|a_j> = vec(conj(a_i) (x) a_j) . vec(h): all pairs, all h at once
        vals = _kron_rows(factors[i].conj(), factors[j]) @ h_flat.T
        # one (re, im) row pair per constrained pair: the nullspace basis the
        # SVD returns, and so the witness found, depends on the row order
        rows = np.stack([vals.real, vals.imag], axis=1).reshape(-1, d * d)
        # R has the rows' singular values and row space, and its SVD skips
        # the rows x rows left factor
        _, svals, vt = np.linalg.svd(np.linalg.qr(rows, mode="r"))
        rank = int(np.sum(svals > RANK_TOL * svals[0]))
        null_rows = vt[rank:]
    else:
        null_rows = np.eye(d * d)
    return HermitianSolutionSpace(
        group=group,
        local_dim=d,
        basis_matrices=(null_rows @ h_flat).reshape(-1, d, d),
        factors=factors,
        pairs=(i, j),
    )


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
            if not all(space.satisfies(e) for e in effects):
                continue
            total = sum(effects)
            if np.max(np.abs(total - np.eye(d))) > RANK_TOL:
                continue
            eliminated, survivors = [], []
            for e in effects:
                killed = np.linalg.norm(space.factors @ e.T, axis=1) < RANK_TOL
                eliminated.append(tuple(labels[killed]))
                survivors.append(tuple(labels[~killed]))
            if any(eliminated):
                return EliminatingOpm(
                    group=tuple(group),
                    effects=tuple(effects),
                    eliminated=tuple(eliminated),
                    survivors=tuple(survivors),
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
