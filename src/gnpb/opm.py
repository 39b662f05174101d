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

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations

import numpy as np

from .qstate import RANK_TOL, kron_rows
from .tree import TOL


def group_factorization(basis, group):
    """Per-state group and rest factors, as ``(n_states, d_group)`` and
    ``(n_states, d_rest)`` arrays.

    Factors multiply in party order, so two states' group factors live in
    the same tensor ordering.  An empty rest is the factor ``[1]``.
    """
    idx = {p: i for i, (p, _) in enumerate(basis.parties)}
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
    dim: int
    factors: np.ndarray         # (n_states, d): per-state group factor a_i
    pairs: tuple                # index arrays (i, j) of the constrained pairs
    build: Callable             # () -> basis_matrices, called on their first read

    @cached_property
    def basis_matrices(self):
        """``(dim, d, d)``, orthonormal in opm_solution_space's coordinates;
        only their first read factorises the kept stacks."""
        return self.build()

    def satisfies(self, matrix):
        """Check the OPM constraints directly for one Hermitian matrix, or
        for all of a ``(k, d, d)`` stack at once."""
        i, j = self.pairs
        # <a_s|E|a_t> of all states, then the pairs': no (pairs, d) temporaries
        vals = (self.factors.conj() @ matrix @ self.factors.T)[..., i, j]
        return bool(np.all(np.abs(vals) < RANK_TOL))


def _nodes(d):
    """``k, l`` of the entries above the diagonal, and per node n, the
    diagonal first, its entry {rk[n], cl[n]} and its first coordinate."""
    r = np.arange(d)
    k, l = (r[:, None] < r).nonzero()
    first = np.concatenate([r, np.arange(d, d * d, 2)])
    return k, l, np.concatenate([r, k]), np.concatenate([r, l]), first


def opm_solution_space(basis, group):
    """Solve the OPM constraint system for one party group.

    The real coordinates of a Hermitian E are the diagonal, then per k < l
    the real and minus the imaginary part of E[k, l].  A pair constrains
    only the entries {k, l} (nodes) where its factors are nonzero; the nodes
    that share pairs form independent blocks, each solved by its own
    singular values.  Real factors put the symmetric and the antisymmetric
    coordinates in separate rows and so in separate blocks.  The stacks of
    blocks with a nullspace are kept, and ``basis_matrices`` are built from
    them on their first read.
    """
    group = tuple(group)
    (i, j), factors = constrained_pairs(basis, group)
    d = factors.shape[1]  # from the party dims, so also with no states
    _, _, rk, cl, first = _nodes(d)
    # edges (pair, node) on the exact zero pattern: <a_i|E|a_j> has the
    # terms conj(a_i[k]) a_j[l] E[k, l] + conj(a_i[l]) a_j[k] E[l, k]; per
    # state, the nodes its k and its l levels reach, packed to bits
    nz = factors != 0
    a, b = np.packbits(nz[:, rk], axis=1), np.packbits(nz[:, cl], axis=1)
    touched = np.unpackbits(a[i] & b[j] | b[i] & a[j], axis=1, count=len(rk)).view(bool)
    ep, en = np.divmod(touched.ravel().nonzero()[0], len(rk))
    f, fi, fj, off = factors.ravel(), i[ep] * d, j[ep] * d, en >= d
    x = f[fi + rk[en]].conj() * f[fj + cl[en]]
    y = f[fi + cl[en]].conj() * f[fj + rk[en]] * off  # 0 on the diagonal, where y = x
    s, c0, c1, x, y = x + y, first[en], first[en[off]] + 1, x[off], y[off]
    if np.iscomplexobj(factors):
        # a unit is a node and an equation a pair's re and im rows; cells
        # (edges, row offset, column offset, value) place an edge's entries
        # in its block: the diagonal has x, sym x + y and anti i (y - x)
        width, height, eq, unit, col, n_eq = 1 + (first >= d), 2, ep, en, c0, len(i)
        cells = ((slice(None), 0, 0, s.real), (slice(None), 1, 0, s.imag),
                 (off, 0, 1, x.imag - y.imag), (off, 1, 1, y.real - x.real))
    else:
        # every coordinate is a unit and every row an equation; a row with no edge drops out
        width, height, unit = np.ones(d * d, int), 1, np.concatenate([c0, c1])
        eq = np.concatenate([2 * ep, 2 * ep[off] + 1])
        number = np.concatenate([[0], np.bincount(eq, minlength=2 * len(i)) > 0]).cumsum()
        eq, col, n_eq = number[eq], unit, number[-1]
        cells = ((slice(None), 0, 0, np.concatenate([s, y - x])),)
    n_units = len(width)
    # label propagation: every unit and equation ends with its block's smallest unit
    label = np.arange(n_units)
    while True:
        plabel = np.full(n_eq, n_units - 1)
        np.minimum.at(plabel, eq, label[unit])
        low = label.copy()
        np.minimum.at(low, unit, plabel[eq])
        low = low[low]  # a label's own label lies in the same block and is no larger
        if (low == label).all():
            break
        label = low
    plabel = label[plabel]
    # number the blocks by shape, free units (no equations) first, so that
    # one stacked SVD gives the singular values of all blocks of a shape
    cols = np.bincount(label.repeat(width), minlength=n_units)
    neq = np.bincount(plabel, minlength=n_units)
    shape = neq * (d * d + 1) + cols  # 0 for a unit that is not its block's smallest
    by_shape = shape.argsort(kind="stable")[(shape == 0).sum():]
    block = np.empty(n_units, int)
    block[by_shape] = np.arange(len(by_shape))
    unit_block, eq_block = block[label], block[plabel]
    shape, cols, neq = shape[by_shape], cols[by_shape], neq[by_shape]
    # a block's columns ascend in coordinate order, its rows in pair order
    # (re then im, when a pair is one equation): the nullspace basis the SVD
    # returns, and so the witness found, depends on this order
    perm = unit_block.repeat(width).argsort(kind="stable")
    col0, size = cols.cumsum() - cols, height * neq * cols
    local = (np.arange(d * d) - col0.repeat(cols))[perm.argsort()]
    # a block's rows lie one after another in flat, so the blocks of one
    # shape form one contiguous stack
    start = size.cumsum() - size
    pos = np.empty(n_eq, int)  # an equation's place when equations are sorted by block
    pos[eq_block.argsort(kind="stable")] = np.arange(n_eq)
    w = cols[eq_block]  # the width of an equation's rows
    row = start[eq_block] + height * w * (pos - (neq.cumsum() - neq)[eq_block])
    flat = np.zeros(size.sum())
    at, w = row[eq] + local[col], w[eq]
    for sel, dr, dc, v in cells:
        flat[at[sel] + dr * w[sel] + dc] = v
    flat += 0.0  # no -0.0: one block is then the dense system's rows bit for bit
    free = perm[:cols[neq == 0].sum()]
    solved, top, dim = [], 0.0, len(free)
    bounds = [0] + ((shape[1:] != shape[:-1]).nonzero()[0] + 1).tolist() + [len(shape)]
    for b0, b1 in zip(bounds, bounds[1:]):
        n, c, rows = b1 - b0, cols[b0], height * neq[b0]
        if rows:
            stack = flat[start[b0]:start[b0] + n * rows * c].reshape(n, rows, c)
            svals = np.linalg.svd(stack, compute_uv=False)
            top = max(top, svals[:, 0].max())
            solved.append((stack, svals, perm[col0[b0]:col0[b0] + n * c].reshape(n, c)))
    kept = []
    for stack, svals, where in solved:
        # the whole system's singular values are the union of the blocks'
        rank = (svals > RANK_TOL * top).sum(1)
        if rank.min() < stack.shape[2]:  # some block of this shape has a nullspace
            kept.append((stack, rank, where))
            dim += (stack.shape[2] - rank).sum()
    return HermitianSolutionSpace(
        group=group, local_dim=d, dim=int(dim), factors=factors, pairs=(i, j),
        build=partial(_basis_matrices, d, free, kept))


def _basis_matrices(d, free, kept):
    """The solution space's basis: the free coordinates' units, then per
    kept stack the right singular vectors of its QR factor R past each
    block's rank."""
    null = [np.eye(d * d, dtype=bool)[free]]
    for stack, rank, where in kept:
        # R keeps the rows' row space, not rows x rows
        vt = np.linalg.svd(np.linalg.qr(stack, mode="r"))[2]
        keep = np.arange(vt.shape[1]) >= rank[:, None]
        part = np.zeros((keep.sum(), d * d))
        part[np.arange(len(part))[:, None], where.repeat(keep.sum(1), axis=0)] = vt[keep]
        null.append(part)
    null = np.concatenate(null) + 0.0  # likewise no -0.0
    k, l, rk, cl, first = _nodes(d)
    mats = np.zeros((len(null), d, d), dtype=complex)
    mats.real[:, rk, cl] = mats.real[:, cl, rk] = null[:, first]
    mats.imag[:, l, k] = null[:, first[d:] + 1]
    mats.imag[:, k, l] = 0.0 - mats.imag[:, l, k]
    return mats


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
    # ascending: a cluster ends at each gap not below the tolerance, a NaN gap too
    close = np.diff(evals) < EIGEN_CLUSTER_TOL * max(1.0, abs(evals[-1]))
    return [v @ v.conj().T for v in np.split(evecs, np.flatnonzero(~close) + 1, axis=1)]


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
    if not space.dim > 1:
        return None
    labels = np.array(basis.labels, dtype=object)
    d = space.local_dim

    def candidates():  # the seeded draw (and numpy.random) only when no basis matrix eliminates
        yield from space.basis_matrices
        coeffs = np.random.default_rng(0).normal(size=(20, space.dim))
        yield from np.tensordot(coeffs, space.basis_matrices, axes=1)

    for h in candidates():
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

    The groups are solved in the order A, B, C, A+B, A+C, B+C, and the
    witness group is the first whose solution space has dimension above 1:
    a single party gives TypeI, a merged pair TypeIIa, and no such group
    TypeIIb.  The verdict covers the elimination hierarchy only; it does not
    by itself certify local indistinguishability.
    """
    parties = [p for p, _ in basis.parties]
    if len(parties) != 3:
        raise ValueError("classification is implemented for tripartite bases")
    if not basis.states:
        raise ValueError("classification needs at least one state")
    groups = [(p,) for p in parties] + list(combinations(parties, 2))
    dims = {g: opm_solution_space(basis, g).dim for g in groups}
    witness_group = next((g for g in groups if dims[g] > 1), ())
    return GnpbClassification(
        basis=basis.name,
        single_dims={p: dims[(p,)] for p in parties},
        merged_dims={g: dims[g] for g in groups if len(g) == 2},
        verdict=("TypeIIb", "TypeI", "TypeIIa")[len(witness_group)],  # by the group's size
        witness=find_eliminating_opm(basis, witness_group) if witness_group else None,
    )
