"""Dense linear algebra over small labeled tensor-product spaces.

Registers are identified by name, never by position: every embedding of an
operator into the joint space goes through subsystem labels, which keeps
party bookkeeping honest when protocols attach ancillas or merge parties.
All values are immutable after construction and every operation is a pure
function.  :class:`KetExpr` is the one ket vocabulary (bases and effects
are built from it) and :func:`born` is the one Born rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator, NamedTuple

import numpy as np

#: Global comparison tolerance.  Every amplitude occurring in the supported
#: state families is 0, +-1, +-1/2, +-1/sqrt2 or 1/sqrt3, so a single loose
#: cutoff is safe at the dimensions involved (<= a few thousand).
TOL = 1e-9

#: Looser cutoff used for rank decisions and orthogonality-preservation
#: checks, relative to unit-normalized vectors.
RANK_TOL = 1e-8


class LabelCollisionError(ValueError):
    """Raised when two subsystems with the same name meet in one space."""


@dataclass(frozen=True)
class Subsystem:
    """One labeled register: a name, a local dimension and an owning party."""

    name: str
    dim: int
    owner: str

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"subsystem {self.name!r} must have dim >= 1")


class CompositeSpace:
    """An ordered collection of uniquely named subsystems."""

    def __init__(self, subsystems):
        subs = tuple(subsystems)
        names = [s.name for s in subs]
        if len(set(names)) != len(names):
            raise LabelCollisionError(f"duplicate subsystem names in {names}")
        self.subsystems = subs
        self._index = {s.name: i for i, s in enumerate(subs)}
        self.dims = tuple(s.dim for s in subs)
        self.dim = prod(self.dims) if subs else 1
        self._hash = None

    def __repr__(self):
        inner = ", ".join(f"{s.name}:{s.dim}" for s in self.subsystems)
        return f"CompositeSpace({inner})"

    def __eq__(self, other):
        return isinstance(other, CompositeSpace) and self.subsystems == other.subsystems

    def __hash__(self):
        # a walk keys its index tables by space, so each is hashed once
        if self._hash is None:
            self._hash = hash(self.subsystems)
        return self._hash

    @property
    def names(self):
        return tuple(s.name for s in self.subsystems)

    def axis(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no subsystem named {name!r} in {self}") from None

    def subsystem(self, name):
        return self.subsystems[self.axis(name)]

    def extended(self, extra):
        """New space with additional subsystems appended."""
        return CompositeSpace(self.subsystems + tuple(extra))

    def without(self, names):
        drop = set(names)
        return CompositeSpace(s for s in self.subsystems if s.name not in drop)

    def reowned(self, owner_map):
        """New space with owners remapped (used for party merges)."""
        return CompositeSpace(
            Subsystem(s.name, s.dim, owner_map.get(s.owner, s.owner))
            for s in self.subsystems
        )

    def owners(self):
        """Mapping party -> tuple of subsystem names it holds."""
        held: dict[str, list[str]] = {}
        for s in self.subsystems:
            held.setdefault(s.owner, []).append(s.name)
        return {p: tuple(ns) for p, ns in held.items()}

    def _axes(self, front_names):
        front = [self.axis(n) for n in front_names]
        order = front + [i for i in range(len(self.dims)) if i not in front]
        return order, prod(self.dims[a] for a in front)

    def split_axes(self, front_names, amplitudes):
        """Reshape flat vectors to (dim(front), dim(rest)), front in given order.

        ``amplitudes`` is one flat vector or a stack ``(..., dim)``; leading
        axes are kept, so an ``(n, dim)`` stack becomes ``(n, d_front, d_rest)``.
        """
        amps = np.asarray(amplitudes)
        lead = amps.shape[:-1]
        order, d_front = self._axes(front_names)
        k = len(lead)
        tensor = amps.reshape(lead + self.dims)
        moved = np.transpose(tensor, list(range(k)) + [k + a for a in order])
        return moved.reshape(lead + (d_front, self.dim // d_front))

    def unsplit_axes(self, front_names, matrix):
        """Inverse of :meth:`split_axes`: back to flat vectors (leading axes kept)."""
        lead = matrix.shape[:-2]
        order, _ = self._axes(front_names)
        k = len(lead)
        shaped = matrix.reshape(lead + tuple(self.dims[a] for a in order))
        inverse = list(range(k)) + [k + a for a in np.argsort(order)]
        return np.transpose(shaped, inverse).reshape(lead + (self.dim,))


class Ket:
    """A pure state: flat amplitudes over a composite space (real or complex)."""

    def __init__(self, space, amplitudes):
        amps = np.asarray(amplitudes)
        amps = amps.astype(np.result_type(amps, float)).reshape(-1)  # a copy
        if amps.shape != (space.dim,):
            raise ValueError(f"amplitude length {amps.shape[0]} != space dim {space.dim}")
        amps.setflags(write=False)
        self.space = space
        self.amplitudes = amps

    def __repr__(self):
        return f"Ket(dim={self.space.dim})"


@dataclass(frozen=True)
class KetExpr:
    """A computational ket |i> or a two-term superposition (|i> + s|j>)/sqrt2."""

    i: int
    j: int | None = None
    sign: int = 1

    def __post_init__(self):
        if self.j is not None:
            if self.i == self.j:
                raise ValueError("superposition needs two distinct levels")
            if self.sign not in (1, -1):
                raise ValueError("sign must be +-1")
            if self.i > self.j:
                # same ray up to a global phase; keep a canonical order
                lo, hi = self.j, self.i
                object.__setattr__(self, "i", lo)
                object.__setattr__(self, "j", hi)

    def vector(self, dim):
        levels = (self.i,) if self.j is None else (self.i, self.j)
        if not all(0 <= lvl < dim for lvl in levels):
            raise ValueError(f"ket levels {levels} out of range for dimension {dim}")
        v = np.zeros(dim)
        if self.j is None:
            v[self.i] = 1.0
        else:
            v[self.i] = 1.0 / np.sqrt(2.0)
            v[self.j] = self.sign / np.sqrt(2.0)
        return v

    def permuted(self, perm):
        if self.j is None:
            return KetExpr(perm[self.i])
        a, b = perm[self.i], perm[self.j]
        if a > b:
            a, b = b, a
        return KetExpr(a, b, self.sign)


class Born(NamedTuple):
    """Outcome of :func:`born`: E effects applied to a stack of n states."""

    probs: np.ndarray   # (E, n): probability of effect e on state c
    sums: np.ndarray    # (n,): total probability of each state over the effects
    survivors: tuple    # per effect: indices of the states with probability > tol
    posts: Iterator     # per effect, in turn: (values, cols) of the survivors' post-states


def group_index(space, groups, memo):
    """``(len(groups), D)`` table: row g holds, for every flat index of
    ``space``, the flat index over the registers ``groups[g]`` in the order
    given.  ``memo``, a dict the caller keeps, holds the tables built."""
    key = (space, groups)
    if key not in memo:
        coords = np.indices(space.dims).reshape(len(space.dims), space.dim)
        table = memo[key] = np.zeros((len(groups), space.dim), np.intp)
        for row, names in zip(table, groups):
            for name in names:
                row *= space.subsystem(name).dim
                row += coords[space.axis(name)]
    return memo[key]


def scatter(stack, index, dims, whole=0):
    """Scatter the ``(n, C)`` ``stack``, whose column j sits at level
    ``index[g, j]`` of group g (of ``dims[g]`` levels), into a dense
    ``(n, d'_1, ..., d'_k)`` tensor over only the levels some column uses,
    kept in ascending order.  The first ``whole`` groups keep all their
    levels.  Returns the tensor and, per group, its levels."""
    levels, at = [], []
    for g, (row, d) in enumerate(zip(index, dims)):
        if g < whole:
            levels.append(np.arange(d))
            at.append(row)
            continue
        used = np.zeros(d, bool)
        used[row] = True
        levels.append(used.nonzero()[0])
        at.append(levels[-1].searchsorted(row))
    tensor = np.zeros((len(stack),) + tuple(map(len, levels)), stack.dtype)
    tensor[(slice(None),) + tuple(at)] = stack
    return tensor, levels


def born(space, acted, matrices, stack, cols, memo, tol):
    """Born rule for projective effects on the named registers ``acted``.

    ``matrices`` is a sequence of E effect matrices acting on ``acted`` in
    the given order.  ``stack`` is an ``(n, C)`` array of states over
    ``space``: column j holds flat index ``cols[j]`` (the indices are
    distinct, in any order) and every other amplitude is zero.  The states
    are scattered into an ``(n, d, R')`` block over the R' rest indices they
    use, ascending.  Probabilities are ``tr(M_e rho_c)`` with ``rho_c`` the
    reduced state of the acted registers; only the (effect, state) pairs
    above ``tol`` are projected.  Each effect's post-states come when the
    caller reaches them, as ``(values, cols)``: a ``(k, C')`` stack whose
    columns run acted index first, then rest index, with all-zero columns
    dropped, and their flat indices in ``space``.  ``memo`` keeps the
    :func:`group_index` tables and their inverses.  The dtype follows the
    inputs: real effects on real states stay real.
    """
    mats = np.asarray(matrices)
    acted = tuple(acted)
    rest = tuple(s.name for s in space.subsystems if s.name not in acted)
    d = mats.shape[1]
    r = space.dim // d
    index = group_index(space, (acted, rest), memo)
    block, (_, kept) = scatter(stack, index[:, cols], (d, r), whole=1)
    rho = block @ block.conj().transpose(0, 2, 1)              # (n, d, d)
    probs = np.einsum("eij,cji->ec", mats, rho).real           # tr(M_e rho_c)
    survivors = tuple((row > tol).nonzero()[0] for row in probs)
    key = ("inverse", space, acted)
    if key not in memo:  # (d, R): the flat index of each (acted, rest) index pair
        memo[key] = (index[0] * r + index[1]).argsort().reshape(d, r)
    flat = memo[key][:, kept]

    def posts():
        for m, row, idx in zip(mats, probs, survivors):
            projected = m @ block[idx]                         # (k, d, R')
            projected /= np.sqrt(row[idx])[:, None, None]
            nonzero = projected.any(axis=0)
            yield projected[:, nonzero], flat[nonzero]

    return Born(probs, probs.sum(axis=0), survivors, posts())


def schmidt_ebits(state, cut):
    """Base-2 entanglement entropy of a normalized pure state across a cut.

    ``cut`` names the subsystems on one side; the other side is the rest.
    """
    if not abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-6:
        raise ValueError("schmidt_ebits expects a normalized state")
    names = set(cut)
    all_names = set(state.space.names)
    if not names or not names < all_names:
        raise ValueError("cut must be a proper nonempty subset of subsystem names")
    mat = state.space.split_axes(tuple(n for n in state.space.names if n in names),
                                 state.amplitudes)
    svals = np.linalg.svd(mat, compute_uv=False)
    probs = svals**2
    probs = probs[probs > TOL]
    return float(-np.sum(probs * np.log2(probs)))


def kron_rows(arrays):
    """Row-wise Kronecker product of ``(n, d_p)`` arrays, first most
    significant: row i holds the same products as ``np.kron`` of the rows i."""
    out = arrays[0]
    for a in arrays[1:]:
        out = (out[:, :, None] * a[:, None, :]).reshape(len(out), out.shape[1] * a.shape[1])
    return out


def pairwise_max_overlap(vectors):
    """Largest |<v_i|v_j>| over i != j for unit-normalized rows."""
    if len(vectors) < 2:
        return 0.0
    stack = np.array([v / np.linalg.norm(v) for v in vectors])
    gram = stack.conj() @ stack.T
    np.fill_diagonal(gram, 0.0)
    return float(np.max(np.abs(gram)))
