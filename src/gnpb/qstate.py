"""Dense complex linear algebra over small labeled tensor-product spaces.

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

    def __repr__(self):
        inner = ", ".join(f"{s.name}:{s.dim}" for s in self.subsystems)
        return f"CompositeSpace({inner})"

    def __eq__(self, other):
        return isinstance(other, CompositeSpace) and self.subsystems == other.subsystems

    def __hash__(self):
        return hash(self.subsystems)

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

    def split_axes(self, front_names, amplitudes):
        """Reshape a flat vector to (dim(front), dim(rest)), front in given order."""
        tensor = np.asarray(amplitudes).reshape(self.dims if self.dims else (1,))
        front_axes = [self.axis(n) for n in front_names]
        rest_axes = [i for i in range(len(self.dims)) if i not in front_axes]
        moved = np.transpose(tensor, front_axes + rest_axes)
        d_front = prod(self.dims[a] for a in front_axes) if front_axes else 1
        return moved.reshape(d_front, -1)

    def unsplit_axes(self, front_names, matrix):
        """Inverse of :meth:`split_axes`: back to the flat amplitude vector."""
        front_axes = [self.axis(n) for n in front_names]
        rest_axes = [i for i in range(len(self.dims)) if i not in front_axes]
        shaped = matrix.reshape([self.dims[a] for a in front_axes + rest_axes])
        inverse = np.argsort(front_axes + rest_axes)
        return np.transpose(shaped, inverse).reshape(-1)


class Ket:
    """A pure state: flat complex amplitudes over a composite space."""

    def __init__(self, space, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (space.dim,):
            raise ValueError(f"amplitude length {amps.shape[0]} != space dim {space.dim}")
        amps = amps.copy()
        amps.setflags(write=False)
        self.space = space
        self.amplitudes = amps

    def __repr__(self):
        return f"Ket(dim={self.space.dim})"

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol=TOL):
        return abs(self.norm - 1.0) < tol


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
        v = np.zeros(dim, dtype=complex)
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


def born(space, acted, matrix, amplitudes, tol=TOL):
    """Born rule for a projective effect on the named registers ``acted``.

    ``matrix`` acts on ``acted`` in the given order and ``amplitudes`` is a
    flat vector over ``space``.  Returns ``(probability, post)``; ``post`` is
    the normalized flat post-state, or None when the probability is at most
    ``tol``.
    """
    projected = matrix @ space.split_axes(acted, amplitudes)
    prob = float(np.linalg.norm(projected) ** 2)
    if prob > tol:
        return prob, space.unsplit_axes(acted, projected) / np.sqrt(prob)
    return prob, None


def schmidt_ebits(state, cut, tol=TOL):
    """Base-2 entanglement entropy of a normalized pure state across a cut.

    ``cut`` names the subsystems on one side; the other side is the rest.
    """
    if not state.is_normalized(1e-6):
        raise ValueError("schmidt_ebits expects a normalized state")
    names = set(cut)
    all_names = set(state.space.names)
    if not names or not names < all_names:
        raise ValueError("cut must be a proper nonempty subset of subsystem names")
    mat = state.space.split_axes(tuple(n for n in state.space.names if n in names),
                                 state.amplitudes)
    svals = np.linalg.svd(mat, compute_uv=False)
    probs = svals**2
    probs = probs[probs > tol]
    return float(-np.sum(probs * np.log2(probs)))


def pairwise_max_overlap(vectors):
    """Largest |<v_i|v_j>| over i != j for unit-normalized rows."""
    if len(vectors) < 2:
        return 0.0
    stack = np.array([v / np.linalg.norm(v) for v in vectors])
    gram = stack.conj() @ stack.T
    np.fill_diagonal(gram, 0.0)
    return float(np.max(np.abs(gram)))
