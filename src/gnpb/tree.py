"""The protocol vocabulary, free of numpy: kets, effects, tree nodes, names.

A protocol is a finite tree of measurement, resource-attachment and
party-merge nodes with per-outcome children, where an outcome child may
be a :class:`Mirror` of a sibling's subtree; its effects are sums of
``P[...]`` product terms over :class:`KetExpr` kets.  This module holds
those types, the resource kinds, the one comparison tolerance and the
names of the built-in bases and protocols.  It imports no numpy, so
parsing and serializing ``.pdl`` text (:mod:`gnpb.pdl`), ``gnpb list`` and
every usage error start fast; :mod:`gnpb.engine` runs the trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

#: Global comparison tolerance.  Every amplitude occurring in the supported
#: state families is 0, +-1, +-1/2, +-1/sqrt2 or 1/sqrt3, so a single loose
#: cutoff is safe at the dimensions involved (<= a few thousand).
TOL = 1e-9

#: The built-in bases and protocols, in ``gnpb list`` order.
#: ``bases.BUILTIN_BASES`` holds the bases' builders and
#: ``protocols.BUILTIN_PROTOCOLS`` the protocols' declared budgets under these names.
BASIS_NAMES = ("bennett_3x3", "B_I_43", "B_II_43", "B_II_33", "B_IIb_33", "shift_222")
PROTOCOL_NAMES = ("prop5_II33", "prop5_IIb33", "prop6", "prop7", "prop8", "remark2",
                  "typeI_43", "shift_BC", "shift_AB", "shift_CA")

#: kind -> (local dims, ebits across any single-party cut, support): the
#: state is the uniform superposition of the flat levels in its support
RESOURCE_KINDS = {
    "EPR": ((2, 2), 1.0, (0, 3)),
    "EPR3": ((3, 3), log2(3), (0, 4, 8)),
    "GHZ": ((2, 2, 2), 1.0, (0, 7)),
    "W": ((2, 2, 2), log2(3) - 2.0 / 3.0, (1, 2, 4)),
}


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
        import numpy as np  # only the computing layers call this

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
        """The ket with every level ``l`` replaced by ``perm[l]``."""
        levels = (self.i,) if self.j is None else (self.i, self.j)
        if not all(0 <= lvl < len(perm) for lvl in levels):
            raise ValueError(f"ket levels {levels} lie outside the level permutation {perm}")
        if self.j is None:
            return KetExpr(perm[self.i])
        return KetExpr(perm[self.i], perm[self.j], self.sign)


# ---------------------------------------------------------------------------
# projector expressions (the P[...] calculus used by all protocols)

@dataclass(frozen=True)
class PTerm:
    """One P[...] product term: per-register ket lists, identity if omitted."""

    factors: tuple  # of (register name, tuple[KetExpr] | None)

    def registers(self):
        return tuple(name for name, _ in self.factors)

    def restricted(self):
        return tuple(name for name, ks in self.factors if ks is not None)


@dataclass(frozen=True)
class Effect:
    """A named effect: a sum of product terms, or the node remainder."""

    name: str
    terms: tuple | None  # None: identity minus the sum of sibling effects

    @property
    def is_rest(self):
        return self.terms is None


# ---------------------------------------------------------------------------
# protocol nodes

@dataclass
class Measure:
    actor: str
    effects: tuple
    children: dict

    def acted(self):
        names: list[str] = []
        for e in self.effects:
            if e.is_rest:
                continue
            for t in e.terms:
                for n in t.registers():
                    if n not in names:
                        names.append(n)
        return tuple(names)

    def restricted(self):
        names = set()
        for e in self.effects:
            if e.is_rest:
                continue
            for t in e.terms:
                names.update(t.restricted())
        return frozenset(names)


@dataclass
class AttachResource:
    kind: str
    endpoints: tuple
    labels: tuple
    child: object

    def __post_init__(self):
        dims = RESOURCE_KINDS[self.kind][0]
        if len(self.labels) != len(dims) or len(self.endpoints) != len(dims):
            raise ValueError(f"{self.kind} requires {len(dims)} endpoints/labels")


@dataclass
class MergeParties:
    source: str
    destination: str
    cost: float
    child: object


@dataclass
class Identify:
    label: str


@dataclass
class Distinguishable:
    labels: frozenset

    def __init__(self, labels):
        self.labels = frozenset(labels)


@dataclass
class Fail:
    pass


@dataclass(frozen=True)
class Mirror:
    """An outcome child that repeats sibling outcome ``outcome``'s subtree
    with |0> and |1> swapped on the qubit ``registers``;
    :func:`gnpb.engine.conjugate_tree` expands it."""

    outcome: str
    registers: tuple
