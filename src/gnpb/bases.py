"""Constructors for the orthogonal product bases and resource states.

Each basis is an explicit table of product states with canonical labels so
protocol trees can refer to states by name.  Integrity (orthogonality,
completeness, product structure) is never assumed: :func:`check_basis`
recomputes it from the amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .qstate import RANK_TOL, CompositeSpace, Ket, Subsystem, kron_rows, pairwise_max_overlap
from .tree import RESOURCE_KINDS, TOL, KetExpr


# ---------------------------------------------------------------------------
# local ket catalog

def comp(i, dim):
    """Computational ket |i> in the given local dimension."""
    return KetExpr(i).vector(dim)


def eta(sign, dim=3):
    """(|0> +- |1>)/sqrt2."""
    return KetExpr(0, 1, sign).vector(dim)


def xi(sign, dim=3):
    """(|1> +- |2>)/sqrt2."""
    return KetExpr(1, 2, sign).vector(dim)


def kappa(sign, dim=3):
    """(|0> +- |2>)/sqrt2."""
    return KetExpr(0, 2, sign).vector(dim)


def chi(sign, dim=4):
    """(|2> +- |3>)/sqrt2."""
    return KetExpr(2, 3, sign).vector(dim)


_SIGN = {1: "p", -1: "m"}
SIGNS = (1, -1)


# ---------------------------------------------------------------------------
# product bases

@dataclass(frozen=True)
class ProductState:
    """One fully product basis state: a label plus per-party local vectors."""

    label: str
    factors: tuple

    def joint(self):
        amps = self.factors[0]
        for f in self.factors[1:]:
            amps = np.kron(amps, f)
        return amps


class OrthoProductBasis:
    """A labeled set of fully product states on a fixed party structure."""

    def __init__(self, name, parties, states):
        self.name = name
        self.parties = tuple((str(p), int(d)) for p, d in parties)
        seen = set()
        for st in states:
            if st.label in seen:
                raise ValueError(f"duplicate state label {st.label!r}")
            seen.add(st.label)
            if len(st.factors) != len(self.parties):
                raise ValueError(f"state {st.label!r} has wrong number of factors")
            for f, (pname, d) in zip(st.factors, self.parties):
                if len(f) != d:
                    raise ValueError(f"state {st.label!r}: factor for {pname} has wrong dim")
        self.states = tuple(states)
        self._by_label = {st.label: st for st in self.states}

    def __len__(self):
        return len(self.states)

    def __repr__(self):
        return f"OrthoProductBasis({self.name!r}, {len(self.states)} states)"

    @property
    def labels(self):
        return tuple(st.label for st in self.states)

    @property
    def total_dim(self):
        return prod(d for _, d in self.parties)

    def state(self, label):
        try:
            return self._by_label[label]
        except KeyError:
            raise KeyError(f"no state labeled {label!r} in basis {self.name}") from None

    def space(self):
        """Composite space of the principal registers (one per party)."""
        return CompositeSpace(Subsystem(p, d, p) for p, d in self.parties)

    def joint_ket(self, label):
        return Ket(self.space(), self.state(label).joint())

    def factor_arrays(self):
        """Per party, in party order, the ``(n_states, d)`` array of its factors."""
        n = len(self.states)
        return [np.array([st.factors[p] for st in self.states]).reshape(n, d)
                for p, (_, d) in enumerate(self.parties)]

    def joint_matrix(self):
        return kron_rows(self.factor_arrays())

    # -- JSON interchange ---------------------------------------------------

    def to_json(self):
        import json  # JSON documents only: a verify process never loads it

        doc = {
            "parties": [{"name": p, "dim": d} for p, d in self.parties],
            "states": [
                {
                    "label": st.label,
                    "factors": [
                        [[float(a.real), float(a.imag)] for a in f] for f in st.factors
                    ],
                }
                for st in self.states
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text, name="imported"):
        """Read a basis document; every factor comes back unit-normalized.

        Raises ValueError for a document that cannot hold a product basis:
        a party name that is not a string, a party dim that is not a JSON
        integer or is below 1, a repeated party name, a non-string or
        repeated label, or a factor whose norm is zero or not finite (a
        NaN or Infinity amplitude, or one so large that the norm overflows).
        """
        import json

        doc = json.loads(text)
        parties = [(p["name"], p["dim"]) for p in doc["parties"]]
        for p, d in parties:
            if not isinstance(p, str):
                raise ValueError(f"party name {p!r} is not a string")
            if isinstance(d, bool) or not isinstance(d, int):
                raise ValueError(f"party {p!r} has dim {d!r}, not an integer")
            if d < 1:
                raise ValueError(f"party {p!r} has dim {d}, below 1")
        names = [p for p, _ in parties]
        if len(set(names)) != len(names):
            raise ValueError(f"repeated party name in {names}")
        states = []
        for entry in doc["states"]:
            label = entry["label"]
            if not isinstance(label, str):
                raise ValueError(f"state label {label!r} is not a string")
            factors = []
            for f in entry["factors"]:
                vec = np.array([complex(re, im) for re, im in f])
                if not np.isfinite(vec).all():  # json reads NaN, Infinity
                    raise ValueError(f"state {label!r} has a non-finite amplitude")
                with np.errstate(over="ignore"):
                    norm = np.linalg.norm(vec)
                if not 0 < norm < np.inf:
                    raise ValueError(f"state {label!r} has a factor of norm {norm}")
                factors.append(vec / norm)
            states.append(ProductState(label, tuple(factors)))
        return cls(name, parties, states)


@dataclass(frozen=True)
class IntegrityReport:
    name: str
    cardinality: int
    total_dim: int
    local_dims: tuple
    max_overlap: float
    completeness_rank: int

    @property
    def orthogonal(self):
        return self.max_overlap < TOL

    @property
    def complete(self):
        return self.completeness_rank == self.total_dim and self.cardinality == self.total_dim

    def to_dict(self):
        return {
            "name": self.name,
            "cardinality": self.cardinality,
            "total_dim": self.total_dim,
            "local_dims": list(self.local_dims),
            "max_overlap": self.max_overlap,
            "completeness_rank": self.completeness_rank,
            "orthogonal": self.orthogonal,
            "complete": self.complete,
        }


def check_basis(basis):
    """Recompute cardinality, pairwise overlaps and span rank from scratch."""
    mat = basis.joint_matrix()
    rank = int(np.linalg.matrix_rank(mat, tol=RANK_TOL)) if len(mat) else 0
    return IntegrityReport(
        name=basis.name,
        cardinality=len(basis),
        total_dim=basis.total_dim,
        local_dims=tuple(d for _, d in basis.parties),
        max_overlap=pairwise_max_overlap(mat) if len(mat) > 1 else 0.0,
        completeness_rank=rank,
    )


# ---------------------------------------------------------------------------
# the two-qutrit nonlocal product basis (domino tiles)

def _bennett_states(dim=3):
    """The nine 2-qutrit domino states, as (label, (factor, factor)) pairs."""
    out = []
    for s in SIGNS:
        out.append((f"0e{_SIGN[s]}", (comp(0, dim), eta(s, dim))))
    for s in SIGNS:
        out.append((f"e{_SIGN[s]}2", (eta(s, dim), comp(2, dim))))
    for s in SIGNS:
        out.append((f"2x{_SIGN[s]}", (comp(2, dim), xi(s, dim))))
    for s in SIGNS:
        out.append((f"x{_SIGN[s]}0", (xi(s, dim), comp(0, dim))))
    out.append(("11", (comp(1, dim), comp(1, dim))))
    return out


def bennett_npb_3x3():
    """The nine-state two-qutrit nonlocal product basis."""
    states = [ProductState(lbl, fs) for lbl, fs in _bennett_states()]
    return OrthoProductBasis("bennett_3x3", [("A", 3), ("B", 3)], states)


# ---------------------------------------------------------------------------
# three-ququad bases

_R_TABLE = [
    (3, 0, 3), (3, 1, 3), (3, 2, 3), (3, 3, 0),
    (3, 3, 1), (3, 3, 2), (3, 3, 3), (2, 0, 0),
    (2, 0, 1), (2, 0, 2), (2, 1, 0), (2, 1, 1),
    (2, 1, 2), (2, 2, 0), (2, 2, 1), (2, 2, 2),
    (2, 3, 0), (2, 3, 1), (2, 3, 2), (2, 3, 3),
    (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0),
    (0, 1, 1), (0, 1, 2), (0, 2, 0), (0, 2, 1),
    (0, 2, 2), (0, 3, 0), (0, 3, 1), (0, 3, 2),
    (0, 3, 3), (1, 0, 0), (1, 0, 1), (1, 0, 2),
    (1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 0),
    (1, 2, 1), (1, 2, 2), (1, 3, 0), (1, 3, 1),
    (1, 3, 2), (1, 3, 3),
]


def _comp_label(triple):
    return "".join(str(i) for i in triple)


def basis_I_43():
    """64-state three-ququad basis reducible by a local 3-vs-rest projection."""
    states = []
    for lbl, (f1, f2) in _bennett_states(4):
        states.append(ProductState(f"3_{lbl}", (comp(3, 4), f1, f2)))
    for lbl, (f1, f2) in _bennett_states(4):
        states.append(ProductState(f"{lbl}_3", (f1, f2, comp(3, 4))))
    for triple in _R_TABLE:
        states.append(ProductState(_comp_label(triple), tuple(comp(i, 4) for i in triple)))
    return OrthoProductBasis("B_I_43", [("A", 4), ("B", 4), ("C", 4)], states)


#: Computational states swapped out when passing from B_I(4,3) to B_II(4,3).
_II_43_REMOVED = ["032", "033", "222", "232", "231", "331"]


def basis_II_43():
    """64-state three-ququad basis made locally irreducible by extra twists."""
    base = basis_I_43()
    removed = set(_II_43_REMOVED)
    missing = removed - set(base.labels)
    if missing:
        raise AssertionError(f"states to remove are absent: {sorted(missing)}")
    states = [st for st in base.states if st.label not in removed]
    for s in SIGNS:
        states.append(ProductState(f"03c{_SIGN[s]}", (comp(0, 4), comp(3, 4), chi(s))))
    for s in SIGNS:
        states.append(ProductState(f"2c{_SIGN[s]}2", (comp(2, 4), chi(s), comp(2, 4))))
    for s in SIGNS:
        states.append(ProductState(f"c{_SIGN[s]}31", (chi(s), comp(3, 4), comp(1, 4))))
    return OrthoProductBasis("B_II_43", [("A", 4), ("B", 4), ("C", 4)], states)


# ---------------------------------------------------------------------------
# three-qutrit bases

def basis_II_33():
    """27-state three-qutrit basis, irreducible with all parties separated.

    ``psi_<family>_<st>`` carries two sign letters; the first refers to the
    first twisted factor in reading order, the second to the second.
    """
    families = [
        ("1", lambda s, t: (comp(0, 3), eta(s), xi(t))),
        ("2", lambda s, t: (eta(s), comp(2, 3), xi(t))),
        ("3", lambda s, t: (comp(2, 3), xi(s), eta(t))),
        ("4", lambda s, t: (eta(s), xi(t), comp(0, 3))),
        ("5", lambda s, t: (xi(s), comp(0, 3), eta(t))),
        ("6", lambda s, t: (xi(s), eta(t), comp(2, 3))),
    ]
    states = []
    for fam, build in families:
        for s in SIGNS:
            for t in SIGNS:
                states.append(ProductState(f"psi_{fam}_{_SIGN[s]}{_SIGN[t]}", build(s, t)))
    for k in range(3):
        states.append(ProductState(f"phi_{k}", tuple(comp(k, 3) for _ in range(3))))
    return OrthoProductBasis("B_II_33", [("A", 3), ("B", 3), ("C", 3)], states)


def basis_IIb_33():
    """27-state three-qutrit basis irreducible even for merged party pairs."""
    families = [
        ("alpha_1", lambda s: (comp(0, 3), comp(1, 3), eta(s))),
        ("alpha_2", lambda s: (comp(0, 3), comp(2, 3), kappa(s))),
        ("alpha_3", lambda s: (comp(1, 3), comp(2, 3), eta(s))),
        ("alpha_4", lambda s: (comp(2, 3), comp(1, 3), kappa(s))),
        ("beta_1", lambda s: (comp(1, 3), eta(s), comp(0, 3))),
        ("beta_2", lambda s: (comp(2, 3), kappa(s), comp(0, 3))),
        ("beta_3", lambda s: (comp(2, 3), eta(s), comp(1, 3))),
        ("beta_4", lambda s: (comp(1, 3), kappa(s), comp(2, 3))),
        ("gamma_1", lambda s: (eta(s), comp(0, 3), comp(1, 3))),
        ("gamma_2", lambda s: (kappa(s), comp(0, 3), comp(2, 3))),
        ("gamma_3", lambda s: (eta(s), comp(1, 3), comp(2, 3))),
        ("gamma_4", lambda s: (kappa(s), comp(2, 3), comp(1, 3))),
    ]
    states = []
    for fam, build in families:
        for s in SIGNS:
            states.append(ProductState(f"{fam}_{_SIGN[s]}", build(s)))
    for k in range(3):
        states.append(ProductState(f"phi_{k}", tuple(comp(k, 3) for _ in range(3))))
    return OrthoProductBasis("B_IIb_33", [("A", 3), ("B", 3), ("C", 3)], states)


def shift_upb_opb_222():
    """Eight-state completion of the shift unextendible product basis."""
    states = []
    for s in SIGNS:
        states.append(ProductState(f"01e{_SIGN[s]}", (comp(0, 2), comp(1, 2), eta(s, 2))))
    for s in SIGNS:
        states.append(ProductState(f"1e{_SIGN[s]}0", (comp(1, 2), eta(s, 2), comp(0, 2))))
    for s in SIGNS:
        states.append(ProductState(f"e{_SIGN[s]}01", (eta(s, 2), comp(0, 2), comp(1, 2))))
    states.append(ProductState("000", (comp(0, 2), comp(0, 2), comp(0, 2))))
    states.append(ProductState("111", (comp(1, 2), comp(1, 2), comp(1, 2))))
    return OrthoProductBasis("shift_222", [("A", 2), ("B", 2), ("C", 2)], states)


BUILTIN_BASES = {
    "bennett_3x3": bennett_npb_3x3,
    "B_I_43": basis_I_43,
    "B_II_43": basis_II_43,
    "B_II_33": basis_II_33,
    "B_IIb_33": basis_IIb_33,
    "shift_222": shift_upb_opb_222,
}


def get_basis(name):
    try:
        return BUILTIN_BASES[name]()
    except KeyError:
        raise KeyError(f"unknown basis {name!r}; known: {sorted(BUILTIN_BASES)}") from None


# ---------------------------------------------------------------------------
# resource states

def resource_amplitudes(kind):
    dims, _, support = RESOURCE_KINDS[kind]
    v = np.zeros(prod(dims))
    v[list(support)] = 1 / np.sqrt(len(support))
    return v


def resource_ket(kind, labels, owners):
    """Resource state on fresh registers ``labels`` owned by ``owners``."""
    dims = RESOURCE_KINDS[kind][0]
    if len(labels) != len(dims) or len(owners) != len(dims):
        raise ValueError(f"{kind} needs {len(dims)} registers")
    space = CompositeSpace(
        Subsystem(lbl, d, owner) for lbl, d, owner in zip(labels, dims, owners)
    )
    return Ket(space, resource_amplitudes(kind))


# ---------------------------------------------------------------------------
# tile rendering

@dataclass(frozen=True)
class TileGroup:
    labels: tuple
    rows: tuple
    cols: tuple
    pieces: tuple  # ((row_lo, row_hi), (col_lo, col_hi)) inclusive runs

    @property
    def is_rectangle(self):
        return len(self.pieces) == 1

    @property
    def n_cells(self):
        return len(self.rows) * len(self.cols)


@dataclass(frozen=True)
class TileReport:
    basis: str
    row_parties: tuple
    col_party: str
    n_rows: int
    n_cols: int
    groups: tuple
    text: str


def _runs(sorted_indices):
    runs = []
    start = prev = sorted_indices[0]
    for i in sorted_indices[1:]:
        if i == prev + 1:
            prev = i
        else:
            runs.append((start, prev))
            start = prev = i
    runs.append((start, prev))
    return runs


def render_tiles(basis, merged):
    """Bipartite tile picture of a basis with ``merged`` parties as rows.

    Rows enumerate the merged parties' joint computational basis (first
    merged party most significant); columns enumerate the remaining party.
    States sharing a support pattern form one tile group; groups whose row
    and column supports are single contiguous runs render as rectangles,
    the rest are reported as split pieces.
    """
    party_names = [p for p, _ in basis.parties]
    merged = tuple(merged)
    for m in merged:
        if m not in party_names:
            raise ValueError(f"unknown party {m!r}")
    rest = [p for p in party_names if p not in merged]
    if len(rest) != 1:
        raise ValueError("merging must leave exactly one column party")
    col_party = rest[0]
    dims = dict(basis.parties)
    n_rows = prod(dims[m] for m in merged)
    n_cols = dims[col_party]

    arrays = dict(zip(party_names, basis.factor_arrays()))
    row_support = np.abs(kron_rows([arrays[m] for m in merged])) > TOL
    col_support = np.abs(arrays[col_party]) > TOL
    grouped: dict[tuple, list[str]] = {}
    for st, rows, cols in zip(basis.states, row_support, col_support):
        key = tuple(rows.nonzero()[0].tolist()), tuple(cols.nonzero()[0].tolist())
        grouped.setdefault(key, []).append(st.label)

    groups = []
    for (rows, cols), labels in sorted(grouped.items()):
        pieces = tuple(
            (rr, cr) for rr in _runs(list(rows)) for cr in _runs(list(cols))
        )
        groups.append(TileGroup(tuple(labels), rows, cols, pieces))

    # cell ownership map for the ASCII grid
    cell = [["." for _ in range(n_cols)] for _ in range(n_rows)]
    symbols = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    lines = []
    for gi, g in enumerate(groups):
        sym = symbols[gi % len(symbols)]
        for r in g.rows:
            for c in g.cols:
                if cell[r][c] != ".":
                    cell[r][c] = "*"  # overlapping groups (incomplete sets)
                else:
                    cell[r][c] = sym
        shape = "rect" if g.is_rectangle else f"{len(g.pieces)} pieces"
        lines.append(f"  {sym}: {', '.join(g.labels)}  [{shape}]")

    header = f"{basis.name}  rows={'*'.join(merged)} ({n_rows})  cols={col_party} ({n_cols})"
    grid = "\n".join("  " + " ".join(row) for row in cell)
    text = header + "\n" + grid + "\n" + "\n".join(lines)
    return TileReport(
        basis=basis.name,
        row_parties=merged,
        col_party=col_party,
        n_rows=n_rows,
        n_cols=n_cols,
        groups=tuple(groups),
        text=text,
    )
