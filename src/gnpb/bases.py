"""Constructors for the orthogonal product bases and resource states.

Each basis is an explicit table of product states with canonical labels so
protocol trees can refer to states by name.  Integrity (orthogonality,
completeness, product structure) is never assumed: :func:`check_basis`
recomputes it from the amplitudes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .qstate import RANK_TOL, CompositeSpace, Subsystem, kron_rows, pairwise_max_overlap
from .tree import RESOURCE_KINDS, TOL, KetExpr


# ---------------------------------------------------------------------------
# product bases

@dataclass(frozen=True)
class ProductState:
    """One fully product basis state: a label plus per-party local vectors."""

    label: str
    factors: tuple


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

    def space(self):
        """Composite space of the principal registers (one per party)."""
        return CompositeSpace(Subsystem(p, d, p) for p, d in self.parties)

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
        no party, a party name that is not a string, a party dim that is not
        a JSON integer or is below 1, a repeated party name, a non-string or
        repeated label, or a factor whose norm is zero or not finite (a
        NaN or Infinity amplitude, or one so large that the norm overflows).
        """
        import json

        doc = json.loads(text)
        parties = [(p["name"], p["dim"]) for p in doc["parties"]]
        if not parties:
            raise ValueError("the document names no party")
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
# the built-in bases, each state written as the names of its local factors

_TWISTS = {"e": (0, 1), "x": (1, 2), "k": (0, 2), "c": (2, 3)}


def _ket(name, dim):
    """Local factor named ``name``: a digit i is |i>, and e, x, k or c with p or
    m is (|i> + |j>)/sqrt2 or (|i> - |j>)/sqrt2 on levels 01, 12, 02 or 23."""
    if name.isdigit():
        return KetExpr(int(name)).vector(dim)
    i, j = _TWISTS[name[0]]
    return KetExpr(i, j, 1 if name[1] == "p" else -1).vector(dim)


def _built(name, dim, rows):
    """Basis on parties A, B[, C] of one local dim from (label, factor names) rows."""
    states = [ProductState(lbl, tuple(_ket(f, dim) for f in names)) for lbl, names in rows]
    parties = [(p, dim) for p in "ABC"[:len(states[0].factors)]]
    return OrthoProductBasis(name, parties, states)


def _labelled(name, dim, labels):
    """Basis whose labels spell their factors; an underscore only separates."""
    return _built(name, dim, [(lbl, re.findall(r"\d|[a-z][pm]", lbl.replace("_", "")))
                              for lbl in labels])


def _families(name, patterns):
    """Three-qutrit basis of sign families: the letters of a pattern take the
    state's signs in order (``psi_1: "0 e x"`` gives ``psi_1_pm`` = |0>|e+>|x->),
    followed by ``phi_k`` = |k>|k>|k>."""
    rows = []
    for fam, pattern in patterns.items():
        parts = pattern.split()
        for signs in product("pm", repeat=sum(not f.isdigit() for f in parts)):
            sign = iter(signs)
            rows.append((f"{fam}_{''.join(signs)}",
                         [f if f.isdigit() else f + next(sign) for f in parts]))
    rows += [(f"phi_{k}", [str(k)] * 3) for k in range(3)]
    return _built(name, 3, rows)


#: The nine two-qutrit domino states of Bennett et al.
DOMINO = ("0ep", "0em", "ep2", "em2", "2xp", "2xm", "xp0", "xm0", "11")

#: The 46 computational states that complete B_I(4,3).
GRID_43 = tuple("""
    303 313 323 330 331 332 333 200 201 202 210 211 212 220 221 222
    230 231 232 233 000 001 002 010 011 012 020 021 022 030 031 032
    033 100 101 102 110 111 112 120 121 122 130 131 132 133""".split())


def bennett_npb_3x3():
    """The nine-state two-qutrit nonlocal product basis."""
    return _labelled("bennett_3x3", 3, DOMINO)


def _I_43_labels():
    return [f"3_{d}" for d in DOMINO] + [f"{d}_3" for d in DOMINO] + list(GRID_43)


def basis_I_43():
    """64-state three-ququad basis reducible by a local 3-vs-rest projection."""
    return _labelled("B_I_43", 4, _I_43_labels())


def basis_II_43():
    """64-state three-ququad basis made locally irreducible by extra twists:
    six computational states of B_I(4,3) give way to three twisted pairs."""
    removed = {"032", "033", "222", "232", "231", "331"}
    labels = [lbl for lbl in _I_43_labels() if lbl not in removed]
    return _labelled("B_II_43", 4, labels + ["03cp", "03cm", "2cp2", "2cm2", "cp31", "cm31"])


def basis_II_33():
    """27-state three-qutrit basis, irreducible with all parties separated."""
    return _families("B_II_33", {
        "psi_1": "0 e x", "psi_2": "e 2 x", "psi_3": "2 x e",
        "psi_4": "e x 0", "psi_5": "x 0 e", "psi_6": "x e 2",
    })


def basis_IIb_33():
    """27-state three-qutrit basis irreducible even for merged party pairs."""
    return _families("B_IIb_33", {
        "alpha_1": "0 1 e", "alpha_2": "0 2 k", "alpha_3": "1 2 e", "alpha_4": "2 1 k",
        "beta_1": "1 e 0", "beta_2": "2 k 0", "beta_3": "2 e 1", "beta_4": "1 k 2",
        "gamma_1": "e 0 1", "gamma_2": "k 0 2", "gamma_3": "e 1 2", "gamma_4": "k 2 1",
    })


def shift_upb_opb_222():
    """Eight-state completion of the shift unextendible product basis."""
    return _labelled("shift_222", 2, ("01ep", "01em", "1ep0", "1em0", "ep01", "em01", "000", "111"))


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


@dataclass(frozen=True)
class TileReport:
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
    return TileReport(n_rows=n_rows, n_cols=n_cols, groups=tuple(groups), text=text)
