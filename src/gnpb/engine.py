"""Execution, verification and resource accounting for LOCC protocol trees.

A protocol is a finite tree of measurement, resource-attachment and
party-merge nodes with per-outcome children.  Verification runs every basis
state through the tree simultaneously and checks, at each measurement, that
the effects form a complete projective measurement local to the acting
party and that all surviving post-states stay mutually orthogonal; leaves
must identify exactly one candidate or terminate in a set certified
distinguishable by :func:`leaf_verify`.

Entanglement accounting follows one rule: a resource attached on a path is
consumed on a terminal branch iff some measurement on that path restricts
any of its registers non-trivially; otherwise it is returned intact and not
charged.  Party merges charge log2 of the moved dimension unconditionally
on their subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2, prod
from typing import NamedTuple

import numpy as np

from .bases import RESOURCE_KINDS, resource_amplitudes, resource_ebits
from .qstate import RANK_TOL, TOL, KetExpr, Subsystem, born, group_index, scatter


# ---------------------------------------------------------------------------
# projector expressions (the P[...] calculus used by all protocols)

def kets(spec):
    """Normalize a factor spec to a tuple of KetExpr (or None for identity)."""
    if spec == "I" or spec is None:
        return None
    if not isinstance(spec, (list, tuple)) or (
        isinstance(spec, tuple) and len(spec) == 3 and all(isinstance(x, int) for x in spec)
    ):
        spec = [spec]
    out = []
    for k in spec:
        if isinstance(k, KetExpr):
            out.append(k)
        elif isinstance(k, int):
            out.append(KetExpr(k))
        elif isinstance(k, tuple) and len(k) == 3:
            i, s, j = k
            out.append(KetExpr(i, j, s))
        else:
            raise ValueError(f"bad ket spec {k!r}")
    return tuple(out)


@dataclass(frozen=True)
class PTerm:
    """One P[...] product term: per-register ket lists, identity if omitted."""

    factors: tuple  # of (register name, tuple[KetExpr] | None)

    def registers(self):
        return tuple(name for name, _ in self.factors)

    def restricted(self):
        return tuple(name for name, ks in self.factors if ks is not None)


def P(**factors):
    """Build a product term, e.g. ``P(B=[0,1], b1=0)`` or ``P(C=(1, 1, 2))``.

    Values: an int (computational ket), a 3-tuple ``(i, sign, j)`` for
    (|i> + sign|j>)/sqrt2, a list of those, or "I" for an explicit identity.
    """
    return PTerm(tuple((name, kets(spec)) for name, spec in factors.items()))


@dataclass(frozen=True)
class Effect:
    """A named effect: a sum of product terms, or the node remainder."""

    name: str
    terms: tuple | None  # None: identity minus the sum of sibling effects

    @property
    def is_rest(self):
        return self.terms is None


def eff(name, *terms):
    return Effect(name, tuple(terms))


def rest(name):
    return Effect(name, None)


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
        dims, _ = RESOURCE_KINDS[self.kind]
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


def measure(actor, effects, children):
    names = [e.name for e in effects]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate effect names {names}")
    if sum(1 for e in effects if e.is_rest) > 1:
        raise ValueError("at most one remainder effect per node")
    if set(children) != set(names):
        raise ValueError(f"outcome branches {sorted(children)} do not match effects {sorted(names)}")
    return Measure(actor=actor, effects=tuple(effects), children=dict(children))


# ---------------------------------------------------------------------------
# effect materialization

def _factor_projector(ks, dim):
    p = np.zeros((dim, dim))
    for k in ks:
        v = k.vector(dim)
        p = p + np.outer(v, v.conj())
    return p


def _remainder(dim, others):
    """Identity minus the sum of the other effects' matrices."""
    total = np.eye(dim)
    for m in others:
        total = total - m
    return total


def materialize(effect, space, acted):
    """Dense matrix of a ``P[...]`` effect over the acted registers, in the
    order given (a remainder is built from its siblings' matrices by
    :meth:`_Walk.node_matrices`).  Real: every ket is real."""
    dims = [space.subsystem(n).dim for n in acted]
    out = np.zeros((prod(dims), prod(dims)))
    for term in effect.terms:
        fmap = dict(term.factors)
        mat = np.ones((1, 1))
        for name, dim in zip(acted, dims):
            ks = fmap.get(name)
            mat = np.kron(mat, np.eye(dim) if ks is None else _factor_projector(ks, dim))
        out = out + mat
    return out


# ---------------------------------------------------------------------------
# symmetry completion

def conjugate_tree(node, perms):
    """Conjugate every effect by per-register basis permutations.

    ``perms`` maps register names to index permutations (tuples); registers
    not mentioned are untouched.  Leaves are unchanged: the same basis
    states flow down symmetric branches.
    """
    if isinstance(node, Measure):
        new_effects = []
        for e in node.effects:
            if e.is_rest:
                new_effects.append(e)
                continue
            terms = []
            for t in e.terms:
                factors = []
                for name, ks in t.factors:
                    if ks is None or name not in perms:
                        factors.append((name, ks))
                    else:
                        factors.append((name, tuple(k.permuted(perms[name]) for k in ks)))
                terms.append(PTerm(tuple(factors)))
            new_effects.append(Effect(e.name, tuple(terms)))
        children = {
            k: conjugate_tree(v, perms) if v is not None else None
            for k, v in node.children.items()
        }
        return Measure(node.actor, tuple(new_effects), children)
    if isinstance(node, AttachResource):
        return AttachResource(node.kind, node.endpoints, node.labels,
                              conjugate_tree(node.child, perms))
    if isinstance(node, MergeParties):
        return MergeParties(node.source, node.destination, node.cost,
                            conjugate_tree(node.child, perms))
    return node


FLIP = (1, 0)  # qubit bit-flip permutation


def flip_sym(*registers):
    """Symmetry that swaps |0> and |1> on the named qubit registers."""
    return {r: FLIP for r in registers}


def complete_by_symmetry(node, sym, source=None):
    """Fill missing outcome branches of a measurement from a finished one.

    Every ``None`` child is replaced by the conjugation (under ``sym``) of
    the source outcome's subtree.  The completion is a claim, not a proof:
    the completed protocol must still pass :func:`verify_protocol`.
    """
    if not isinstance(node, Measure):
        raise TypeError("complete_by_symmetry expects a measurement node")
    missing = [k for k, v in node.children.items() if v is None]
    if not missing:
        return node
    done = [k for k, v in node.children.items() if v is not None]
    if source is None:
        if len(done) != 1:
            raise ValueError("source outcome is ambiguous; pass source=...")
        source = done[0]
    template = node.children[source]
    children = dict(node.children)
    for k in missing:
        children[k] = conjugate_tree(template, sym)
    return Measure(node.actor, node.effects, children)


# ---------------------------------------------------------------------------
# leaf distinguishability (sufficient check, not complete)

@dataclass(frozen=True)
class StrategyNode:
    """One round of a sequential subspace-splitting strategy."""

    labels: tuple
    party: str | None
    blocks: tuple  # of ((labels...), StrategyNode)

    def text(self, indent=0):
        pad = "  " * indent
        if self.party is None:
            return f"{pad}identified: {', '.join(self.labels)}"
        lines = [f"{pad}{self.party} splits {{{', '.join(self.labels)}}}"]
        for lbls, child in self.blocks:
            lines.append(f"{pad}-> block {{{', '.join(lbls)}}}")
            lines.append(child.text(indent + 1))
        return "\n".join(lines)


def _norms(rows):
    return np.sqrt(np.einsum("ij,ij->i", rows.conj(), rows).real)


def _product_factors(tensor):
    """Unit local factors of every state on every register group, or None.

    ``tensor`` is ``(n, d_1, ..., d_k)``: n states over k register groups.
    Returns one ``(n, d_g)`` array per group, or None when some state has a
    group cut with ``s[1] > RANK_TOL``.  The fibres through a
    state's largest entry span a product approximation that has rank one
    across every group cut, so by Eckart-Young its residual bounds ``s[1]``
    of each cut from above: a residual within ``RANK_TOL`` proves the state
    product without an SVD.  Only the other states go to the per-cut SVD,
    so every verdict equals the SVD's.
    """
    n, dims = len(tensor), tensor.shape[1:]
    k = len(dims)
    flat = tensor.reshape(n, -1)
    rows = np.arange(n)
    top = np.abs(flat).argmax(axis=1)
    pivot = np.unravel_index(top, dims)
    fibres = [tensor[(rows,) + pivot[:g] + (slice(None),) + pivot[g + 1:]] for g in range(k)]
    with np.errstate(divide="ignore", invalid="ignore"):
        # the fibres' outer product is the state times pivot**(k - 1)
        approx = fibres[0] / (flat[rows, top] ** (k - 1))[:, None]
        for f in fibres[1:]:
            approx = (approx[:, :, None] * f[:, None, :]).reshape(n, -1)
        factors = [f / _norms(f)[:, None] for f in fibres]
        resid = _norms(flat - approx)
    for c in np.flatnonzero(~(resid <= RANK_TOL)):
        for g, f in enumerate(factors):
            cut = np.moveaxis(tensor[c], g, 0).reshape(dims[g], -1)
            u, s, _ = np.linalg.svd(cut, full_matrices=False)
            if len(s) > 1 and s[1] > RANK_TOL:
                return None
            f[c] = u[:, 0]
    return factors


def _split_recursive(idxs, labels, close, party_order):
    """Strategy for the states ``idxs``; ``close[p][i][j]``: the local
    factors of states i and j on party p overlap."""
    if len(idxs) <= 1:
        return StrategyNode(tuple(labels[i] for i in idxs), None, ())
    for p in party_order:
        adj = close[p]
        # connected components of the local overlap graph
        comp = {i: i for i in idxs}

        def find(x):
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for a, i in enumerate(idxs):
            for j in idxs[a + 1:]:
                if adj[i][j]:
                    comp[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for i in idxs:
            groups.setdefault(find(i), []).append(i)
        if len(groups) < 2:
            continue
        blocks = []
        for block in sorted(groups.values()):
            child = _split_recursive(block, labels, close, party_order)
            if child is None:
                break
            blocks.append((tuple(labels[i] for i in block), child))
        else:
            return StrategyNode(tuple(labels[i] for i in idxs), p, tuple(blocks))
    return None


def leaf_verify(states, ignore=(), tol=TOL):
    """Search for a sequential local strategy distinguishing product states.

    ``states`` is a list of ``(label, Ket)`` on a shared space; each party
    holds the registers it owns.  Returns a strategy tree, or None when the
    states are not all product across parties (after detaching the
    ``ignore`` registers, which must carry one shared state) or no sequence
    of orthogonal-subspace splits separates them (local factors overlap
    above ``10 * tol``).  The check is sufficient, never complete.
    """
    if not states:
        return StrategyNode((), None, ())
    space = states[0][1].space
    stack = np.array([k.amplitudes for _, k in states])
    cols = np.flatnonzero((stack != 0).any(axis=0))
    return _strategy([lbl for lbl, _ in states], stack[:, cols], cols, space, ignore, tol, {})


def _strategy(labels, stack, cols, space, ignore, tol, memo):
    """:func:`leaf_verify` of the nonempty ``(n, C)`` ``stack`` whose
    columns hold the flat indices ``cols`` of ``space``; ``memo`` keeps the
    index tables and, per ``(space, ignored registers)``, the party groups
    and their dims."""
    drop = tuple(n for n in space.names if n in ignore)
    key = ("parties", space, drop)
    if key not in memo:
        owners = space.without(drop).owners()
        groups = tuple(owners.values()) + ((drop,) if drop else ())
        memo[key] = owners, groups, [prod(space.subsystem(n).dim for n in g) for g in groups]
    owners, groups, dims = memo[key]
    # only the levels some state uses: the others add nothing to any overlap
    tensor, _ = scatter(stack, group_index(space, groups, memo)[:, cols], dims)
    factors = _product_factors(tensor)
    if factors is None:
        return None
    shared = factors[-1]
    if drop and not np.all(np.abs(shared.conj() @ shared[0]) >= 1 - RANK_TOL):
        return None
    close = {p: (np.abs(f.conj() @ f.T) > 10 * tol).tolist() for p, f in zip(owners, factors)}
    return _split_recursive(list(range(len(labels))), labels, close, sorted(owners))


# ---------------------------------------------------------------------------
# ledger

@dataclass(frozen=True)
class LedgerRow:
    kind: str
    endpoints: tuple
    expected_uses: float
    ebits_per_use: float | None  # None for GHZ (own unit)

    @property
    def ebits(self):
        if self.ebits_per_use is None:
            return None
        return self.expected_uses * self.ebits_per_use

    def to_dict(self):
        return {
            "kind": self.kind,
            "endpoints": list(self.endpoints),
            "expected_uses": self.expected_uses,
            "ebits_per_use": self.ebits_per_use,
            "ebits": self.ebits,
        }


@dataclass(frozen=True)
class ResourceLedger:
    rows: tuple
    baseline_ebits: float

    @property
    def total_ebits(self):
        return float(sum(r.ebits for r in self.rows if r.ebits is not None))

    @property
    def ghz_count(self):
        return float(sum(r.expected_uses for r in self.rows if r.kind == "GHZ"))

    @property
    def ghz_distribution_bound_ebits(self):
        # informational: distributing one GHZ costs two EPR pairs, and the
        # conversion back may be irreversible, so this is only a bound
        return 2.0 * self.ghz_count

    @property
    def beats_baseline(self):
        return self.total_ebits + self.ghz_distribution_bound_ebits < self.baseline_ebits

    def expected(self, kind, endpoints):
        key = (kind, tuple(sorted(endpoints)))
        for r in self.rows:
            if (r.kind, tuple(sorted(r.endpoints))) == key:
                return r.expected_uses
        return 0.0

    def to_dict(self):
        return {
            "rows": [r.to_dict() for r in self.rows],
            "total_ebits": self.total_ebits,
            "ghz_count": self.ghz_count,
            "ghz_distribution_bound_ebits": self.ghz_distribution_bound_ebits,
            "baseline_ebits": self.baseline_ebits,
            "beats_baseline": self.beats_baseline,
        }


# ---------------------------------------------------------------------------
# verification

@dataclass
class VerificationReport:
    protocol: str
    basis: str
    ok: bool
    failures: list
    n_measurements: int
    n_leaves: int
    identification: dict
    ledger: ResourceLedger | None
    leaf_strategies: list = field(default_factory=list)

    def to_dict(self):
        return {
            "protocol": self.protocol,
            "basis": self.basis,
            "pass": self.ok,
            "failures": self.failures,
            "n_measurements": self.n_measurements,
            "n_leaves": self.n_leaves,
            "identification": dict(sorted(self.identification.items())),
            "ledger": self.ledger.to_dict() if self.ledger else None,
        }


class ProtocolVerificationError(RuntimeError):
    def __init__(self, report):
        super().__init__(f"protocol {report.protocol!r} failed verification: "
                         f"{report.failures[:3]}")
        self.report = report


def _broken_law(effects, mats, tol):
    """``(kind, detail)`` of the first law a node's effect matrices break:
    they must sum to the identity and each must be a projector.  Every gate
    is written ``not (error <= tol)`` so that NaN fails it."""
    if not np.max(np.abs(mats.sum(axis=0) - np.eye(mats.shape[1]))) <= tol:
        return "completeness", "effects do not sum to identity"
    hermitian = np.abs(mats - mats.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    idempotent = np.abs(mats @ mats - mats).max(axis=(1, 2))
    bad = np.flatnonzero(~((hermitian <= tol) & (idempotent <= tol)))
    if bad.size:
        return "not-projector", f"effect {effects[bad[0]].name}"
    return None


class _Candidates(NamedTuple):
    """The basis states that reach a node, as one stack."""

    labels: tuple
    stack: np.ndarray    # (n, C): the states' amplitudes at the flat indices cols
    weights: np.ndarray  # (n,): probability of reaching the node, per state
    cols: np.ndarray     # (C,): distinct flat indices of the node's space, in any order


class _Walk:
    def __init__(self, basis, tol):
        self.tol = tol
        self.prior = 1.0 / len(basis)
        self.failures = []
        self.identification = {lbl: 0.0 for lbl in basis.labels}
        self.consumption = {}
        self.merges = {}
        self.n_measurements = 0
        self.n_leaves = 0
        self.leaf_strategies = []
        # effect matrices and index tables built during this walk; repeated
        # subtrees and spaces reuse them
        self.node_memo = {}
        self.tables = {}

    def fail(self, path, kind, detail):
        self.failures.append({"node": path, "kind": kind, "detail": detail})

    def node_matrices(self, node, space, acted):
        """The node's ``(E, d, d)`` effect matrices and the first measurement
        law they break (None when complete and projective), built once per
        walk for each (effects, acted registers, dims)."""
        dims = tuple(space.subsystem(n).dim for n in acted)
        key = (node.effects, acted, dims)
        if key not in self.node_memo:
            d = prod(dims)
            fixed = {e: materialize(e, space, acted) for e in node.effects if not e.is_rest}
            mats = np.array([_remainder(d, fixed.values()) if e.is_rest else fixed[e]
                             for e in node.effects]).reshape(len(node.effects), d, d)
            self.node_memo[key] = mats, _broken_law(node.effects, mats, self.tol)
        return self.node_memo[key]

    # -- node handlers ------------------------------------------------------
    # ``resources`` lists the attached resources as ledger keys ``(kind,
    # sorted endpoints, labels)``; ``acted_keys`` holds those that some
    # measurement on the path restricts

    def run(self, node, space, cands, resources, acted_keys, path):
        if node is None:
            self.fail(path, "missing-branch", "outcome child was never provided")
            return
        if isinstance(node, AttachResource):
            self.attach(node, space, cands, resources, acted_keys, path)
        elif isinstance(node, MergeParties):
            self.merge(node, space, cands, resources, acted_keys, path)
        elif isinstance(node, Measure):
            self.measure(node, space, cands, resources, acted_keys, path)
        elif isinstance(node, (Identify, Distinguishable, Fail)):
            self.leaf(node, space, cands, resources, acted_keys, path)
        else:
            self.fail(path, "unknown-node", repr(node))

    def attach(self, node, space, cands, resources, acted_keys, path):
        owners = space.owners()
        for p in node.endpoints:
            if p not in owners:
                self.fail(path, "attach-endpoint", f"party {p!r} does not exist here")
                return
        for n, lbl in enumerate(node.labels):
            if lbl in space.names or lbl in node.labels[:n]:
                self.fail(path, "attach-label", f"register {lbl!r} already exists")
                return
        dims, _ = RESOURCE_KINDS[node.kind]
        new_subs = [Subsystem(lbl, d, owner)
                    for lbl, d, owner in zip(node.labels, dims, node.endpoints)]
        amps = resource_amplitudes(node.kind)
        nonzero = np.flatnonzero(amps)
        cols = (cands.cols[:, None] * len(amps) + nonzero).reshape(-1)
        stack = (cands.stack[:, :, None] * amps[nonzero]).reshape(len(cands.labels), len(cols))
        self.run(node.child, space.extended(new_subs), cands._replace(stack=stack, cols=cols),
                 resources + [(node.kind, tuple(sorted(node.endpoints)), node.labels)],
                 acted_keys, path)

    def merge(self, node, space, cands, resources, acted_keys, path):
        owners = space.owners()
        if node.source not in owners or node.destination not in owners:
            self.fail(path, "merge-party", f"{node.source}->{node.destination} not present")
            return
        # the teleported dimension is the joint support of the moved
        # registers over the surviving candidates, not the raw register size
        names = owners[node.source]
        moved_dim = d_moved = prod(space.subsystem(n).dim for n in names)
        if cands.labels:
            groups = (names, tuple(n for n in space.names if n not in names))
            index = group_index(space, groups, self.tables)[:, cands.cols]
            block, _ = scatter(cands.stack, index, (d_moved, space.dim // d_moved), whole=1)
            support = block.transpose(1, 0, 2).reshape(d_moved, -1)  # (d_moved, n R')
            moved_dim = int(np.linalg.matrix_rank(support, tol=RANK_TOL))
        if not abs(node.cost - log2(moved_dim)) <= self.tol:  # NaN fails too
            self.fail(path, "merge-cost",
                      f"declared {node.cost} != log2({moved_dim})")
            return
        reach = float(cands.weights.sum()) * self.prior
        key = (node.source, node.destination, node.cost)
        self.merges[key] = self.merges.get(key, 0.0) + reach
        new_space = space.reowned({node.source: node.destination})
        self.run(node.child, new_space, cands, resources, acted_keys,
                 path + f"/merge({node.source}->{node.destination})")

    def measure(self, node, space, cands, resources, acted_keys, path):
        self.n_measurements += 1
        owners = space.owners()
        acted = node.acted()
        if node.actor not in owners:
            self.fail(path, "actor", f"party {node.actor!r} does not exist here")
            return
        held = set(owners[node.actor])
        stray = [n for n in acted if n not in held]
        if stray:
            self.fail(path, "locality",
                      f"{node.actor} measures registers it does not hold: {stray}")
            return
        mats, broken = self.node_matrices(node, space, acted)
        if broken:
            self.fail(path, *broken)
            return

        # which resources does this node touch non-trivially?  (a remainder
        # effect restricts exactly what its siblings restrict)
        restricted = node.restricted()
        new_acted = acted_keys.union(
            r for r in resources if any(lbl in restricted for lbl in r[2]))

        out = born(space, acted, mats, cands.stack, cands.cols, self.tables, self.tol)
        for e, (effect, idx, (posts, cols)) in enumerate(zip(node.effects, out.survivors,
                                                             out.posts)):
            labels = tuple(cands.labels[c] for c in idx.tolist())
            if len(idx) > 1:
                gram = np.abs(posts.conj() @ posts.T)
                gram.flat[::len(idx) + 1] = 0.0
                worst = float(gram.max())
                if not worst <= 10 * self.tol:
                    # name the first pair, in candidate order, that breaks the bound
                    i, j = np.argwhere(~(gram <= 10 * self.tol))[0]
                    self.fail(f"{path}/{effect.name}", "orthogonality",
                              f"survivors {labels[i]} and {labels[j]} "
                              f"overlap {worst:.3e}")
                    continue
            survivors = _Candidates(labels, posts, cands.weights[idx] * out.probs[e, idx], cols)
            self.run(node.children.get(effect.name), space, survivors, resources,
                     new_acted, f"{path}/{effect.name}")

        # outcome probabilities must sum to one per incoming candidate
        for lbl, s in zip(cands.labels, out.sums.tolist()):
            if not abs(s - 1.0) <= self.tol:
                self.fail(path, "probability-sum", f"{lbl}: outcomes sum to {s}")

    def leaf(self, node, space, cands, resources, acted_keys, path):
        self.n_leaves += 1
        labels = list(cands.labels)
        if isinstance(node, Fail):
            if labels:
                self.fail(path, "fail-leaf", f"states reach a fail leaf: {labels}")
            return
        # charge consumed resources on this terminal branch
        reach = float(cands.weights.sum()) * self.prior
        for r in resources:
            if r in acted_keys:
                self.consumption[r[:2]] = self.consumption.get(r[:2], 0.0) + reach
        if isinstance(node, Identify):
            if labels != [node.label]:
                self.fail(path, "identify",
                          f"expected only {node.label!r}, got {labels}")
                return
            self.identification[node.label] += float(cands.weights[0])
            return
        # Distinguishable leaf
        got = set(labels)
        if got != set(node.labels):
            self.fail(path, "leaf-set",
                      f"declared {sorted(node.labels)}, surviving {sorted(got)}")
            return
        untouched = [lbl for r in resources if r not in acted_keys for lbl in r[2]]
        strategy = (_strategy(labels, cands.stack, cands.cols, space, untouched, self.tol,
                              self.tables)
                    if labels else StrategyNode((), None, ()))
        if strategy is None:
            self.fail(path, "leaf-indistinguishable",
                      f"no splitting strategy for {sorted(got)}")
            return
        self.leaf_strategies.append((path, tuple(sorted(got)), strategy))
        for lbl, p in zip(labels, cands.weights.tolist()):
            self.identification[lbl] += p


def _baseline_ebits(basis):
    costs = [log2(d) for _, d in basis.parties]
    return sum(costs) - max(costs)


def verify_protocol(root, basis, name="protocol", tol=TOL):
    """Run every basis state through the tree and check all protocol laws
    (thresholds: ``docs/report-schema.md``)."""
    walk = _Walk(basis, tol)
    space = basis.space()
    stack = basis.joint_matrix().reshape(len(basis), space.dim)
    cols = np.flatnonzero((stack != 0).any(axis=0))
    cands = _Candidates(basis.labels, stack[:, cols], np.ones(len(basis)), cols)
    try:
        walk.run(root, space, cands, [], frozenset(), "root")
    except (KeyError, ValueError) as exc:
        walk.fail("root", "execution-error", str(exc))
    for lbl, p in walk.identification.items():
        if not abs(p - 1.0) <= tol:
            walk.fail("total", "identification",
                      f"{lbl} identified with total probability {p}")
    ok = not walk.failures
    ledger = None
    if ok:
        rows = []
        for (kind, endpoints), uses in sorted(walk.consumption.items()):
            per = None if kind == "GHZ" else resource_ebits(kind)
            rows.append(LedgerRow(kind, endpoints, float(uses), per))
        for (src, dst, cost), uses in sorted(walk.merges.items()):
            rows.append(LedgerRow("MERGE", (src, dst), float(uses), cost))
        ledger = ResourceLedger(tuple(rows), _baseline_ebits(basis))
    return VerificationReport(
        protocol=name,
        basis=basis.name,
        ok=ok,
        failures=walk.failures,
        n_measurements=walk.n_measurements,
        n_leaves=walk.n_leaves,
        identification=walk.identification,
        ledger=ledger,
        leaf_strategies=walk.leaf_strategies,
    )


def resource_accounting(root, basis, name="protocol"):
    """Averaged entanglement ledger of a verified protocol (uniform prior)."""
    report = verify_protocol(root, basis, name)
    if not report.ok:
        raise ProtocolVerificationError(report)
    return report.ledger


# ---------------------------------------------------------------------------
# static path analysis (no state propagation)

def resource_cuts_per_path(root):
    """For every root-to-leaf path: the set of bipartite cuts used.

    A cut is the (sorted) endpoint pair of an attached two-party resource or
    of a merge.  Used to check that protocols keep entanglement within one
    bipartition per branch.
    """
    out = []

    def walk(node, cuts, path):
        if node is None or isinstance(node, (Identify, Distinguishable, Fail)):
            out.append((path, frozenset(cuts)))
            return
        if isinstance(node, AttachResource):
            new = cuts | ({tuple(sorted(node.endpoints))}
                          if len(node.endpoints) == 2 else {tuple(sorted(node.endpoints))})
            walk(node.child, new, path)
            return
        if isinstance(node, MergeParties):
            new = cuts | {tuple(sorted((node.source, node.destination)))}
            walk(node.child, new, path + f"/merge({node.source}->{node.destination})")
            return
        for name, child in node.children.items():
            walk(child, cuts, path + "/" + name)

    walk(root, set(), "root")
    return out
