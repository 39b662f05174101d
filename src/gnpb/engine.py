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

import numpy as np

from .bases import RESOURCE_KINDS, resource_amplitudes, resource_ebits
from .qstate import RANK_TOL, TOL, Ket, KetExpr, Subsystem, born

ORTHO_TOL = RANK_TOL  # pairwise orthogonality of surviving post-states
PROB_TOL = TOL        # probability sums, completeness, identification totals


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
    p = np.zeros((dim, dim), dtype=complex)
    for k in ks:
        v = k.vector(dim)
        p += np.outer(v, v.conj())
    return p


def materialize(effect, siblings, space, acted):
    """Dense matrix of an effect over the acted registers (in space order)."""
    dims = [space.subsystem(n).dim for n in acted]
    if effect.is_rest:
        total = np.eye(prod(dims), dtype=complex)
        for sib in siblings:
            if not sib.is_rest:
                total = total - materialize(sib, (), space, acted)
        return total
    out = np.zeros((prod(dims), prod(dims)), dtype=complex)
    for term in effect.terms:
        fmap = dict(term.factors)
        mat = np.ones((1, 1), dtype=complex)
        for name, dim in zip(acted, dims):
            ks = fmap.get(name)
            f = np.eye(dim, dtype=complex) if ks is None else _factor_projector(ks, dim)
            mat = np.kron(mat, f)
        out += mat
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


def _strip_common(space, candidates, ignore):
    """Factor untouched registers out of every candidate (returned intact)."""
    drop = [n for n in space.names if n in ignore]
    if not drop:
        return space, candidates
    reduced = []
    shared = None
    for lbl, vec in candidates:
        mat = space.split_axes(drop, vec)  # (d_drop, d_rest)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        if len(s) > 1 and s[1] > RANK_TOL:
            return None, None
        w = u[:, 0]
        if shared is None:
            shared = w
        elif abs(np.vdot(shared, w)) < 1 - RANK_TOL:
            return None, None
        # mat = u0 s0 vh0, so the rest factor is s0 * vh0 (phase absorbed)
        reduced.append((lbl, s[0] * vh[0]))
    return space.without(drop), reduced


def _party_factors(space, owners, candidates):
    """Per-candidate local vectors per party; None if any state is entangled
    across parties."""
    factors = {p: [] for p in owners}
    for _, vec in candidates:
        for p, names in owners.items():
            mat = space.split_axes(names, vec)
            u, s, _ = np.linalg.svd(mat, full_matrices=False)
            if len(s) > 1 and s[1] > RANK_TOL:
                return None
            factors[p].append(u[:, 0])
    return factors


def _split_recursive(labels, factors, party_order):
    if len(labels) <= 1:
        return StrategyNode(tuple(labels), None, ())
    n = len(labels)
    for p in party_order:
        local = factors[p]
        # connected components of the local overlap graph
        comp = list(range(n))

        def find(x):
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for i in range(n):
            for j in range(i + 1, n):
                if abs(np.vdot(local[i], local[j])) > ORTHO_TOL:
                    comp[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        if len(groups) < 2:
            continue
        blocks = []
        for idxs in sorted(groups.values()):
            sub_labels = [labels[i] for i in idxs]
            sub_factors = {q: [factors[q][i] for i in idxs] for q in party_order}
            child = _split_recursive(sub_labels, sub_factors, party_order)
            if child is None:
                break
            blocks.append((tuple(sub_labels), child))
        else:
            return StrategyNode(tuple(labels), p, tuple(blocks))
    return None


def leaf_verify(states, parties=None, ignore=()):
    """Search for a sequential local strategy distinguishing product states.

    ``states`` is a list of ``(label, Ket)`` on a shared space; ``parties``
    maps party names to the registers they hold (defaulting to register
    ownership).  Returns a strategy tree, or None when the states are not
    all product across parties (after detaching ``ignore`` registers) or no
    sequence of orthogonal-subspace splits separates them.  The check is
    sufficient, never complete.
    """
    if not states:
        return StrategyNode((), None, ())
    space = states[0][1].space
    candidates = [(lbl, k.amplitudes) for lbl, k in states]
    space, candidates = _strip_common(space, candidates, frozenset(ignore))
    if space is None:
        return None
    owners = parties if parties is not None else space.owners()
    owners = {p: tuple(ns) for p, ns in owners.items() if ns}
    factors = _party_factors(space, owners, candidates)
    if factors is None:
        return None
    party_order = sorted(owners)
    return _split_recursive([lbl for lbl, _ in candidates], factors, party_order)


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


@dataclass
class _Resource:
    kind: str
    endpoints: tuple
    labels: tuple


class _Walk:
    def __init__(self, basis, protocol_name):
        self.basis = basis
        self.prior = 1.0 / len(basis)
        self.failures = []
        self.identification = {lbl: 0.0 for lbl in basis.labels}
        self.consumption = {}
        self.merges = {}
        self.n_measurements = 0
        self.n_leaves = 0
        self.leaf_strategies = []
        self.protocol_name = protocol_name

    def fail(self, path, kind, detail):
        self.failures.append({"node": path, "kind": kind, "detail": detail})

    # -- node handlers ------------------------------------------------------

    def run(self, node, space, candidates, resources, acted_keys, path):
        if node is None:
            self.fail(path, "missing-branch", "outcome child was never provided")
            return
        if isinstance(node, AttachResource):
            self.attach(node, space, candidates, resources, acted_keys, path)
        elif isinstance(node, MergeParties):
            self.merge(node, space, candidates, resources, acted_keys, path)
        elif isinstance(node, Measure):
            self.measure(node, space, candidates, resources, acted_keys, path)
        elif isinstance(node, (Identify, Distinguishable, Fail)):
            self.leaf(node, space, candidates, resources, acted_keys, path)
        else:
            self.fail(path, "unknown-node", repr(node))

    def attach(self, node, space, candidates, resources, acted_keys, path):
        owners = space.owners()
        for p in node.endpoints:
            if p not in owners:
                self.fail(path, "attach-endpoint", f"party {p!r} does not exist here")
                return
        for lbl in node.labels:
            if lbl in space.names:
                self.fail(path, "attach-label", f"register {lbl!r} already exists")
                return
        dims, _ = RESOURCE_KINDS[node.kind]
        new_subs = [Subsystem(lbl, d, owner)
                    for lbl, d, owner in zip(node.labels, dims, node.endpoints)]
        new_space = space.extended(new_subs)
        amps = resource_amplitudes(node.kind)
        new_candidates = [(lbl, np.kron(vec, amps), p) for lbl, vec, p in candidates]
        self.run(node.child, new_space, new_candidates,
                 resources + [_Resource(node.kind, node.endpoints, node.labels)],
                 acted_keys, path)

    def merge(self, node, space, candidates, resources, acted_keys, path):
        owners = space.owners()
        if node.source not in owners or node.destination not in owners:
            self.fail(path, "merge-party", f"{node.source}->{node.destination} not present")
            return
        # the teleported dimension is the joint support of the moved
        # registers over the surviving candidates, not the raw register size
        names = owners[node.source]
        if candidates:
            stack = np.hstack([space.split_axes(names, vec) for _, vec, _ in candidates])
            moved_dim = int(np.linalg.matrix_rank(stack, tol=1e-8))
        else:
            moved_dim = prod(space.subsystem(n).dim for n in names)
        if abs(node.cost - log2(moved_dim)) > PROB_TOL:
            self.fail(path, "merge-cost",
                      f"declared {node.cost} != log2({moved_dim})")
            return
        reach = sum(p for _, _, p in candidates) * self.prior
        key = (node.source, node.destination, node.cost)
        self.merges[key] = self.merges.get(key, 0.0) + reach
        new_space = space.reowned({node.source: node.destination})
        self.run(node.child, new_space, candidates, resources, acted_keys,
                 path + f"/merge({node.source}->{node.destination})")

    def measure(self, node, space, candidates, resources, acted_keys, path):
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
        mats = {}
        for e in node.effects:
            mats[e.name] = materialize(e, node.effects, space, acted)
        d = prod(space.subsystem(n).dim for n in acted)
        total = sum(mats.values())
        if np.max(np.abs(total - np.eye(d))) > PROB_TOL:
            self.fail(path, "completeness", "effects do not sum to identity")
            return
        for name, m in mats.items():
            if np.max(np.abs(m - m.conj().T)) > PROB_TOL or \
               np.max(np.abs(m @ m - m)) > PROB_TOL:
                self.fail(path, "not-projector", f"effect {name}")
                return

        # which resources does this node touch non-trivially?  (a remainder
        # effect restricts exactly what its siblings restrict)
        restricted = node.restricted()
        new_acted = set(acted_keys)
        for r in resources:
            if any(lbl in restricted for lbl in r.labels):
                new_acted.add((r.kind, tuple(sorted(r.endpoints)), r.labels))

        totals = [0.0] * len(candidates)
        for e in node.effects:
            m = mats[e.name]
            survivors = []
            for c, (lbl, vec, p) in enumerate(candidates):
                p_out, post = born(space, acted, m, vec, PROB_TOL)
                totals[c] += p_out
                if post is not None:
                    survivors.append((lbl, post, p * p_out))
            if len(survivors) > 1:
                stack = np.array([v for _, v, _ in survivors])
                gram = np.abs(stack.conj() @ stack.T)
                np.fill_diagonal(gram, 0.0)
                worst = float(np.max(gram))
                if worst > ORTHO_TOL:
                    i, j = np.unravel_index(np.argmax(gram), gram.shape)
                    self.fail(f"{path}/{e.name}", "orthogonality",
                              f"survivors {survivors[i][0]} and {survivors[j][0]} "
                              f"overlap {worst:.3e}")
                    continue
            self.run(node.children.get(e.name), space, survivors, resources,
                     frozenset(new_acted), f"{path}/{e.name}")

        # outcome probabilities must sum to one per incoming candidate
        for (lbl, _, _), s in zip(candidates, totals):
            if abs(s - 1.0) > PROB_TOL:
                self.fail(path, "probability-sum", f"{lbl}: outcomes sum to {s}")

    def leaf(self, node, space, candidates, resources, acted_keys, path):
        self.n_leaves += 1
        if isinstance(node, Fail):
            if candidates:
                self.fail(path, "fail-leaf",
                          f"states reach a fail leaf: {[l for l, _, _ in candidates]}")
            return
        # charge consumed resources on this terminal branch
        reach = sum(p for _, _, p in candidates) * self.prior
        for r in resources:
            key = (r.kind, tuple(sorted(r.endpoints)), r.labels)
            if key in acted_keys:
                akey = (r.kind, tuple(sorted(r.endpoints)))
                self.consumption[akey] = self.consumption.get(akey, 0.0) + reach
        if isinstance(node, Identify):
            if len(candidates) != 1 or candidates[0][0] != node.label:
                self.fail(path, "identify",
                          f"expected only {node.label!r}, got "
                          f"{[l for l, _, _ in candidates]}")
                return
            self.identification[node.label] += candidates[0][2]
            return
        # Distinguishable leaf
        got = {lbl for lbl, _, _ in candidates}
        if got != set(node.labels):
            self.fail(path, "leaf-set",
                      f"declared {sorted(node.labels)}, surviving {sorted(got)}")
            return
        untouched = [
            lbl
            for r in resources
            if (r.kind, tuple(sorted(r.endpoints)), r.labels) not in acted_keys
            for lbl in r.labels
        ]
        states = [(lbl, Ket(space, vec)) for lbl, vec, _ in candidates]
        strategy = leaf_verify(states, ignore=untouched)
        if strategy is None:
            self.fail(path, "leaf-indistinguishable",
                      f"no splitting strategy for {sorted(got)}")
            return
        self.leaf_strategies.append((path, tuple(sorted(got)), strategy))
        for lbl, _, p in candidates:
            self.identification[lbl] += p


def _baseline_ebits(basis):
    costs = [log2(d) for _, d in basis.parties]
    return sum(costs) - max(costs)


def verify_protocol(root, basis, name="protocol"):
    """Run every basis state through the tree and check all protocol laws."""
    walk = _Walk(basis, name)
    space = basis.space()
    candidates = [(lbl, basis.state(lbl).joint(), 1.0) for lbl in basis.labels]
    try:
        walk.run(root, space, candidates, [], frozenset(), "root")
    except (KeyError, ValueError) as exc:
        walk.fail("root", "execution-error", str(exc))
    for lbl, p in walk.identification.items():
        if abs(p - 1.0) > PROB_TOL:
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
