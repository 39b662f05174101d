"""A dense reference for :func:`gnpb.engine.verify_protocol`.

Each basis state is one flat amplitude vector over the whole space.  An
effect is a ``np.kron`` of projectors from ``KetExpr.vector``, a remainder is
the identity minus its siblings, and both act with ``np.tensordot`` on the
acted axes: no support columns, index tables or memoised matrices.  A mirror
child is not expanded: the walk enters the source subtree as written, with
every survivor's amplitudes flipped (|0> <-> |1>) on the named registers,
which must be qubits of the node's space.  That walk is the walk of the
expanded subtree, whose effects :func:`gnpb.engine.conjugate_tree` conjugates
by the same flip, because no law of the walk changes under a local unitary;
it shares no code with ``conjugate_tree``.  Leaves call
:func:`gnpb.engine.leaf_verify` on dense stacks, so this walk shares the
strategy search with the engine and does not check it.
"""

from functools import reduce
from math import log2, prod

import numpy as np

from gnpb.bases import resource_amplitudes
from gnpb.engine import leaf_verify
from gnpb.qstate import RANK_TOL, Subsystem
from gnpb.tree import (
    RESOURCE_KINDS, TOL, AttachResource, Distinguishable, Fail, Identify, Measure, MergeParties,
    Mirror)

from .helpers import stack_of


def _projector(term, acted, dims):
    factors, mat = dict(term.factors), np.ones((1, 1))
    for name, d in zip(acted, dims):
        ks = factors.get(name)
        mat = np.kron(mat, np.eye(d) if ks is None
                      else sum(np.outer(k.vector(d), k.vector(d)) for k in ks))
    return mat


class ReferenceWalk:
    """Walk ``root`` on ``basis``.  A state is ``(label, amplitudes, weight)``,
    a resource ``(kind, endpoints, labels)``; ``used``: the resources restricted."""

    def __init__(self, root, basis, tol=TOL):
        self.tol, self.prior = tol, 1.0 / len(basis)
        self.failures, self.leaves, self.consumption, self.merges = set(), set(), {}, {}
        self.identification = {lbl: 0.0 for lbl in basis.labels}
        states = [(s.label, reduce(np.kron, s.factors), 1.0) for s in basis.states]
        try:
            self.run(root, basis.space(), states, [], frozenset(), "root")
        except (KeyError, ValueError):
            self.failures.add(("root", "execution-error"))
        if any(not abs(p - 1.0) <= tol for p in self.identification.values()):
            self.failures.add(("total", "identification"))
        self.ok = not self.failures  # the ledger counts only then
        self.ledger = [(kind, ends, uses, None if kind == "GHZ" else RESOURCE_KINDS[kind][1])
                       for (kind, ends), uses in sorted(self.consumption.items())]
        self.ledger += [("MERGE", (src, dst), uses, cost)
                        for (src, dst, cost), uses in sorted(self.merges.items())]

    def run(self, node, space, states, resources, used, path):
        owners, fail = space.owners(), self.failures.add
        if node is None:
            fail((path, "missing-branch"))
        elif isinstance(node, AttachResource):
            if any(p not in owners for p in node.endpoints):
                return fail((path, "attach-endpoint"))
            if set(node.labels) & set(space.names) or len(set(node.labels)) < len(node.labels):
                return fail((path, "attach-label"))
            subs = [Subsystem(lbl, d, p) for lbl, d, p in
                    zip(node.labels, RESOURCE_KINDS[node.kind][0], node.endpoints)]
            amps = resource_amplitudes(node.kind)
            self.run(node.child, space.extended(subs),
                     [(lbl, np.kron(v, amps), w) for lbl, v, w in states],
                     resources + [(node.kind, tuple(node.endpoints), node.labels)], used, path)
        elif isinstance(node, MergeParties):
            if node.source not in owners or node.destination not in owners:
                return fail((path, "merge-party"))
            names = owners[node.source]
            moved = prod(space.subsystem(n).dim for n in names)
            if states:  # the rank of the moved registers' joint support
                axes = [space.axis(n) for n in names]
                support = np.hstack([np.moveaxis(v.reshape(space.dims), axes, range(len(axes)))
                                     .reshape(moved, -1) for _, v, _ in states])
                moved = int(np.linalg.matrix_rank(support, tol=RANK_TOL))
            if not abs(node.cost - log2(moved)) <= self.tol:
                return fail((path, "merge-cost"))
            key, reach = (node.source, node.destination, node.cost), sum(w for *_, w in states)
            self.merges[key] = self.merges.get(key, 0.0) + self.prior * reach
            self.run(node.child, space.reowned({node.source: node.destination}), states,
                     resources, used, f"{path}/merge({node.source}->{node.destination})")
        elif isinstance(node, Measure):
            self.measure(node, space, states, resources, used, path)
        elif isinstance(node, (Identify, Distinguishable, Fail)):
            self.leaf(node, space, states, resources, used, path)
        else:
            fail((path, "unknown-node"))

    def measure(self, node, space, states, resources, used, path):
        acted, owners, fail = node.acted(), space.owners(), self.failures.add
        if node.actor not in owners:
            return fail((path, "actor"))
        if any(n not in owners[node.actor] for n in acted):
            return fail((path, "locality"))
        dims = [space.subsystem(n).dim for n in acted]
        fixed = {e.name: sum((_projector(t, acted, dims) for t in e.terms),
                             np.zeros((prod(dims),) * 2))
                 for e in node.effects if not e.is_rest}
        mats = [np.eye(prod(dims)) - sum(fixed.values()) if e.is_rest else fixed[e.name]
                for e in node.effects]
        errors = [("completeness", sum(mats) - np.eye(prod(dims)))] + [
            ("not-projector", np.stack([m - m.conj().T, m @ m - m])) for m in mats]
        broken = next((kind for kind, err in errors if not np.abs(err).max() <= self.tol), None)
        if broken:
            return fail((path, broken))
        touched = {n for e in node.effects if not e.is_rest for t in e.terms
                   for n, ks in t.factors if ks is not None}
        used = used | {r for r in resources if set(r[2]) & touched}
        k, axes, sums = len(acted), [space.axis(n) for n in acted], np.zeros(len(states))
        for effect, m in zip(node.effects, mats):
            survivors, m = [], m.reshape(tuple(dims) * 2)  # acts on the acted axes
            for c, (lbl, v, w) in enumerate(states):
                post = np.tensordot(m, v.reshape(space.dims), (list(range(k, 2 * k)), axes))
                post = np.moveaxis(post, list(range(k)), axes).reshape(-1)
                p = float(np.vdot(post, post).real)
                sums[c] += p
                if p > self.tol:
                    survivors.append((lbl, post / np.sqrt(p), w * p))
            overlaps = [abs(np.vdot(a[1], b[1])) for i, a in enumerate(survivors)
                        for b in survivors[i + 1:]]
            if overlaps and not max(overlaps) <= 10 * self.tol:
                fail((f"{path}/{effect.name}", "orthogonality"))
                continue
            child = node.children.get(effect.name)
            if isinstance(child, Mirror):
                if any(space.subsystem(r).dim != 2 for r in child.registers):
                    raise ValueError(f"mirror {effect.name!r} flips a non-qubit register")
                axes = [space.axis(r) for r in child.registers]
                survivors = [(lbl, np.flip(v.reshape(space.dims), axes).reshape(-1), w)
                             for lbl, v, w in survivors]
                child = node.children[child.outcome]
            self.run(child, space, survivors, resources, used, f"{path}/{effect.name}")
        if not np.all(np.abs(sums - 1.0) <= self.tol):
            fail((path, "probability-sum"))

    def leaf(self, node, space, states, resources, used, path):
        labels, fail = [lbl for lbl, _, _ in states], self.failures.add
        if isinstance(node, Fail):
            return fail((path, "fail-leaf")) if labels else None
        reach = self.prior * sum(w for *_, w in states)
        for kind, ends, _ in used.intersection(resources):
            key = (kind, tuple(sorted(ends)))
            self.consumption[key] = self.consumption.get(key, 0.0) + reach
        if isinstance(node, Identify) and labels != [node.label]:
            return fail((path, "identify"))
        if isinstance(node, Distinguishable):
            if set(labels) != set(node.labels):
                return fail((path, "leaf-set"))
            ignore = [lbl for r in resources if r not in used for lbl in r[2]]
            if leaf_verify(*stack_of(space, [(lbl, v) for lbl, v, _ in states]), ignore,
                           self.tol) is None:
                return fail((path, "leaf-indistinguishable"))
            self.leaves.add((path, tuple(sorted(labels))))
        for lbl, _, w in states:
            self.identification[lbl] += w
        return None
