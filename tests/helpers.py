"""What only the tests use: builders of protocol trees, the stack layout of
:func:`gnpb.engine.leaf_verify`, a static path analysis of protocol trees
and local irreducibility over a party partition."""

import numpy as np

from gnpb.engine import conjugate_tree
from gnpb.opm import opm_solution_space
from gnpb.tree import (
    AttachResource, Distinguishable, Effect, Fail, Identify, KetExpr, Measure, MergeParties,
    PTerm)


# ---------------------------------------------------------------------------
# tree builders

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


def P(**factors):
    """Build a product term, e.g. ``P(B=[0,1], b1=0)`` or ``P(C=(1, 1, 2))``.

    Values: an int (computational ket), a 3-tuple ``(i, sign, j)`` for
    (|i> + sign|j>)/sqrt2, a list of those, or "I" for an explicit identity.
    """
    return PTerm(tuple((name, kets(spec)) for name, spec in factors.items()))


def eff(name, *terms):
    return Effect(name, tuple(terms))


def rest(name):
    return Effect(name, None)


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
# checks

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
            walk(node.child, cuts | {tuple(sorted(node.endpoints))}, path)
            return
        if isinstance(node, MergeParties):
            new = cuts | {tuple(sorted((node.source, node.destination)))}
            walk(node.child, new, path + f"/merge({node.source}->{node.destination})")
            return
        for name, child in node.children.items():
            walk(child, cuts, path + "/" + name)

    walk(conjugate_tree(root, {}), set(), "root")
    return out


def is_locally_irreducible(basis, partition):
    """True iff every group of the partition only has trivial OPMs."""
    seen = []
    for g in partition:
        seen.extend(g)
    if sorted(seen) != sorted(p for p, _ in basis.parties):
        raise ValueError("partition must cover every party exactly once")
    return all(opm_solution_space(basis, g).dim == 1 for g in partition)


# ---------------------------------------------------------------------------
# states

def joint_rows(basis):
    """Each state's joint amplitudes, by label: the rows of ``joint_matrix()``."""
    return dict(zip(basis.labels, basis.joint_matrix()))


def states_by_label(basis):
    """Each :class:`~gnpb.bases.ProductState` of ``basis``, by label."""
    return dict(zip(basis.labels, basis.states))


def stack_of(space, states):
    """``(labels, stack, cols, space)``: the first arguments of
    :func:`gnpb.engine.leaf_verify` for ``states``, a list of ``(label,
    flat amplitudes over space)``.  ``stack`` keeps only the columns ``cols``
    that some state uses, as a real array unless some amplitude is complex."""
    stack = np.array([np.reshape(amps, -1) for _, amps in states]).reshape(len(states), space.dim)
    stack = stack.astype(np.result_type(stack, float))
    cols = np.flatnonzero((stack != 0).any(axis=0))
    return [lbl for lbl, _ in states], stack[:, cols], cols, space


def joint_stack(basis, labels=None):
    """:func:`stack_of` the states ``labels`` (every state by default) on the basis's space."""
    rows = joint_rows(basis)
    labels = basis.labels if labels is None else labels
    return stack_of(basis.space(), [(lbl, rows[lbl]) for lbl in labels])
