"""Checks that only the tests run: a static path analysis of protocol trees
and local irreducibility over a party partition."""

from gnpb.engine import conjugate_tree
from gnpb.opm import opm_solution_space
from gnpb.qstate import Ket
from gnpb.tree import AttachResource, Distinguishable, Fail, Identify, MergeParties


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


def joint_rows(basis):
    """Each state's joint amplitudes, by label: the rows of ``joint_matrix()``."""
    return dict(zip(basis.labels, basis.joint_matrix()))


def joint_kets(basis, labels=None):
    """``[(label, Ket)]`` of ``labels`` (every state by default) on the basis's space."""
    rows, space = joint_rows(basis), basis.space()
    return [(lbl, Ket(space, rows[lbl])) for lbl in (basis.labels if labels is None else labels)]
