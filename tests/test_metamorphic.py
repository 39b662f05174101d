"""Metamorphic checks: transformed inputs whose reports are known from the
original reports, so no answer is pinned.

Each transform is drawn from a generator seeded by the input's name:

- shuffle the order of the basis states;
- permute the levels of every party, in the basis factors and, through
  :func:`gnpb.engine.conjugate_tree`, in the protocol's effects;
- flip the sign of a subset of the states.

A walk must keep its verdict, its set of (node, kind) failures, its
identification totals and ledger rows (to 1e-12) and its set of
(path, labels) leaves.  A classification must keep its verdict, its dims,
its witness group and the sorted counts of states that each witness
outcome eliminates.

Classifications also go through every reordering of the party list, with
the parties renamed X, Y, Z in their new places.  The verdict and the dims
must be the same after the inverse renaming, and the witness must be an
eliminating measurement of the first nontrivial group in the new order.
"""

import itertools
import zlib
from functools import lru_cache

import numpy as np
import pytest

from gnpb.bases import OrthoProductBasis, ProductState, get_basis
from gnpb.engine import conjugate_tree, verify_protocol
from gnpb.opm import classify
from gnpb.protocols import BUILTIN_PROTOCOLS, get_protocol

from .test_golden_classify import TRIPARTITE
from .test_golden_cli import FAILING


def _rebuilt(basis, states):
    return OrthoProductBasis(basis.name, basis.parties, states)


def shuffled(basis, rng):
    """The states in a random order; the protocol is unchanged."""
    return _rebuilt(basis, [basis.states[i] for i in rng.permutation(len(basis))]), {}


def level_permuted(basis, rng):
    """Level ``k`` of each party becomes level ``perm[k]``; the returned
    permutations conjugate the protocol to match."""
    perms = {p: tuple(rng.permutation(d).tolist()) for p, d in basis.parties}
    states = []
    for st in basis.states:
        factors = []
        for f, (p, _) in zip(st.factors, basis.parties):
            g = np.zeros_like(f)
            g[list(perms[p])] = f
            factors.append(g)
        states.append(ProductState(st.label, tuple(factors)))
    return _rebuilt(basis, states), perms


def sign_flipped(basis, rng):
    """A random nonempty subset of the states times -1."""
    flip = rng.random(len(basis)) < 0.5
    flip[rng.integers(len(basis))] = True
    states = [ProductState(st.label, (-st.factors[0],) + st.factors[1:]) if f else st
              for st, f in zip(basis.states, flip)]
    return _rebuilt(basis, states), {}


TRANSFORMS = {"shuffle": shuffled, "permute-levels": level_permuted, "flip-signs": sign_flipped}
WALKS = [(name, None) for name in sorted(BUILTIN_PROTOCOLS)] + list(FAILING)


def _transformed(transform, basis, key):
    rng = np.random.default_rng(zlib.crc32(f"{transform}/{key}".encode()))
    new, perms = TRANSFORMS[transform](basis, rng)
    # a transform that changes nothing would check nothing
    assert not np.array_equal(new.joint_matrix(), basis.joint_matrix())
    return new, perms


@lru_cache(maxsize=None)
def _walk(name, basis_name):
    proto = get_protocol(name)
    basis = get_basis(basis_name) if basis_name else proto.basis()
    return proto.root, basis, verify_protocol(proto.root, basis, name)


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("name, basis_name", WALKS)
def test_walk_report_is_invariant(transform, name, basis_name):
    root, basis, want = _walk(name, basis_name)
    new, perms = _transformed(transform, basis, f"{name}@{basis.name}")
    got = verify_protocol(conjugate_tree(root, perms) if perms else root, new, name)
    assert got.ok == want.ok
    assert ({(f["node"], f["kind"]) for f in got.failures}
            == {(f["node"], f["kind"]) for f in want.failures})
    assert ({(path, labels) for path, labels, _ in got.leaf_strategies}
            == {(path, labels) for path, labels, _ in want.leaf_strategies})
    assert got.identification == pytest.approx(want.identification, rel=0, abs=1e-12)
    if want.ledger is None:
        assert got.ledger is None
        return
    assert ([(r.kind, r.endpoints, r.ebits_per_use) for r in got.ledger.rows]
            == [(r.kind, r.endpoints, r.ebits_per_use) for r in want.ledger.rows])
    assert [r.expected_uses for r in got.ledger.rows] == pytest.approx(
        [r.expected_uses for r in want.ledger.rows], rel=0, abs=1e-12)


def _classification(basis):
    c = classify(basis)
    witness = c.witness and (c.witness.group, sorted(len(e) for e in c.witness.eliminated))
    return c.verdict, c.single_dims, c.merged_dims, witness


@lru_cache(maxsize=None)
def _classified(name):
    return _classification(get_basis(name))


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("name", TRIPARTITE)
def test_classification_is_invariant(transform, name):
    new, _ = _transformed(transform, get_basis(name), name)
    assert _classification(new) == _classified(name)


def party_renamed(basis, order):
    """The parties in ``order``, renamed X, Y, Z in their new places, and
    each state's factors reordered to match; also the renaming."""
    parties = [basis.parties[k] for k in order]
    rename = {p: new for (p, _), new in zip(parties, "XYZ")}
    states = [ProductState(st.label, tuple(st.factors[k] for k in order)) for st in basis.states]
    return OrthoProductBasis(basis.name, [(rename[p], d) for p, d in parties], states), rename


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))), ids=str)
@pytest.mark.parametrize("name", TRIPARTITE)
def test_classification_survives_renamed_parties(name, order):
    basis = get_basis(name)
    new, rename = party_renamed(basis, order)
    want, got = classify(basis), classify(new)
    back = {new_name: p for p, new_name in rename.items()}
    assert got.verdict == want.verdict
    assert {back[p]: d for p, d in got.single_dims.items()} == want.single_dims
    assert ({frozenset(back[p] for p in g): d for g, d in got.merged_dims.items()}
            == {frozenset(g): d for g, d in want.merged_dims.items()})
    # the witness's candidate groups by their new names, which sort in the new order
    if want.verdict == "TypeI":
        dims = {(rename[p],): d for p, d in want.single_dims.items()}
    else:
        dims = {tuple(sorted(map(rename.get, g))): d for g, d in want.merged_dims.items()}
    first = next((g for g in sorted(dims) if dims[g] > 1), None)
    assert (got.witness and got.witness.group) == first
    if got.witness:
        assert any(got.witness.eliminated)
    if order == (0, 1, 2):  # the same groups in the same order
        counts = [c.witness and sorted(len(e) for e in c.witness.eliminated) for c in (got, want)]
        assert counts[0] == counts[1]
