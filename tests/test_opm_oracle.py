"""The walk against the OPM solution space, with no pinned answer.

A single-party projective first measurement preserves orthogonality exactly
when each of its effects E satisfies ``<a_i|E|a_j> = 0`` on every pair of
states whose other factors overlap, which is
``opm_solution_space(basis, (actor,)).satisfies(E)``.  The walk checks the
same law on the post-measurement states of each outcome.  So on random
measurements drawn from the ``KetExpr`` vocabulary, the root node's
``orthogonality`` verdict per effect must equal the OPM test, and a basis
whose single parties have only the identity (every ``TypeIIb`` basis)
rejects every effect of every draw.
"""

import zlib

import numpy as np
import pytest

from gnpb.bases import get_basis
from gnpb.engine import materialize, verify_protocol
from gnpb.opm import classify, opm_solution_space
from gnpb.tree import BASIS_NAMES, Fail, KetExpr, P, eff, measure

DRAWS = 12


def draw_measurement(actor, d, rng):
    """A complete projective measurement of one party: an orthonormal basis
    of ``|i>`` and ``(|i> +- |j>)/sqrt2`` kets, grouped into 2 to d effects."""
    levels = rng.permutation(d).tolist()
    kets = []
    while levels:
        i = levels.pop()
        if levels and rng.random() < 0.5:
            j = levels.pop()
            kets += [KetExpr(i, j, 1), KetExpr(i, j, -1)]
        else:
            kets.append(KetExpr(i))
    n = int(rng.integers(2, d + 1))
    owner = np.concatenate([np.arange(n), rng.integers(n, size=d - n)])[rng.permutation(d)]
    effects = [eff(f"e{k}", P(**{actor: [kets[m] for m in np.flatnonzero(owner == k)]}))
               for k in range(n)]
    return measure(actor, effects, {e.name: Fail() for e in effects})


def _cases():
    for name in BASIS_NAMES:
        for actor, d in get_basis(name).parties:
            yield name, actor, d


@pytest.mark.parametrize("name, actor, d", list(_cases()))
def test_root_orthogonality_is_the_opm_test(name, actor, d):
    basis = get_basis(name)
    space = opm_solution_space(basis, (actor,))
    rng = np.random.default_rng(zlib.crc32(f"{name}/{actor}".encode()))
    verdicts = []
    for _ in range(DRAWS):
        root = draw_measurement(actor, d, rng)
        report = verify_protocol(root, basis)
        broken = {f["node"] for f in report.failures if f["kind"] == "orthogonality"}
        assert not [f for f in report.failures
                    if f["kind"] in ("completeness", "not-projector", "execution-error")]
        for e in root.effects:
            kept = f"root/{e.name}" not in broken
            assert kept == space.satisfies(materialize(e, basis.space(), (actor,)))
            verdicts.append(kept)
    if space.dim == 1:
        assert not any(verdicts)  # only the identity keeps every pair orthogonal


def test_type_IIb_bases_reject_every_draw():
    names = [n for n in BASIS_NAMES if len(get_basis(n).parties) == 3
             and classify(get_basis(n)).verdict == "TypeIIb"]
    assert names == ["B_II_33", "B_IIb_33"]
    for name in names:
        basis = get_basis(name)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for actor, d in basis.parties:
            for _ in range(DRAWS):
                root = draw_measurement(actor, d, rng)
                broken = {f["node"] for f in verify_protocol(root, basis).failures
                          if f["kind"] == "orthogonality"}
                assert broken == {f"root/{e.name}" for e in root.effects}


def test_the_draws_reach_both_answers():
    """The equivalence is not vacuous: on ``B_I_43`` Alice's ``|3><3|`` and
    its complement pass, and ``|0><0|`` and its complement fail."""
    basis = get_basis("B_I_43")
    space = opm_solution_space(basis, ("A",))
    good = measure("A", [eff("three", P(A=3)), eff("rest", P(A=[0, 1, 2]))],
                   {"three": Fail(), "rest": Fail()})
    bad = measure("A", [eff("zero", P(A=0)), eff("rest", P(A=[1, 2, 3]))],
                  {"zero": Fail(), "rest": Fail()})
    for root, want in ((good, True), (bad, False)):
        failures = verify_protocol(root, basis).failures
        assert all(f["kind"] != "orthogonality" for f in failures) is want
        assert all(space.satisfies(materialize(e, basis.space(), ("A",)))
                   for e in root.effects) is want
