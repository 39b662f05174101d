"""The engine's walk agrees with the dense reference walk of ``reference_walk``.

Compared: the verdict, the set of (node, kind) failures (not their detail
text), the identification totals and the ledger rows to 1e-12, and the
set of distinguishable leaves (path and labels).  The reference walk
flips states at a mirror where the engine conjugates effects, so the
comparison checks the engine's flip rule too.  Both walks certify a leaf
with the same strategy search, so the strategies themselves are pinned
elsewhere (``test_golden_cli.py``).
"""

import pytest
from hypothesis import HealthCheck, given, settings

from gnpb.bases import get_basis
from gnpb.engine import verify_protocol
from gnpb.protocols import BUILTIN_PROTOCOLS, get_protocol
from gnpb.qstate import TOL

from .reference_walk import ReferenceWalk
from .test_engine import BAD_MIRRORS, bad_mirror
from .test_golden_cli import DENSE_SUPPORT_DIGESTS, FAILING, _rotated
from .test_no_crash import BASES, protocols


def assert_walks_agree(root, basis, tol=TOL):
    report = verify_protocol(root, basis, "walk", tol)
    ref = ReferenceWalk(root, basis, tol)
    assert report.ok == ref.ok
    assert {(f["node"], f["kind"]) for f in report.failures} == ref.failures
    assert report.identification == pytest.approx(ref.identification, rel=0, abs=1e-12)
    assert {(path, labels) for path, labels, _ in report.leaf_strategies} == ref.leaves
    if ref.ok:
        rows = [(r.kind, r.endpoints, r.ebits_per_use) for r in report.ledger.rows]
        assert rows == [(kind, ends, per) for kind, ends, _, per in ref.ledger]
        assert [r.expected_uses for r in report.ledger.rows] == pytest.approx(
            [uses for _, _, uses, _ in ref.ledger], rel=0, abs=1e-12)
    return report


@pytest.mark.parametrize("name", sorted(BUILTIN_PROTOCOLS))
def test_builtin_protocol(name):
    proto = get_protocol(name)
    assert assert_walks_agree(proto.root, proto.basis()).ok


@pytest.mark.parametrize("name, basis", FAILING)
def test_protocol_on_a_basis_it_does_not_fit(name, basis):
    assert not assert_walks_agree(get_protocol(name).root, get_basis(basis)).ok


@pytest.mark.parametrize("name, angle, tol", sorted(DENSE_SUPPORT_DIGESTS))
def test_rotated_basis(name, angle, tol):
    proto = get_protocol(name)
    assert_walks_agree(proto.root, _rotated(proto.basis(), angle), tol)


def _assert_mirror_error(case):
    report = assert_walks_agree(*bad_mirror(*BAD_MIRRORS[case]))
    assert ("root", "execution-error") in {(f["node"], f["kind"]) for f in report.failures}


def test_mirror_of_a_register_that_is_no_qubit():
    _assert_mirror_error("qutrit-no-image")


@pytest.mark.parametrize("case", ["qutrit", "twice", "unknown"])
def test_mirror_outside_the_parser_rules(case):
    _assert_mirror_error(case)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(proto=protocols())
def test_random_tree(proto):
    assert_walks_agree(proto.root, BASES[proto.basis_name])
