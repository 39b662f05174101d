"""Property: no well-formed protocol tree crashes verification or the CLI.

Random trees on the built-in bases mix measurements with computational and
(|i> +- |j>)/sqrt2 kets on registers the actor holds (with or without a
``rest`` effect, and with outcomes that mirror the first one under flips of
qubit registers), EPR/GHZ attachments with fresh labels, merges with random
costs and random leaves.  Most of them fail verification; what must hold is
that every failure is a documented kind, that the PDL text of the tree
parses back to the same tree, and that ``gnpb verify`` exits 0, 1 or 2.
"""

import contextlib
import io
import re
from math import log2
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gnpb import pdl
from gnpb.bases import BUILTIN_BASES, get_basis
from gnpb.cli import main
from gnpb.engine import verify_protocol
from gnpb.protocols import NamedProtocol
from gnpb.tree import (
    RESOURCE_KINDS,
    AttachResource,
    Distinguishable,
    Effect,
    Fail,
    Identify,
    KetExpr,
    Measure,
    MergeParties,
    Mirror,
    PTerm,
)

SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "report-schema.md"
DOCUMENTED_KINDS = set(re.findall(
    r"`([a-z-]+)`", SCHEMA.read_text().split("Failure kinds:")[1].split("\n\n")[0]))
BASES = {name: get_basis(name) for name in BUILTIN_BASES}


@st.composite
def kets(draw, dim):
    i = draw(st.integers(0, dim - 1))
    if draw(st.booleans()):
        return KetExpr(i)
    j = draw(st.integers(0, dim - 2))
    return KetExpr(i, j + (j >= i), draw(st.sampled_from((1, -1))))


@st.composite
def terms(draw, dims):
    regs = draw(st.lists(st.sampled_from(sorted(dims)), min_size=1, max_size=len(dims),
                         unique=True))
    factors = []
    for r in regs:
        ks = None if draw(st.integers(0, 4)) == 0 else tuple(
            draw(st.lists(kets(dims[r]), min_size=1, max_size=2, unique=True)))
        factors.append((r, ks))
    return PTerm(tuple(factors))


@st.composite
def complete_measurement(draw, dims):
    """Projectors onto groups of an orthonormal basis of one register."""
    reg = draw(st.sampled_from(sorted(dims)))
    d = dims[reg]
    i, j = draw(st.permutations(range(d)))[:2]
    basis = [KetExpr(k) for k in range(d)]
    if draw(st.booleans()):
        basis = [KetExpr(i, j, 1), KetExpr(i, j, -1)] + [k for k in basis if k.i not in (i, j)]
    group = draw(st.lists(st.integers(0, 2), min_size=d, max_size=d))
    return [(reg, tuple(k for k, g in zip(basis, group) if g == n)) for n in sorted(set(group))]


@st.composite
def trees(draw, labels, held, depth):
    """A node over the registers ``held``: party -> {register: dim}."""
    kinds = ["leaf"] if depth == 0 else ["leaf", "measure", "measure", "attach", "merge"]
    kind = draw(st.sampled_from(kinds))
    parties = sorted(held)
    if kind == "measure":
        actor = draw(st.sampled_from(parties))
        if draw(st.booleans()):
            effects = [Effect(f"E{e}", (PTerm((f,)),))
                       for e, f in enumerate(draw(complete_measurement(held[actor])))]
        else:
            effects = [Effect(f"E{e}", tuple(draw(st.lists(terms(held[actor]), min_size=1,
                                                              max_size=2))))
                       for e in range(draw(st.integers(1, 3)))]
        if draw(st.booleans()):
            effects[-1:] = [Effect("R", None)]
        children = {e.name: draw(trees(labels, held, depth - 1)) for e in effects}
        qubits = sorted(r for regs in held.values() for r, d in regs.items() if d == 2)
        for e in effects[1:]:
            if qubits and draw(st.booleans()):
                flips = draw(st.lists(st.sampled_from(qubits), min_size=1, unique=True))
                children[e.name] = Mirror(effects[0].name, tuple(flips))
        return Measure(actor, tuple(effects), children)
    options = [k for k in ("EPR", "GHZ") if len(RESOURCE_KINDS[k][0]) <= len(parties)]
    if kind == "attach" and options:
        res = draw(st.sampled_from(options))
        dims = RESOURCE_KINDS[res][0]
        ends = draw(st.permutations(parties))[:len(dims)]
        fresh = sum(len(regs) for regs in held.values())
        names = tuple(f"r{fresh + k}" for k in range(len(dims)))
        inner = {p: dict(regs) for p, regs in held.items()}
        for p, name, d in zip(ends, names, dims):
            inner[p][name] = d
        return AttachResource(res, tuple(ends), names, draw(trees(labels, inner, depth - 1)))
    if kind == "merge" and len(held) > 1:
        src, dst = draw(st.permutations(parties))[:2]
        inner = {p: dict(regs) for p, regs in held.items() if p != src}
        inner[dst].update(held[src])
        cost = draw(st.sampled_from((0.0, 1.0, log2(3), 2.0))
                    | st.floats(0, 4, allow_nan=False))
        return MergeParties(src, dst, cost, draw(trees(labels, inner, depth - 1)))
    leaf = draw(st.sampled_from(("identify", "distinguishable", "fail")))
    if leaf == "identify":
        return Identify(draw(st.sampled_from(labels)))
    if leaf == "distinguishable":
        return Distinguishable(draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4)))
    return Fail()


@st.composite
def protocols(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    basis = BASES[name]
    held = {p: {p: d} for p, d in basis.parties}
    return NamedProtocol("random", name, (), draw(trees(basis.labels, held, 3)))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(proto=protocols())
# repr() prints this cost with a signed exponent, which must lex as one number
@example(proto=NamedProtocol("random", "B_II_33", (),
                             MergeParties("A", "B", 1e-05, Identify("psi_1_pp"))))
def test_random_tree_never_crashes(tmp_path, proto):
    report = verify_protocol(proto.root, BASES[proto.basis_name], proto.name)
    assert {f["kind"] for f in report.failures} <= DOCUMENTED_KINDS
    text = pdl.serialize(proto)
    assert pdl.parse(text).root == proto.root
    path = tmp_path / "random.pdl"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify", str(path)]) in (0, 1, 2)
