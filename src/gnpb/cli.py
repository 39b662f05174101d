"""Command-line front door: batch verification and report emission.

Exit codes: 0 success, 1 usage or parse error, 2 verification failure.
All numeric report fields print with 12 significant digits so golden files
stay reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import engine, opm, pdl
from .bases import BUILTIN_BASES, OrthoProductBasis, check_basis, get_basis, render_tiles
from .protocols import BUILTIN_PROTOCOLS, NamedProtocol, get_protocol


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _rounded(x):
    """``x`` with every float (numpy scalars too) cut to 12 significant digits."""
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_rounded(v) for v in x]
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float):
        return float(format(x, ".12g"))
    return x


def _emit_json(doc):
    print(json.dumps(_rounded(doc), indent=2))


def _load_basis(ref):
    if ref in BUILTIN_BASES:
        return get_basis(ref)
    path = Path(ref)
    if path.suffix == ".json" and path.exists():
        try:
            return OrthoProductBasis.from_json(path.read_text(), name=path.stem)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"cannot read basis {path.name}: {exc}") from None
    raise UsageError(f"unknown basis {ref!r} (not a builtin, not a .json file)")


def _load_protocol(ref, basis_override=None):
    if ref in BUILTIN_PROTOCOLS:
        proto = get_protocol(ref)
        if basis_override:
            proto = NamedProtocol(proto.name, basis_override, proto.declared, proto.root)
        return proto
    path = Path(ref)
    if path.suffix == ".pdl" and path.exists():
        doc = pdl.parse(path.read_text())
        proto = NamedProtocol(path.stem, basis_override or doc.basis, (), doc.root)
        try:
            parties = proto.basis().parties
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
        if dict(doc.parties) != dict(parties):
            header = " ".join(f"{p}:{d}" for p, d in doc.parties)
            target = " ".join(f"{p}:{d}" for p, d in parties)
            raise UsageError(f"{path.name} declares parties {{ {header} }} "
                             f"but basis {proto.basis_name} has {{ {target} }}")
        return proto
    raise UsageError(f"unknown protocol {ref!r} (not a builtin, not a .pdl file)")


def _apply_tol(tol):
    if tol is not None:
        engine.PROB_TOL = tol
        engine.ORTHO_TOL = 10.0 * tol


# ---------------------------------------------------------------------------
# subcommands

def cmd_check_basis(args):
    basis = _load_basis(args.basis)
    report = check_basis(basis)
    if args.json:
        _emit_json(report.to_dict())
    else:
        print(f"basis {report.name}: {report.cardinality} states over dims "
              f"{'x'.join(map(str, report.local_dims))}")
        print(f"  max pairwise overlap: {_fmt(report.max_overlap)}")
        print(f"  completeness rank:    {report.completeness_rank} / {report.total_dim}")
        print(f"  orthogonal: {report.orthogonal}   complete: {report.complete}")
    return 0 if (report.orthogonal and report.complete) else 2


def cmd_classify(args):
    basis = _load_basis(args.basis)
    try:
        cert = opm.classify(basis)
    except ValueError as exc:
        raise UsageError(f"cannot classify {basis.name}: {exc}") from None
    if args.json:
        _emit_json(cert.to_dict())
    else:
        print(f"basis {cert.basis}: verdict {cert.verdict}")
        for p, d in cert.single_dims.items():
            print(f"  group {p}: solution-space dim {d}"
                  + ("  (reducible)" if d > 1 else ""))
        for g, d in cert.merged_dims.items():
            print(f"  group {'+'.join(g)}: solution-space dim {d}"
                  + ("  (reducible)" if d > 1 else ""))
        if cert.witness:
            w = cert.witness
            sizes = [len(s) for s in w.survivors]
            print(f"  witness: {len(w.effects)}-outcome OPM on {'+'.join(w.group)}, "
                  f"survivor counts {sizes}")
    return 0


def cmd_verify(args):
    proto = _load_protocol(args.protocol, args.basis)
    report = proto.verify()
    if args.json:
        _emit_json(report.to_dict())
    else:
        print(f"protocol {report.protocol} on basis {report.basis}: "
              + ("PASS" if report.ok else "FAIL"))
        print(f"  measurements checked: {report.n_measurements}, leaves: {report.n_leaves}")
        if report.ok and report.ledger:
            print(f"  total entanglement: {_fmt(report.ledger.total_ebits)} ebits"
                  + (f" + {_fmt(report.ledger.ghz_count)} GHZ"
                     if report.ledger.ghz_count else ""))
        for f in report.failures[:10]:
            print(f"  failure at {f['node']}: {f['kind']}: {f['detail']}")
        if len(report.failures) > 10:
            print(f"  ... and {len(report.failures) - 10} more")
    return 0 if report.ok else 2


def cmd_account(args):
    proto = _load_protocol(args.protocol, args.basis)
    report = proto.verify()
    if not report.ok:
        print(f"protocol {proto.name} fails verification; no ledger", file=sys.stderr)
        return 2
    ledger = report.ledger
    if args.json:
        _emit_json(ledger.to_dict())
    else:
        print(f"protocol {proto.name} on {report.basis}: entanglement ledger")
        for row in ledger.rows:
            unit = "GHZ" if row.kind == "GHZ" else f"{_fmt(row.ebits_per_use)} ebits/use"
            total = "" if row.ebits is None else f" = {_fmt(row.ebits)} ebits"
            print(f"  {row.kind} {('-'.join(row.endpoints))}: "
                  f"expected uses {_fmt(row.expected_uses)} ({unit}){total}")
        print(f"  total: {_fmt(ledger.total_ebits)} ebits"
              + (f" + {_fmt(ledger.ghz_count)} GHZ "
                 f"(distribution bound {_fmt(ledger.ghz_distribution_bound_ebits)} ebits)"
                 if ledger.ghz_count else ""))
        print(f"  teleportation baseline: {_fmt(ledger.baseline_ebits)} ebits; "
              f"beats baseline: {ledger.beats_baseline}")
    return 0


def cmd_tiles(args):
    basis = _load_basis(args.basis)
    names = [p for p, _ in basis.parties]
    cut = args.cut
    if cut is None:
        if len(names) != 2:
            raise UsageError("--cut is required for more than two parties")
        merged = (names[0],)
    else:
        if "|" not in cut:
            raise UsageError("cut must look like AB|C")
        left, right = cut.split("|", 1)
        merged = tuple(left)
        if sorted(left + right) != sorted(names):
            raise UsageError(f"cut {cut!r} does not partition parties {names}")
        if len(right) != 1:
            raise UsageError(f"cut {cut!r} must leave exactly one party right of '|'")
    report = render_tiles(basis, merged)
    print(report.text)
    return 0


def cmd_list(args):
    print("bases:")
    for name in BUILTIN_BASES:
        print(f"  {name}")
    print("protocols:")
    for name in BUILTIN_PROTOCOLS:
        print(f"  {name}")
    return 0


def build_parser():
    parser = _Parser(prog="gnpb", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the probability tolerance (default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-basis", help="orthogonality/completeness report")
    p.add_argument("basis")
    p.set_defaults(func=cmd_check_basis)

    p = sub.add_parser("classify", help="OPM reducibility classification")
    p.add_argument("basis")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="verify a protocol tree")
    p.add_argument("protocol")
    p.add_argument("--basis", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("account", help="entanglement ledger of a passing protocol")
    p.add_argument("protocol")
    p.add_argument("--basis", default=None)
    p.set_defaults(func=cmd_account)

    p = sub.add_parser("tiles", help="ASCII tile rendering of a basis")
    p.add_argument("basis")
    p.add_argument("--cut", default=None, help="e.g. AB|C")
    p.set_defaults(func=cmd_tiles)

    p = sub.add_parser("list", help="built-in bases and protocols")
    p.set_defaults(func=cmd_list)
    return parser


def main(argv=None):
    parser = build_parser()
    saved_tol = engine.PROB_TOL, engine.ORTHO_TOL
    try:
        args = parser.parse_args(argv)
        _apply_tol(args.tol)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except pdl.PdlError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    finally:
        engine.PROB_TOL, engine.ORTHO_TOL = saved_tol


if __name__ == "__main__":
    sys.exit(main())
