"""Command-line front door: batch verification and report emission.

Exit codes: 0 success, 1 usage or parse error, 2 verification failure.
All numeric report fields print with 12 significant digits so golden files
stay reproducible.  Each command imports only the modules it runs: ``bases``
for a basis, ``opm`` for ``classify``, ``pdl`` for ``.pdl`` files,
``protocols`` (which parses a built-in's fixture with ``pdl``) for built-in
protocols and ``engine`` for ``verify`` and ``account``.
``list``, ``--help``, usage errors and ``.pdl`` parse errors read only the
numpy-free ``tree`` module, so they never load numpy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import tree


class UsageError(Exception):
    """Exit code 1, reported as one ``error:`` line."""

    prefix = "error"


class ParseError(UsageError):
    """A ``.pdl`` file that does not parse: one ``parse error:`` line."""

    prefix = "parse error"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit_json(doc):
    import json  # only --json needs it

    import numpy as np  # every command with a JSON report has loaded it

    def rounded(x):
        """``x`` with every float (numpy scalars too) cut to 12 significant digits."""
        if isinstance(x, dict):
            return {k: rounded(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [rounded(v) for v in x]
        if isinstance(x, np.generic):
            x = x.item()
        if isinstance(x, float):
            return float(format(x, ".12g"))
        return x

    print(json.dumps(rounded(doc), indent=2))


def _load_basis(ref):
    from . import bases

    if ref in tree.BASIS_NAMES:
        return bases.get_basis(ref)
    path = Path(ref)
    if path.suffix == ".json" and path.is_file():
        try:
            return bases.OrthoProductBasis.from_json(path.read_text(), name=path.stem)
        except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise UsageError(f"cannot read basis {path.name}: {exc}") from None
    raise UsageError(f"unknown basis {ref!r} (not a builtin, not a .json file)")


def _load_protocol(ref, basis_name=None):
    """``(name, root, basis)`` of a built-in protocol or a ``.pdl`` file; the
    basis (``basis_name`` when given) must have the protocol's parties.  No
    built-in name ends in ``.pdl``, so a ``.pdl`` path needs no protocol table."""
    path = Path(ref)
    if path.suffix == ".pdl" and path.is_file():
        from . import pdl

        try:
            doc = pdl.parse(path.read_text())
        except pdl.PdlError as exc:
            raise ParseError(exc) from None
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read protocol {path.name}: {exc}") from None
        name, root, source, parties = path.stem, doc.root, path.name, doc.parties
        basis_name, own = basis_name or doc.basis, None
    else:
        if ref not in tree.PROTOCOL_NAMES:
            raise UsageError(f"unknown protocol {ref!r} (not a builtin, not a .pdl file)")
        from .protocols import get_protocol

        proto = get_protocol(ref)
        name, root, source, own = proto.name, proto.root, ref, proto.basis()
        parties = own.parties
    from .bases import get_basis

    try:
        basis = get_basis(basis_name) if basis_name else own
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    if dict(parties) != dict(basis.parties):
        header = " ".join(f"{p}:{d}" for p, d in parties)
        target = " ".join(f"{p}:{d}" for p, d in basis.parties)
        raise UsageError(f"{source} declares parties {{ {header} }} "
                         f"but basis {basis.name} has {{ {target} }}")
    return name, root, basis


def tolerance(text):
    tol = float(text)  # argparse reports a ValueError as a usage error
    if not 0 < tol < 1:  # NaN fails too
        raise argparse.ArgumentTypeError(f"tolerance must lie in (0, 1), got {text}")
    return tol


# ---------------------------------------------------------------------------
# subcommands

def cmd_check_basis(args):
    from .bases import check_basis

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
    from . import opm

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
    name, root, basis = _load_protocol(args.protocol, args.basis)
    from . import engine  # after the protocol: a parse error loads no numpy

    report = engine.verify_protocol(root, basis, name, args.tol)
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
    name, root, basis = _load_protocol(args.protocol, args.basis)
    from . import engine  # after the protocol: a parse error loads no numpy

    report = engine.verify_protocol(root, basis, name, args.tol)
    if not report.ok:
        print(f"protocol {name} fails verification; no ledger", file=sys.stderr)
        return 2
    ledger = report.ledger
    if args.json:
        _emit_json(ledger.to_dict())
    else:
        print(f"protocol {name} on {report.basis}: entanglement ledger")
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
    from .bases import render_tiles

    basis = _load_basis(args.basis)
    names = [p for p, _ in basis.parties]
    if len(names) < 2:
        raise UsageError(f"tiles needs at least two parties; basis {basis.name} "
                         f"has {len(names)}")
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
    for name in tree.BASIS_NAMES:
        print(f"  {name}")
    print("protocols:")
    for name in tree.PROTOCOL_NAMES:
        print(f"  {name}")
    return 0


def build_parser():
    parser = _Parser(prog="gnpb", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument("--tol", type=tolerance, default=tree.TOL,
                        help="verification tolerance in (0, 1) (default 1e-9)")
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
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
