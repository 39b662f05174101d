"""The built-in discrimination protocols, read from their ``.pdl`` fixtures.

Each protocol is written once, as ``protocols/<name>.pdl`` (shipped in the
package as ``gnpb/fixtures``).  Sibling outcome branches that are images
of one finished branch under ancilla bit flips are written as ``mirror``
outcomes, the paper's "by symmetry"; the walk checks that each flipped
register is a qubit in scope and expands the mirror, and the expanded
branch is machine-verified like any other, never trusted.  Where
a surviving pair only differs in an entangled sign shared with a remote
ancilla, the tree appends explicit +-basis ancilla measurements (a "sign
dance") until every leaf is a product set certified by the leaf strategy
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .bases import get_basis
from .engine import verify_protocol
from .pdl import parse

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@dataclass
class NamedProtocol:
    """A protocol bound to its target basis and declared resource budget."""

    name: str
    basis_name: str
    declared: tuple  # of (kind, endpoints, expected_uses)
    root: object

    def basis(self):
        return get_basis(self.basis_name)

    def verify(self, basis=None):
        return verify_protocol(self.root, basis if basis is not None else self.basis(),
                               name=self.name)


#: name -> the paper's declared budget, as (kind, endpoints, expected uses)
BUILTIN_PROTOCOLS = {
    "prop5_II33": (("MERGE", ("A", "B"), 1.0), ("EPR", ("A", "C"), 1.0)),
    "prop5_IIb33": (("MERGE", ("A", "B"), 1.0), ("EPR", ("A", "C"), 1.0)),
    "prop6": (("EPR", ("A", "B"), 1.0), ("EPR", ("A", "C"), 1.0)),
    "prop7": (("EPR", ("A", "B"), 1.0), ("EPR", ("A", "C"), 1.0),
              ("EPR", ("B", "C"), 8.0 / 27.0)),
    "prop8": (("GHZ", ("A", "B", "C"), 1.0), ("EPR", ("B", "C"), 1.0 / 8.0)),
    "remark2": (("EPR", ("A", "B"), 1.0), ("EPR", ("B", "C"), 11.0 / 16.0)),
    "typeI_43": (("MERGE", ("B", "C"), 9.0 / 64.0), ("MERGE", ("A", "B"), 9.0 / 64.0)),
    "shift_BC": (("EPR", ("B", "C"), 1.0),),
    "shift_AB": (("EPR", ("A", "B"), 1.0),),
    "shift_CA": (("EPR", ("C", "A"), 1.0),),
}


def get_protocol(name):
    try:
        declared = BUILTIN_PROTOCOLS[name]
    except KeyError:
        raise KeyError(f"unknown protocol {name!r}; known: {sorted(BUILTIN_PROTOCOLS)}") from None
    doc = parse((FIXTURES / f"{name}.pdl").read_text())
    return NamedProtocol(name, doc.basis, declared, doc.root)
