"""The protocol description language: serialize, inspect, parse, verify.

Every built-in protocol is written once, as a .pdl fixture under
protocols/; this demo shows the text form is a faithful, reviewable
encoding, and that a mirrored outcome stands for its sibling's subtree
with the named ancillas flipped.
"""

from gnpb import pdl
from gnpb.engine import conjugate_tree
from gnpb.protocols import NamedProtocol, get_protocol

proto = get_protocol("prop5_II33")
text = pdl.serialize(proto)

print("=== head of the serialized protocol ===")
print("\n".join(text.splitlines()[:24]))
print("...")

doc = pdl.parse(text)
print()
print(f"parse(serialize(p)).root == p.root: {doc.root == proto.root}")

reparsed = NamedProtocol("reparsed", doc.basis, (), doc.root)
print(f"re-serialization is a fixpoint:     {pdl.serialize(reparsed) == text}")
report = reparsed.verify()
print(f"parsed tree verifies:               {report.ok}")

print()
print("=== a mirrored outcome, written out ===")
print(next(line.strip() for line in text.splitlines() if " mirror " in line))
expanded = NamedProtocol(proto.name, doc.basis, (), conjugate_tree(doc.root, {}))
print(f"{len(text.splitlines())} lines with the mirror, "
      f"{len(pdl.serialize(expanded).splitlines())} written out; "
      f"same report: {expanded.verify().to_dict() == proto.verify().to_dict()}")

print()
print("=== a parse error carries its source position ===")
broken = text.replace("outcomes", "outcome", 1)
try:
    pdl.parse(broken)
except pdl.PdlError as err:
    print(f"PdlError: {err}")
