"""Tour of the built-in product bases and their tile pictures.

Every basis is a plain table of labeled product states; nothing about it
is trusted until check_basis recomputes orthogonality and completeness
from the amplitudes.
"""

import numpy as np

from gnpb import bases

print("=== integrity of every built-in basis ===")
for name in bases.BUILTIN_BASES:
    rep = bases.check_basis(bases.get_basis(name))
    print(f"{name:12s}  states={rep.cardinality:3d}  dims={'x'.join(map(str, rep.local_dims))}"
          f"  max overlap={rep.max_overlap:.2e}  complete={rep.complete}")

print()
print("=== the two-qutrit domino tiles ===")
print(bases.render_tiles(bases.bennett_npb_3x3(), merged=("A",)).text)

print()
print("=== the 27-state type-II basis, merged-pair view ===")
rep = bases.render_tiles(bases.basis_II_33(), merged=("A", "B"))
print(rep.text)
multi = [g for g in rep.groups if len(g.rows) * len(g.cols) > 1]
print(f"\n{len(multi)} multi-cell families splitting into "
      f"{sum(len(g.pieces) for g in multi)} contiguous pieces, "
      f"{len(rep.groups) - len(multi)} diagonal cells")

print()
print("=== the shift completion on three qubits ===")
print(bases.render_tiles(bases.shift_upb_opb_222(), merged=("A", "B")).text)

print()
print("=== resource states and their per-cut entanglement ===")
from gnpb.qstate import CompositeSpace, Subsystem, schmidt_ebits

for kind in ("EPR", "EPR3", "GHZ", "W"):
    dims = bases.RESOURCE_KINDS[kind][0]
    labels = [f"r{i}" for i in range(len(dims))]
    space = CompositeSpace(Subsystem(lbl, d, lbl) for lbl, d in zip(labels, dims))
    ebits = schmidt_ebits(space, bases.resource_amplitudes(kind), (labels[0],))
    print(f"{kind:5s} on dims {dims}: {ebits:.6f} ebits across a single-party cut")
print(f"(log2(3) = {np.log2(3):.6f}, log2(3)-2/3 = {np.log2(3)-2/3:.6f})")
