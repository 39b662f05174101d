"""Averaged entanglement ledgers and the teleportation baseline.

A resource counts as consumed on a branch only if some measurement on the
path touched one of its registers non-trivially; untouched pairs are
returned intact.  Ledgers average over a uniform prior on the basis.
"""

from math import log2

from gnpb.protocols import get_protocol

print("=== ledgers vs teleporting everything to one party ===")
for name in ("prop5_II33", "prop6", "prop7", "prop8", "remark2", "typeI_43"):
    ledger = get_protocol(name).verify().ledger
    rows = ", ".join(
        f"{r.kind}({'-'.join(r.endpoints)}) x {r.expected_uses:.6g}"
        for r in ledger.rows)
    bound = ledger.total_ebits + ledger.ghz_distribution_bound_ebits
    print(f"{name:12s}: {rows}")
    print(f"{'':12s}  total {ledger.total_ebits:.9f} ebits"
          + (f" + {ledger.ghz_count:g} GHZ (<= {bound:.4f} ebits)"
             if ledger.ghz_count else "")
          + f"   baseline {ledger.baseline_ebits:.4f}   beats: {ledger.beats_baseline}")

print()
print("=== landmark averages ===")
p7 = get_protocol("prop7").verify().ledger
print(f"prop7 third-pair consumption: {p7.expected('EPR', ('B', 'C')):.12f} "
      f"(8/27 = {8 / 27:.12f})")
p8 = get_protocol("prop8").verify().ledger
r2 = get_protocol("remark2").verify().ledger
print(f"prop8 conditional EPR:        {p8.expected('EPR', ('B', 'C')):.12f} (1/8)")
print(f"remark2 conditional EPR:      {r2.expected('EPR', ('B', 'C')):.12f} (11/16)")
print()
print("The genuinely tripartite resource needs far less conditional pair")
print("entanglement than the bipartite-only start: 1/8 vs 11/16.")
print()
print(f"prop5 total = log2(3)+1 = {log2(3) + 1:.12f}")
print(f"prop6 total = 2.0 beats it, and prop7 reaches 2+8/27 = {2 + 8 / 27:.12f}")
