"""Expected answers, typed in from the paper, README and ROADMAP.

Nothing here is computed by gnpb.  Each ``check_*`` function takes what the
program returned and gives back ``None`` when it matches the key, or a short
description of the first mismatch.  A mismatch counts as a failed request.
"""

from __future__ import annotations

import json
import re
from math import log2

ABS = 1e-9  # ledger values are floats summed over a tree; the key is exact

GROUPS = ("A+B", "A+C", "B+C")

#: basis -> (verdict, single-party dims A/B/C, merged dims AB/AC/BC,
#:           witness group or None, number of states)
#: B_II_33's merged dims and verdict are stated in no document; they are
#: the only TypeIIb reading consistent with its trivial single-party spaces
#: (acceptance criterion 2) and are pinned here as a regression value.
CLASSIFY = {
    "B_I_43": ("TypeI", (2, 2, 2), (10, 12, 10), ("A",), 64),
    "B_II_43": ("TypeIIa", (1, 1, 1), (8, 10, 8), ("A", "B"), 64),
    "B_II_33": ("TypeIIb", (1, 1, 1), (1, 1, 1), None, 27),
    "B_IIb_33": ("TypeIIb", (1, 1, 1), (1, 1, 1), None, 27),
    "shift_222": ("TypeIIa", (1, 1, 1), (2, 2, 2), ("A", "B"), 8),
}

#: protocol -> (basis, total ebits, GHZ count, {(kind, endpoints): uses})
LEDGERS = {
    "prop5_II33": ("B_II_33", log2(3) + 1, 0.0, {("EPR", "AC"): 1.0, ("MERGE", "AB"): 1.0}),
    "prop5_IIb33": ("B_IIb_33", log2(3) + 1, 0.0, {("EPR", "AC"): 1.0, ("MERGE", "AB"): 1.0}),
    "prop6": ("B_II_33", 2.0, 0.0, {("EPR", "AB"): 1.0, ("EPR", "AC"): 1.0}),
    "prop7": ("B_IIb_33", 2 + 8 / 27, 0.0,
              {("EPR", "AB"): 1.0, ("EPR", "AC"): 1.0, ("EPR", "BC"): 8 / 27}),
    "prop8": ("B_II_43", 1 / 8, 1.0, {("EPR", "BC"): 1 / 8, ("GHZ", "ABC"): 1.0}),
    "remark2": ("B_II_43", 1 + 11 / 16, 0.0, {("EPR", "AB"): 1.0, ("EPR", "BC"): 11 / 16}),
    "typeI_43": ("B_I_43", 2 * 9 / 64 * log2(3), 0.0,
                 {("MERGE", "AB"): 9 / 64, ("MERGE", "BC"): 9 / 64}),
    "shift_BC": ("shift_222", 1.0, 0.0, {("EPR", "BC"): 1.0}),
    "shift_AB": ("shift_222", 1.0, 0.0, {("EPR", "AB"): 1.0}),
    "shift_CA": ("shift_222", 1.0, 0.0, {("EPR", "AC"): 1.0}),
}

#: tree sizes stated in the ROADMAP
TREE_SIZES = {"prop7": (127, 188)}

#: (protocol, basis it is run against) -> kind of the first failure
FAILING = {
    ("prop6", "B_IIb_33"): "orthogonality",
    ("prop7", "B_II_33"): "orthogonality",
    ("prop8", "B_I_43"): "leaf-set",
}


def check_basis_integrity(name, report):
    cardinality = CLASSIFY[name][4]
    if report.cardinality != cardinality:
        return f"{name}: {report.cardinality} states, expected {cardinality}"
    if not (report.orthogonal and report.complete):
        return f"{name}: orthogonal={report.orthogonal} complete={report.complete}"
    return None


def check_classification(name, single, merged, verdict, witness_group):
    """Compare one classification, given as plain values, with the key."""
    want_verdict, want_single, want_merged, want_group, _ = CLASSIFY[name]
    if verdict != want_verdict:
        return f"{name}: verdict {verdict}, expected {want_verdict}"
    if tuple(single) != want_single:
        return f"{name}: single dims {tuple(single)}, expected {want_single}"
    if tuple(merged) != want_merged:
        return f"{name}: merged dims {tuple(merged)}, expected {want_merged}"
    if (witness_group is None) != (want_group is None):
        return f"{name}: witness {witness_group}, expected {want_group}"
    if want_group is not None and tuple(witness_group) != want_group:
        return f"{name}: witness group {tuple(witness_group)}, expected {want_group}"
    return None


def check_classify(name, report, cert):
    """One ``check_basis`` + ``classify`` request."""
    return check_basis_integrity(name, report) or check_classification(
        name,
        [cert.single_dims[p] for p in "ABC"],
        [cert.merged_dims[tuple(g.split("+"))] for g in GROUPS],
        cert.verdict,
        cert.witness.group if cert.witness else None,
    )


def _ledger_rows(rows):
    """{(kind, sorted endpoint letters): uses} from (kind, endpoints, uses)."""
    return {(kind, "".join(sorted(ends))): uses for kind, ends, uses in rows}


def check_ledger(name, total, ghz, rows):
    _, want_total, want_ghz, want_rows = LEDGERS[name]
    if abs(total - want_total) > ABS:
        return f"{name}: total {total} ebits, expected {want_total}"
    if abs(ghz - want_ghz) > ABS:
        return f"{name}: {ghz} GHZ, expected {want_ghz}"
    got = _ledger_rows(rows)
    if set(got) != set(want_rows):
        return f"{name}: ledger rows {sorted(got)}, expected {sorted(want_rows)}"
    for key, uses in want_rows.items():
        if abs(got[key] - uses) > ABS:
            return f"{name}: {key} used {got[key]} times, expected {uses}"
    return None


def check_verify(name, report):
    """One passing ``verify`` + ledger request."""
    if not report.ok:
        return f"{name}: FAIL {report.failures[:1]}"
    if report.basis != LEDGERS[name][0]:
        return f"{name}: verified on {report.basis}, expected {LEDGERS[name][0]}"
    if name in TREE_SIZES and (report.n_measurements, report.n_leaves) != TREE_SIZES[name]:
        return f"{name}: tree {report.n_measurements}/{report.n_leaves}, expected {TREE_SIZES[name]}"
    ledger = report.ledger
    if not ledger.beats_baseline:
        return f"{name}: ledger does not beat the teleportation baseline"
    return check_ledger(name, ledger.total_ebits, ledger.ghz_count,
                        [(r.kind, r.endpoints, r.expected_uses) for r in ledger.rows])


def check_failure(name, basis, report):
    """One verify request that must be rejected with a known first failure."""
    want = FAILING[(name, basis)]
    if report.ok or not report.failures:
        return f"{name} on {basis}: passed, expected FAIL ({want})"
    if report.failures[0]["kind"] != want:
        return f"{name} on {basis}: first failure {report.failures[0]['kind']}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# command line

BUILTIN_BASES = ("bennett_3x3", "B_I_43", "B_II_43", "B_II_33", "B_IIb_33", "shift_222")


def _verify_text(name, out):
    m = re.search(r"protocol (\S+) on basis (\S+): (PASS|FAIL)", out)
    if not m or m.group(3) != "PASS":
        return f"verify {name}: no PASS line"
    sizes = re.search(r"measurements checked: (\d+), leaves: (\d+)", out)
    if name in TREE_SIZES and (not sizes or tuple(map(int, sizes.groups())) != TREE_SIZES[name]):
        return f"verify {name}: tree size line {sizes and sizes.group(0)}"
    total = re.search(r"total entanglement: (\S+) ebits", out)
    if not total or abs(float(total.group(1)) - LEDGERS[name][1]) > 1e-10:
        return f"verify {name}: total line {total and total.group(0)}"
    return None


def _classify_text(name, out):
    verdict = re.search(r"verdict (\S+)", out)
    dims = dict(re.findall(r"group (\S+): solution-space dim (\d+)", out))
    witness = re.search(r"OPM on (\S+),", out)
    return check_classification(
        name,
        [int(dims.get(p, -1)) for p in "ABC"],
        [int(dims.get(g, -1)) for g in GROUPS],
        verdict and verdict.group(1),
        tuple(witness.group(1).split("+")) if witness else None,
    )


def _list(out):
    listed_bases, _, listed_protocols = out.partition("protocols:")
    missing = [b for b in BUILTIN_BASES if f"  {b}\n" not in listed_bases]
    missing += [p for p in LEDGERS if f"  {p}\n" not in listed_protocols]
    return f"list: missing {missing}" if missing else None


def _check_basis(out):
    if "64 states over dims 4x4x4" not in out or "orthogonal: True   complete: True" not in out:
        return "check-basis B_II_43: integrity lines differ"
    return None


def _tiles(out):
    if not out.startswith("B_II_33  rows=A*B (9)  cols=C (3)"):
        return "tiles B_II_33: header line differs"
    # 27 states in tiles of one or four: the three phi_k and six psi groups
    if len(re.findall(r"^\s+\d+: ", out, re.M)) != 9:
        return "tiles B_II_33: expected 9 tiles"
    return None


def _json_classify(out):
    doc = json.loads(out)
    return check_classification(
        "shift_222",
        [doc["single_dims"][p] for p in "ABC"],
        [doc["merged_dims"][g] for g in GROUPS],
        doc["verdict"],
        doc["witness"] and tuple(doc["witness"]["group"]),
    )


def _json_account(out):
    doc = json.loads(out)
    return check_ledger("prop8", doc["total_ebits"], doc["ghz_count"],
                        [(r["kind"], r["endpoints"], r["expected_uses"]) for r in doc["rows"]])


def _account_text(name, out):
    rows = [(kind, ends.split("-"), float(uses)) for kind, ends, uses in
            re.findall(r"^\s+(\w+) (\S+): expected uses (\S+)", out, re.M)]
    total = re.search(r"total: (\S+) ebits", out)
    if not total:
        return f"account {name}: no total line"
    return check_ledger(name, float(total.group(1)), 0.0, rows)


def _failed_verify(out):
    if "protocol prop6 on basis B_IIb_33: FAIL" not in out:
        return "verify prop6 --basis B_IIb_33: no FAIL line"
    first = re.search(r"failure at \S+: ([\w-]+):", out)
    want = FAILING[("prop6", "B_IIb_33")]
    if not first or first.group(1) != want:
        return f"verify prop6 --basis B_IIb_33: first failure {first and first.group(1)}, expected {want}"
    return None


#: the cli workload's fixed mix: (argv, expected exit code, stdout check)
CLI_MIX = (
    (("list",), 0, _list),
    (("check-basis", "B_II_43"), 0, _check_basis),
    (("tiles", "B_II_33", "--cut", "AB|C"), 0, _tiles),
    (("classify", "B_IIb_33"), 0, lambda out: _classify_text("B_IIb_33", out)),
    (("--json", "classify", "shift_222"), 0, _json_classify),
    (("verify", "prop7"), 0, lambda out: _verify_text("prop7", out)),
    (("verify", "protocols/prop7.pdl"), 0, lambda out: _verify_text("prop7", out)),
    (("--json", "account", "prop8"), 0, _json_account),
    (("account", "protocols/remark2.pdl"), 0, lambda out: _account_text("remark2", out)),
    (("verify", "prop6", "--basis", "B_IIb_33"), 2, _failed_verify),
)


def check_cli(argv, code, out, want_code, check):
    if code != want_code:
        return f"gnpb {' '.join(argv)}: exit {code}, expected {want_code}"
    try:
        return check(out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"gnpb {' '.join(argv)}: unreadable output ({exc})"
