"""Executable encodings of the built-in discrimination protocols.

Each builder returns a :class:`NamedProtocol` whose tree is written in
the product-projector calculus of :mod:`gnpb.engine`.  Sibling outcome
branches that are mirror images of the first one are generated by ancilla
bit-flip symmetries and then machine-verified, never trusted.  Where a
surviving pair only differs in an entangled sign shared with a remote
ancilla, the tree appends explicit +-basis ancilla measurements (a "sign
dance") until every leaf is a product set certified by ``leaf_verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from .bases import SIGNS, _SIGN, get_basis
from .engine import (
    AttachResource,
    Distinguishable,
    Fail,
    Identify,
    MergeParties,
    P,
    complete_by_symmetry,
    eff,
    flip_sym,
    measure,
    rest,
    resource_accounting,
    verify_protocol,
)

LOG2_3 = log2(3)


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

    def ledger(self):
        return resource_accounting(self.root, self.basis(), name=self.name)


def D(*labels):
    return Distinguishable(labels)


def _dance(actor, reg, child):
    """Measure one qubit ancilla in the +- basis; both outcomes continue alike."""
    return measure(
        actor,
        (eff(f"{reg}p", P(**{reg: (0, 1, 1)})), eff(f"{reg}m", P(**{reg: (0, -1, 1)}))),
        {f"{reg}p": child, f"{reg}m": child},
    )


def _signs(prefix, *rest_parts):
    return tuple(f"{prefix}_{_SIGN[s]}{''.join(rest_parts)}" for s in SIGNS)


# ---------------------------------------------------------------------------
# merge-then-one-EPR protocols for the three-qutrit bases

def _psi(i):
    return tuple(f"psi_{i}_{_SIGN[s]}{_SIGN[t]}" for s in SIGNS for t in SIGNS)


def prop5_protocol(target="B_II_33"):
    """Teleport B to A (log2 3 ebits), then discriminate with one EPR(A, C).

    After the merge the A side holds two qutrits; joint-register kets
    |3i+j> are spelled out as (A, B) product blocks.  Works for both
    27-state qutrit bases; the measurement tree differs.
    """
    if target == "B_II_33":
        k_node = _prop5_tree_ii33()
    elif target == "B_IIb_33":
        k_node = _prop5_tree_iib33()
    else:
        raise ValueError(f"prop5 targets B_II_33 or B_IIb_33, not {target!r}")
    n_node = measure(
        "C",
        (eff("N", P(C=[0, 1], c=0), P(C=2, c=1)), rest("Nb")),
        {"N": k_node, "Nb": None},
    )
    n_node = complete_by_symmetry(n_node, flip_sym("a", "c"))
    root = MergeParties(
        "B", "A", LOG2_3,
        AttachResource("EPR", ("A", "C"), ("a", "c"), n_node),
    )
    return NamedProtocol(
        name=f"prop5_{'II33' if target == 'B_II_33' else 'IIb33'}",
        basis_name=target,
        declared=(("MERGE", ("A", "B"), 1.0), ("EPR", ("A", "C"), 1.0)),
        root=root,
    )


def _prop5_tree_ii33():
    # joint-register blocks: {3,6,7,8} and {3,4,6,7,8} of the merged 9-level A side
    k1 = eff("K1", P(A=1, B=0, a=0), P(A=2, B="I", a=0))
    k2 = eff("K2", P(A=1, B=[0, 1], a=1), P(A=2, B="I", a=1))
    sign_dance = _dance("A", "a", D(*_psi(1), *_psi(2)))
    kp_node = measure(
        "A",
        (eff("Kp", P(A=1, B=1, a="I")), rest("Kpb")),
        {"Kp": Identify("phi_1"), "Kpb": sign_dance},
    )
    np_node = measure(
        "C",
        (eff("Np", P(C=0, c="I")), rest("Npb")),
        {"Np": D(*_psi(4), "phi_0"), "Npb": kp_node},
    )
    return measure(
        "A",
        (k1, k2, rest("K3")),
        {
            "K1": D(*_psi(3), *_psi(5)),
            "K2": D(*_psi(6), "phi_2"),
            "K3": np_node,
        },
    )


def _prop5_tree_iib33():
    effects = (
        eff("K1", P(A=0, B=0, a=0), P(A=1, B=[0, 1], a=0)),  # joint levels {0,3,4}
        eff("K2", P(A=0, B=1, a=0)),                          # {1}
        eff("K3", P(A=1, B=2, a=0)),                          # {5}
        eff("K4", P(A=[0, 2], B=0, a=1)),                     # {0,6}
        eff("K5", P(A=[0, 1], B=1, a=1)),                     # {1,4}
        eff("K6", P(A=1, B=[0, 2], a=1)),                     # {3,5}
        eff("K7", P(A=2, B=2, a=1)),                          # {8}
        rest("K8"),
    )
    k1_branch = measure(
        "C",
        (eff("Np", P(C=0, c="I")), rest("Npb")),
        {
            "Np": measure(
                "A",
                (eff("Kp", P(A=0, B=0, a="I")), rest("Kpb")),
                {"Kp": Identify("phi_0"), "Kpb": D(*_signs("beta_1"))},
            ),
            "Npb": measure(
                "A",
                (eff("Kq", P(A=1, B=1, a="I")), rest("Kqb")),
                {"Kq": Identify("phi_1"), "Kqb": D(*_signs("gamma_1"))},
            ),
        },
    )
    k8_branch = measure(
        "C",
        (eff("N2", P(C=1, c="I")), rest("N2b")),
        {
            "N2": measure(
                "A",
                (eff("Kr", P(A=2, B=[0, 1], a="I")), rest("Krb")),
                {"Kr": D(*_signs("beta_3")), "Krb": D(*_signs("gamma_4"))},
            ),
            "N2b": measure(
                "A",
                (
                    eff("Ks1", P(A=2, B=1, a="I")),
                    eff("Ks2", P(A=0, B=2, a="I")),
                    rest("Ks3"),
                ),
                {
                    "Ks1": _dance("A", "a", D(*_signs("alpha_4"))),
                    "Ks2": _dance("A", "a", D(*_signs("alpha_2"))),
                    "Ks3": D(*_signs("beta_2")),
                },
            ),
        },
    )
    return measure(
        "A",
        effects,
        {
            "K1": k1_branch,
            "K2": D(*_signs("alpha_1")),
            "K3": D(*_signs("alpha_3")),
            "K4": D(*_signs("gamma_2")),
            "K5": D(*_signs("gamma_3")),
            "K6": D(*_signs("beta_4")),
            "K7": Identify("phi_2"),
            "K8": k8_branch,
        },
    )


# ---------------------------------------------------------------------------
# two EPR pairs for the 27-state type-II basis

def prop6_protocol():
    """Discriminate the 27-state type-II qutrit basis with 2 ebits total.

    EPR(A, B) as (a1, b1) and EPR(A, C) as (a2, c1); B and C first correlate
    their registers with their tag qubits, then A's tag readouts drive the
    eliminations.  The other three first-round outcome combinations are tag
    bit-flip images of the first.
    """
    tt = measure(
        "A",
        (
            eff("pp", P(a1=(0, 1, 1), a2=(0, 1, 1))),
            eff("pm", P(a1=(0, 1, 1), a2=(0, -1, 1))),
            eff("mp", P(a1=(0, -1, 1), a2=(0, 1, 1))),
            eff("mm", P(a1=(0, -1, 1), a2=(0, -1, 1))),
        ),
        {k: D(*_psi(3)) for k in ("pp", "pm", "mp", "mm")},
    )
    c0_node = measure(
        "C",
        (eff("C0", P(C=0, c1="I")), rest("C0b")),
        {"C0": _dance("A", "a1", D(*_psi(4))), "C0b": Identify("phi_1")},
    )
    kp_node = measure(
        "A",
        (eff("Kp", P(A=2, a1="I", a2="I")), rest("Kpb")),
        {"Kp": tt, "Kpb": c0_node},
    )
    mp_node = measure(
        "B",
        (eff("Mp", P(B=0, b1="I")), rest("Mpb")),
        {"Mp": _dance("A", "a2", D(*_psi(5), "phi_0")), "Mpb": kp_node},
    )
    np_node = measure(
        "C",
        (eff("Np", P(C=2, c1="I")), rest("Npb")),
        {"Np": D(*_psi(6), "phi_2"), "Npb": mp_node},
    )
    k_node = measure(
        "A",
        (
            eff("K1", P(A=[0, 1], a1=1, a2=0)),
            eff("K2", P(A=0, a1=0, a2=0)),
            rest("K3"),
        ),
        {"K1": D(*_psi(2)), "K2": D(*_psi(1)), "K3": np_node},
    )
    n_node = measure(
        "C",
        (eff("N", P(C=[1, 2], c1=0), P(C=0, c1=1)), rest("Nb")),
        {"N": k_node, "Nb": None},
    )
    n_node = complete_by_symmetry(n_node, flip_sym("a2", "c1"))
    m_node = measure(
        "B",
        (eff("M", P(B=[0, 1], b1=0), P(B=2, b1=1)), rest("Mb")),
        {"M": n_node, "Mb": None},
    )
    m_node = complete_by_symmetry(m_node, flip_sym("a1", "b1"))
    root = AttachResource(
        "EPR", ("A", "B"), ("a1", "b1"),
        AttachResource("EPR", ("A", "C"), ("a2", "c1"), m_node),
    )
    return NamedProtocol(
        name="prop6",
        basis_name="B_II_33",
        declared=(("EPR", ("A", "B"), 1.0), ("EPR", ("A", "C"), 1.0)),
        root=root,
    )


# ---------------------------------------------------------------------------
# generic shift-completion subprotocol (teleport one EPR endpoint)

def shift_core(o_party, r_party, t_party, regs, levels, x, y, groups):
    """Distinguish the 8-state shift completion with one EPR between R and T.

    T teleports its two active levels onto x (held by R) through a parity
    measurement followed by +-basis readouts of its register and of y; R
    then splits off the pair twisted at O and hands the rest to O's
    computational readout.  ``levels`` maps parties to their two active
    levels; ``groups`` carries the state labels by twist location.
    """
    o_reg, r_reg, t_reg = regs[o_party], regs[r_party], regs[t_party]
    ol0, ol1 = levels[o_party]
    rl0, rl1 = levels[r_party]
    tl0, tl1 = levels[t_party]

    def core(x0, x1):
        o_node = measure(
            o_party,
            (eff("O0", P(**{o_reg: ol0})), eff("O1", P(**{o_reg: ol1})), rest("Or")),
            {
                "O0": D(*groups["twist_T"], groups["diag0"]),
                "O1": D(*groups["twist_R"], groups["diag1"]),
                "Or": Fail(),
            },
        )
        f_node = measure(
            r_party,
            (eff("F", P(**{r_reg: [rl0, rl1], x: x0}), P(**{r_reg: rl1, x: x1})),
             rest("Fb")),
            {"F": o_node, "Fb": D(*groups["twist_O"])},
        )
        return f_node

    def readout(x0, x1):
        g_node = measure(
            t_party,
            (eff("Gp", P(**{y: (0, 1, 1)})), eff("Gm", P(**{y: (0, -1, 1)}))),
            {"Gp": core(x0, x1), "Gm": core(x0, x1)},
        )
        return measure(
            t_party,
            (
                eff("Hp", P(**{t_reg: (tl0, 1, tl1)})),
                eff("Hm", P(**{t_reg: (tl0, -1, tl1)})),
                rest("Hr"),
            ),
            {"Hp": g_node, "Hm": g_node, "Hr": Fail()},
        )

    return measure(
        t_party,
        (eff("E", P(**{t_reg: tl0, y: 0}), P(**{t_reg: tl1, y: 1})), rest("Eb")),
        {"E": readout(0, 1), "Eb": readout(1, 0)},
    )


def shift_upb_subprotocol(epr_endpoints=("B", "C")):
    """Shift-completion discrimination with one EPR between any two parties."""
    r_party, t_party = epr_endpoints
    parties = ("A", "B", "C")
    if r_party not in parties or t_party not in parties or r_party == t_party:
        raise ValueError(f"bad endpoint pair {epr_endpoints!r}")
    o_party = next(p for p in parties if p not in epr_endpoints)
    twists = {
        "A": ("ep01", "em01"),
        "B": ("1ep0", "1em0"),
        "C": ("01ep", "01em"),
    }
    groups = {
        "twist_T": twists[t_party],
        "twist_R": twists[r_party],
        "twist_O": twists[o_party],
        "diag0": "000",
        "diag1": "111",
    }
    core = shift_core(
        o_party, r_party, t_party,
        regs={p: p for p in parties},
        levels={p: (0, 1) for p in parties},
        x="x", y="y",
        groups=groups,
    )
    root = AttachResource("EPR", (r_party, t_party), ("x", "y"), core)
    return NamedProtocol(
        name=f"shift_{r_party}{t_party}",
        basis_name="shift_222",
        declared=(("EPR", tuple(epr_endpoints), 1.0),),
        root=root,
    )


# ---------------------------------------------------------------------------
# three EPR pairs for the 27-state type-II(b) basis

def prop7_protocol():
    """Discriminate the strongest qutrit basis at 2 + 8/27 expected ebits.

    EPR(A, B) and EPR(A, C) are always consumed; EPR(B, C) is touched only
    on the branch whose eight survivors form a (relabeled) shift
    completion, which happens with probability 8/27.
    """
    shift = shift_core(
        "A", "B", "C",
        regs={"A": "A", "B": "B", "C": "C"},
        levels={p: (0, 1) for p in "ABC"},
        x="b2", y="c2",
        groups={
            "twist_T": _signs("alpha_1"),
            "twist_R": _signs("beta_1"),
            "twist_O": _signs("gamma_1"),
            "diag0": "phi_0",
            "diag1": "phi_1",
        },
    )
    kp_node = measure(
        "A",
        (
            eff("Kp1", P(A=0, a1=1, a2="I")),
            eff("Kp2", P(A=2, a1="I", a2=0)),
            eff("Kp3", P(A=1, a1="I", a2="I")),
            eff("Kp4", P(A=[0, 2], a1=0, a2=1)),
            rest("Kp5"),
        ),
        {
            "Kp1": _dance("A", "a2", D(*_signs("alpha_2"))),
            "Kp2": _dance("A", "a1", D(*_signs("beta_2"))),
            "Kp3": _dance("A", "a1", D(*_signs("beta_4"))),
            "Kp4": D(*_signs("gamma_2")),
            "Kp5": Fail(),
        },
    )
    mp_node = measure(
        "B",
        (eff("Mp", P(B=1, b1="I")), rest("Mpb")),
        {"Mp": _dance("A", "a2", D(*_signs("alpha_4"), *_signs("gamma_3"))),
         "Mpb": kp_node},
    )
    np_node = measure(
        "C",
        (eff("Np", P(C=1, c1="I")), rest("Npb")),
        {"Np": D(*_signs("beta_3"), *_signs("gamma_4")), "Npb": mp_node},
    )
    k_node = measure(
        "A",
        (
            eff("K1", P(A=1, a1=1, a2=0)),
            eff("K2", P(A=2, a1=1, a2=1)),
            eff("K3", P(A=[0, 1], a1=0, a2=0)),
            rest("K4"),
        ),
        {
            "K1": D(*_signs("alpha_3")),
            "K2": Identify("phi_2"),
            "K3": shift,
            "K4": np_node,
        },
    )
    n_node = measure(
        "C",
        (eff("N", P(C=[0, 1], c1=0), P(C=2, c1=1)), rest("Nb")),
        {"N": k_node, "Nb": None},
    )
    n_node = complete_by_symmetry(n_node, flip_sym("a2", "c1"))
    m_node = measure(
        "B",
        (eff("M", P(B=[0, 1], b1=0), P(B=2, b1=1)), rest("Mb")),
        {"M": n_node, "Mb": None},
    )
    m_node = complete_by_symmetry(m_node, flip_sym("a1", "b1"))
    root = AttachResource(
        "EPR", ("A", "B"), ("a1", "b1"),
        AttachResource(
            "EPR", ("A", "C"), ("a2", "c1"),
            AttachResource("EPR", ("B", "C"), ("b2", "c2"), m_node),
        ),
    )
    return NamedProtocol(
        name="prop7",
        basis_name="B_IIb_33",
        declared=(
            ("EPR", ("A", "B"), 1.0),
            ("EPR", ("A", "C"), 1.0),
            ("EPR", ("B", "C"), 8.0 / 27.0),
        ),
        root=root,
    )


# ---------------------------------------------------------------------------
# GHZ-assisted protocol for the 64-state type-II(a) basis

def _k1_set():
    return ("0ep_3", "0em_3", "000", "001", "002", "010", "011", "012")


def _k2_set():
    return ("ep2_3", "em2_3", "03cp", "03cm",
            "020", "021", "022", "030", "031",
            "120", "121", "122", "130", "131", "132", "133")


def _ghz_pair_dance(leaf):
    """Resolve a GHZ-tagged sign pair: A and C read their tag qubits in the
    +- basis, after which the sign sits in B's local register pair."""
    return _dance("A", "a", _dance("C", "c", leaf))


def prop8_protocol():
    """GHZ-assisted discrimination of the 64-state type-II(a) basis.

    One GHZ (a, b, c) drives the eliminations; a conditional EPR(B, C) is
    attached only on the branch whose eight survivors are a relabeled shift
    completion on levels (3,2|3,2|2,1), giving 1 GHZ + 1/8 expected EPR.
    """
    shift = shift_core(
        "A", "B", "C",
        regs={"A": "A", "B": "B", "C": "C"},
        levels={"A": (3, 2), "B": (3, 2), "C": (2, 1)},
        x="bp", y="cp",
        groups={
            "twist_T": ("3_2xp", "3_2xm"),
            "twist_R": ("2cp2", "2cm2"),
            "twist_O": ("cp31", "cm31"),
            "diag0": "332",
            "diag1": "221",
        },
    )
    n2_branch = AttachResource("EPR", ("B", "C"), ("bp", "cp"), shift)
    c2_node = measure(
        "C",
        (
            eff("C0", P(C=0, c="I")),
            eff("C1", P(C=1, c="I")),
            eff("C3", P(C=3, c="I")),
            rest("Cr"),
        ),
        {
            "C0": D("210", "220"),
            "C1": Identify("211"),
            "C3": _ghz_pair_dance(D("2xp_3", "2xm_3")),
            "Cr": Fail(),
        },
    )
    c3_node = measure(
        "C",
        (
            eff("C1", P(C=1, c="I")),
            eff("C3", P(C=3, c="I")),
            eff("C0", P(C=0, c="I")),
            rest("Cr"),
        ),
        {
            "C1": Identify("3_11"),
            "C3": D("313", "323"),
            "C0": _ghz_pair_dance(D("3_xp0", "3_xm0")),
            "Cr": Fail(),
        },
    )
    kp_node = measure(
        "A",
        (eff("Kp1", P(A=1, a="I")), eff("Kp2", P(A=2, a="I")), rest("Kp3")),
        {"Kp1": D("11_3", "110", "111"), "Kp2": c2_node, "Kp3": c3_node},
    )
    mp_node = measure(
        "B",
        (eff("Mp1", P(B=0, b="I")), eff("Mp2", P(B=3, b="I")), rest("Mp3")),
        {
            "Mp1": D("3_0ep", "3_0em", "xp0_3", "xm0_3", "303", "200", "201", "100", "101"),
            "Mp2": D("330", "333", "230", "233"),
            "Mp3": kp_node,
        },
    )
    n_node = measure(
        "C",
        (eff("N1", P(C=2, c=0)), eff("N2", P(C=[1, 2], c=1)), rest("N3")),
        {
            "N1": D("3_ep2", "3_em2", "202", "212", "102", "112"),
            "N2": n2_branch,
            "N3": mp_node,
        },
    )
    k_node = measure(
        "A",
        (eff("K1", P(A=0, a=0)), eff("K2", P(A=[0, 1], a=1)), rest("K3")),
        {"K1": D(*_k1_set()), "K2": D(*_k2_set()), "K3": n_node},
    )
    m_node = measure(
        "B",
        (eff("M", P(B=[0, 1], b=0), P(B=[2, 3], b=1)), rest("Mb")),
        {"M": k_node, "Mb": None},
    )
    m_node = complete_by_symmetry(m_node, flip_sym("a", "b", "c"))
    root = AttachResource("GHZ", ("A", "B", "C"), ("a", "b", "c"), m_node)
    return NamedProtocol(
        name="prop8",
        basis_name="B_II_43",
        declared=(("GHZ", ("A", "B", "C"), 1.0), ("EPR", ("B", "C"), 1.0 / 8.0)),
        root=root,
    )


# ---------------------------------------------------------------------------
# EPR-only variant for the 64-state basis

def _remark2_q1_set():
    return ("3_ep2", "3_em2", "3_2xp", "3_2xm", "2cp2", "2cm2",
            "202", "212", "102", "112", "332", "211", "221", "111", "3_11")


def _remark2_q2_set():
    return ("3_0ep", "3_0em", "cp31", "cm31", "100", "101", "200", "201", "230", "330")


def _remark2_q3_set():
    return ("3_xp0", "3_xm0", "2xp_3", "2xm_3", "110", "210", "220",
            "11_3", "303", "313", "323", "333", "233", "xp0_3", "xm0_3")


def remark2_protocol():
    """Bipartite-EPR variant: EPR(A, B) first, then conditional EPR(B, C).

    Bob's twist-breaking measurement correlates his register blocks {1,2}
    vs {0,3} with the fresh pair, after which Charlie's tag separates the
    survivors into three machine-checkable chunks.  The twisted survivors
    of Alice's second outcome are likewise resolved through a conditional
    EPR(B, C), reproducing the declared 11/16 expected consumption.
    """
    q_node = measure(
        "C",
        (
            eff("Q1", P(C=1, cp=0), P(C=2, cp="I")),
            eff("Q2", P(C=[0, 1], cp=1)),
            rest("Q3"),
        ),
        {
            "Q1": _dance("C", "cp", D(*_remark2_q1_set())),
            "Q2": D(*_remark2_q2_set()),
            "Q3": _dance("A", "a", D(*_remark2_q3_set())),
        },
    )
    tb_node = measure(
        "B",
        (eff("TB1", P(B=[1, 2], bp=0), P(B=[0, 3], bp=1)), rest("TB2")),
        {"TB1": q_node, "TB2": None},
    )
    tb_node = complete_by_symmetry(tb_node, flip_sym("bp", "cp"))
    k3_branch = AttachResource("EPR", ("B", "C"), ("bp", "cp"), tb_node)

    # the four twisted states caught by K2 are resolved through the same
    # conditional pair, matching the declared average
    ep23_branch = AttachResource(
        "EPR", ("B", "C"), ("bp", "cp"),
        _dance("B", "bp", D("ep2_3", "em2_3")),
    )
    chi_dance = _dance("B", "bp", D("03cp", "03cm"))
    chi_branch = AttachResource(
        "EPR", ("B", "C"), ("bp", "cp"),
        measure(
            "C",
            (eff("E2", P(C=2, cp=0), P(C=3, cp=1)), rest("E2b")),
            {"E2": chi_dance, "E2b": chi_dance},
        ),
    )
    b3_node = measure(
        "C",
        (eff("C01", P(C=[0, 1])), rest("Cr")),
        {
            "C01": D("030", "031", "130", "131"),
            "Cr": measure(
                "A",
                (eff("A0", P(A=0)), eff("A1", P(A=1)), rest("Ar")),
                {"A0": chi_branch, "A1": D("132", "133"), "Ar": Fail()},
            ),
        },
    )
    b2_node = measure(
        "C",
        (eff("C3", P(C=3)), rest("Cr")),
        {"C3": ep23_branch, "Cr": D("020", "021", "022", "120", "121", "122")},
    )
    k2_branch = measure(
        "B",
        (eff("B2", P(B=2, b="I")), eff("B3", P(B=3, b="I")), rest("Br")),
        {"B2": b2_node, "B3": b3_node, "Br": Fail()},
    )
    k_node = measure(
        "A",
        (eff("K1", P(A=0, a=0)), eff("K2", P(A=[0, 1], a=1)), rest("K3")),
        {"K1": D(*_k1_set()), "K2": k2_branch, "K3": k3_branch},
    )
    m_node = measure(
        "B",
        (eff("M", P(B=[0, 1], b=0), P(B=[2, 3], b=1)), rest("Mb")),
        {"M": k_node, "Mb": None},
    )
    m_node = complete_by_symmetry(m_node, flip_sym("a", "b"))
    root = AttachResource("EPR", ("A", "B"), ("a", "b"), m_node)
    return NamedProtocol(
        name="remark2",
        basis_name="B_II_43",
        declared=(("EPR", ("A", "B"), 1.0), ("EPR", ("B", "C"), 11.0 / 16.0)),
        root=root,
    )


# ---------------------------------------------------------------------------
# the reducible 64-state basis: eliminate first, then pay in one cut only

def _bennett_labels(suffix=None, prefix=None):
    names = ("0ep", "0em", "ep2", "em2", "2xp", "2xm", "xp0", "xm0", "11")
    if suffix:
        return tuple(f"{n}{suffix}" for n in names)
    if prefix:
        return tuple(f"{prefix}{n}" for n in names)
    return names


def basis_I_43_protocol():
    """First eliminate via the 3-vs-rest projection, then spend log2(3) in
    the one cut the outcome points at.

    The embedded two-qutrit nonlocal pair is finished by merging the two
    parties that hold it (the moved support is three-dimensional); the
    known cheaper 1-ebit completion is not modeled, so the ledger is an
    upper bound.
    """
    merge_bc = MergeParties(
        "C", "B", LOG2_3,
        D(*_bennett_labels(prefix="3_")),
    )
    a3_branch = measure(
        "B",
        (eff("B3", P(B=3)), rest("B012")),
        {
            "B3": D("330", "331", "332", "333"),
            "B012": measure(
                "C",
                (eff("C3", P(C=3)), rest("C012")),
                {"C3": D("303", "313", "323"), "C012": merge_bc},
            ),
        },
    )
    merge_ab = MergeParties(
        "B", "A", LOG2_3,
        D(*_bennett_labels(suffix="_3")),
    )
    rest36 = tuple("".join(str(i) for i in t) for t in _r_table_no3())
    a012_branch = measure(
        "C",
        (eff("C3", P(C=3)), rest("C012")),
        {
            "C3": measure(
                "B",
                (eff("B3", P(B=3)), rest("B012")),
                {"B3": D("033", "133", "233"), "B012": merge_ab},
            ),
            "C012": D(*rest36),
        },
    )
    root = measure(
        "A",
        (eff("A3", P(A=3)), rest("A012")),
        {"A3": a3_branch, "A012": a012_branch},
    )
    return NamedProtocol(
        name="typeI_43",
        basis_name="B_I_43",
        declared=(("MERGE", ("B", "C"), 9.0 / 64.0), ("MERGE", ("A", "B"), 9.0 / 64.0)),
        root=root,
    )


def _r_table_no3():
    """The 36 computational states with neither A nor C reading 3."""
    from .bases import _R_TABLE
    return [t for t in _R_TABLE if t[0] != 3 and t[2] != 3]


BUILTIN_PROTOCOLS = {
    "prop5_II33": lambda: prop5_protocol("B_II_33"),
    "prop5_IIb33": lambda: prop5_protocol("B_IIb_33"),
    "prop6": prop6_protocol,
    "prop7": prop7_protocol,
    "prop8": prop8_protocol,
    "remark2": remark2_protocol,
    "typeI_43": basis_I_43_protocol,
    "shift_BC": lambda: shift_upb_subprotocol(("B", "C")),
    "shift_AB": lambda: shift_upb_subprotocol(("A", "B")),
    "shift_CA": lambda: shift_upb_subprotocol(("C", "A")),
}


def get_protocol(name):
    try:
        return BUILTIN_PROTOCOLS[name]()
    except KeyError:
        raise KeyError(f"unknown protocol {name!r}; known: {sorted(BUILTIN_PROTOCOLS)}") from None
