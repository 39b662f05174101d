"""Verification workbench for genuinely nonlocal product bases.

Construct the named orthogonal product bases, classify them by whether any
party (or merged pair) can eliminate states with an orthogonality-
preserving measurement, and machine-verify the entanglement-assisted LOCC
protocols that discriminate them, including their averaged entanglement
ledgers.
"""

from .bases import (
    BUILTIN_BASES,
    OrthoProductBasis,
    basis_I_43,
    basis_II_33,
    basis_II_43,
    basis_IIb_33,
    bennett_npb_3x3,
    check_basis,
    get_basis,
    render_tiles,
    shift_upb_opb_222,
)
from .engine import (
    ProtocolVerificationError,
    ResourceLedger,
    complete_by_symmetry,
    leaf_verify,
    resource_accounting,
    verify_protocol,
)
from .opm import (
    GnpbClassification,
    classify,
    find_eliminating_opm,
    is_locally_irreducible,
    opm_solution_space,
)
from .protocols import (
    BUILTIN_PROTOCOLS,
    NamedProtocol,
    basis_I_43_protocol,
    get_protocol,
    prop5_protocol,
    prop6_protocol,
    prop7_protocol,
    prop8_protocol,
    remark2_protocol,
    shift_upb_subprotocol,
)
from .qstate import CompositeSpace, Ket, Subsystem, schmidt_ebits

__version__ = "0.1.0"
