"""Verification workbench for genuinely nonlocal product bases.

Construct the named orthogonal product bases, classify them by whether any
party (or merged pair) can eliminate states with an orthogonality-
preserving measurement, and machine-verify the entanglement-assisted LOCC
protocols that discriminate them, including their averaged entanglement
ledgers.

The names below (and the five modules that hold them) resolve on first
use, so ``import gnpb`` loads no submodule and a command pays only for the
modules it runs.
"""

from importlib import import_module as _import

_EXPORTS = {
    "bases": ("BUILTIN_BASES", "OrthoProductBasis", "basis_I_43", "basis_II_33",
              "basis_II_43", "basis_IIb_33", "bennett_npb_3x3", "check_basis",
              "get_basis", "render_tiles", "shift_upb_opb_222"),
    "engine": ("ResourceLedger", "leaf_verify", "verify_protocol"),
    "opm": ("GnpbClassification", "classify", "find_eliminating_opm", "opm_solution_space"),
    "protocols": ("BUILTIN_PROTOCOLS", "NamedProtocol", "get_protocol"),
    "qstate": ("CompositeSpace", "Ket", "Subsystem", "schmidt_ebits"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(_import(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module 'gnpb' has no attribute {name!r}")
