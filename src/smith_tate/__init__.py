"""Exact Z/pZ-equivariant cohomology of filtered cochain complexes over F_p.

The package computes, with no floating point anywhere: group and Tate
cohomology of finite equivariant complexes, the p-power map into the
p-fold tensor power, Jordan block structure of order-p operators and the
fixed-point dimension chain, action and algebraic spectral sequences,
persistence barcodes with the single-vs-p-th-iterate comparison and
torsion detection, and the local Morse constants.  The cli module exposes
all of it as the smith-tate command.

Every name below is imported from its module on first use (PEP 562), so
`import smith_tate` loads no submodule and a process pays only for the
modules it touches.
"""

import importlib

# each exported name, by the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "complexes": (
            "ActionWindow", "ChainComplex", "EquivariantComplex", "FilteredComplex", "Generator",
            "ValidationReport", "complex_from_json", "complex_to_json", "tensor_power", "window_truncate",
        ),
        "errors": (
            "EmptyBarcode", "FiltrationViolation", "InadmissibleWindow", "InvalidComplex", "MalformedInput",
            "NotNilpotent", "NotOrderP", "NotPrime", "NotSquareZero", "PrimeTooLarge", "SmithTateError",
            "SpectralEndpoint", "TooLarge", "UnknownCommand", "UnknownProperty",
        ),
        "fp_core": (
            "FpMatrix", "check_prime", "is_prime", "nilpotent_partition",
        ),
        "module_decomp": (
            "ChainReport", "ModuleDecomposition", "decompose", "smith_chain_check", "tate_and_invariant_dims",
        ),
        "morse_bzp": (
            "CriticalPoint", "EulerConstant", "enumerate_critical_points", "local_euler_constant",
            "resolution_homology", "wilson_constant",
        ),
        "persistence": (
            "Bar", "BarStats", "Barcode", "SmithBarcodeReport", "bar_stats", "barcode_from_filtered",
            "barcode_from_json", "barcode_to_json", "generate_iterated_barcode", "scale_barcode",
            "smith_barcode_check", "torsion_witness", "window_dim",
        ),
        "ratfun": ("bareiss_rank",),
        "spectral": (
            "AlgebraicSSPages", "EquivariantFloerModel", "PageData", "SpectralSequencePages", "action_ss_pages",
            "algebraic_ss_pages", "model_from_json", "model_to_json",
        ),
        "tate": (
            "AdditivityCertificate", "QuasiFrobeniusResult", "group_cohomology_dims", "quasi_frobenius",
            "tate_cohomology_dims",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
