"""Additive cyclic codes over finite commutative chain rings.

Exact arithmetic in Z_{p^n}[w][x]/<g(x), p^(n-1) x^t>, the two additive code
families over such rings (trace duality for the unramified direction,
character duality for the ramified one), and a brute-force oracle that checks
every closed form against the definitions at desk scale.
"""

from importlib import import_module

# public name -> defining submodule; each submodule is imported on first use
# (PEP 562), so `import chaincodes.cli` pulls in numpy only for commands that need it
_SOURCES = {
    "codes": ("CodeHandle", "handles_equal", "trace_inner_product", "weight_enumerator"),
    "eisenstein_codes": (
        "EisensteinCodeSpec",
        "annihilator_subgroup",
        "build_eisenstein_code",
        "char_inner_product",
        "character_table",
        "eisenstein_dual_code",
        "normalize_spec",
        "pairing",
        "trace_dual_code",
    ),
    "errors": (
        "CertificateError",
        "ChainCodesError",
        "ClosureChangedCodeError",
        "CoercionFailedError",
        "LengthMismatchError",
        "NonCoprimeError",
        "NonFreeModuleError",
        "NotAUnitError",
        "NotCyclicError",
        "NotDecomposableError",
        "ParameterError",
        "ProductMismatchError",
        "RankNotOneError",
        "RankNotPrimeError",
        "RingMismatchError",
        "SpecShapeError",
        "TooLargeError",
        "UnknownComponentError",
    ),
    "galois_codes": (
        "GaloisCodeSpec",
        "build_galois_code",
        "decompose_to_spec",
        "dual_galois_code",
        "is_self_dual",
        "log_cardinality",
    ),
    "idempotents": (
        "IdempotentSystem",
        "certify",
        "component_basis",
        "idempotent_system",
        "mu_involution",
        "primitive_idempotents",
        "trace_dual_basis",
    ),
    "modlinalg": (
        "GeneratorStack",
        "contains",
        "normal_form",
        "solve_orthogonal",
        "subgroup_order_log_p",
    ),
    "oracle": (
        "OracleReport",
        "brute_dual_character",
        "brute_dual_trace",
        "cross_check",
        "verify_additive_cyclic",
    ),
    "polyfactory": (
        "CosetClassification",
        "ExtensionDescriptor",
        "build_extension",
        "classify_cosets",
        "cyclotomic_cosets",
        "find_basic_primitive_poly",
        "hensel_lift",
        "minimal_polynomial",
    ),
    "rings": ("ChainRing", "ChainRingElement", "RingParams", "make_ring"),
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = [name for names in _SOURCES.values() for name in names]


def __getattr__(name):
    module = _SOURCE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
