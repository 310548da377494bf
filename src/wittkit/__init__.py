"""Exact arithmetic in the rational Witt ring, zeta functions of
varieties over finite fields, closed-point/orbit dictionaries, a
numerical explicit-formula checker, and arithmetic linking symbols.
"""

from .counting import AffineVariety, count_points, point_count_table
from .explicit import (
    TestFunction,
    ZeroTable,
    explicit_formula_defect,
    load_bundled_zeros,
    load_zeros,
    prime_side,
    transform,
    zero_side,
)
from .finitefield import FiniteField, finite_field_make
from .orbits import (
    FiniteLevelPoint,
    evaluate_integer,
    frobenius_equivariance_check,
    frobenius_power,
    orbit_of,
    packet_report,
    packet_summary,
)
from .parser import ParseError, parse_witt
from .poly import Polynomial, format_poly
from .reciprocity import linking_table, reciprocity_check, redei_scan, redei_symbol
from .rings import GF, QQ, ZZ, PrimeField, ring_by_name
from .series import pade_reconstruct
from .witt import (
    WittVector,
    canonical_projection,
    frobenius,
    from_ghost,
    ghost,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_one,
    witt_sub,
    witt_zero,
)
from .zeta import (
    ClosedPointLedger,
    PointCountTable,
    closed_points,
    euler_vs_ruelle,
    function_field_product_formula,
    hasse_check,
    product_formula_defect,
    projective_plane_counts,
    zeta_rational,
    zeta_reference,
    zeta_series,
)

__version__ = "0.1.0"

__all__ = [
    "AffineVariety",
    "ClosedPointLedger",
    "FiniteField",
    "FiniteLevelPoint",
    "GF",
    "ParseError",
    "PointCountTable",
    "Polynomial",
    "PrimeField",
    "QQ",
    "TestFunction",
    "WittVector",
    "ZZ",
    "ZeroTable",
    "canonical_projection",
    "closed_points",
    "count_points",
    "euler_vs_ruelle",
    "evaluate_integer",
    "explicit_formula_defect",
    "finite_field_make",
    "format_poly",
    "frobenius",
    "frobenius_equivariance_check",
    "frobenius_power",
    "from_ghost",
    "function_field_product_formula",
    "ghost",
    "hasse_check",
    "linking_table",
    "load_bundled_zeros",
    "load_zeros",
    "orbit_of",
    "packet_report",
    "packet_summary",
    "pade_reconstruct",
    "parse_witt",
    "point_count_table",
    "prime_side",
    "product_formula_defect",
    "projective_plane_counts",
    "reciprocity_check",
    "redei_scan",
    "redei_symbol",
    "ring_by_name",
    "teichmuller",
    "transform",
    "verschiebung",
    "witt_add",
    "witt_mul",
    "witt_neg",
    "witt_one",
    "witt_sub",
    "witt_zero",
    "zero_side",
    "zeta_rational",
    "zeta_reference",
    "zeta_series",
]
