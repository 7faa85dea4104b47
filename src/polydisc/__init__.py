"""Discriminator toolkit: brute-force oracle, closed forms, and table tooling."""

from .poly import Polynomial, PolynomialSyntaxError, parse_polynomial, parse_poly_input
from .discriminator import (
    Run,
    compute,
    is_discriminating,
    scan,
    trivial_upper_bound,
)
from .closedform import (
    FAMILIES,
    PrimeFamily,
    SandwichReport,
    bsw_discriminator,
    check_theorem4,
    lemma1_bound,
    prime_power_family,
    sun_power_formula,
    sun_prime_discriminator,
    x_dx_minus_1,
)
from .analysis import (
    Kind,
    check_conjecture1,
    check_theorem3,
    classify_value,
    emit_csv,
    emit_latex,
    run_length_table,
)

__all__ = [
    "Polynomial",
    "PolynomialSyntaxError",
    "parse_polynomial",
    "parse_poly_input",
    "Run",
    "compute",
    "is_discriminating",
    "scan",
    "trivial_upper_bound",
    "FAMILIES",
    "PrimeFamily",
    "SandwichReport",
    "bsw_discriminator",
    "check_theorem4",
    "lemma1_bound",
    "prime_power_family",
    "sun_power_formula",
    "sun_prime_discriminator",
    "x_dx_minus_1",
    "Kind",
    "check_conjecture1",
    "check_theorem3",
    "classify_value",
    "emit_csv",
    "emit_latex",
    "run_length_table",
]
