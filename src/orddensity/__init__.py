"""Densities of primes with prescribed multiplicative order and index
conditions: exact cyclotomic-Kummer degrees, truncated density series,
totient-series bounds, and empirical prime scans."""

from .arith import (
    FactoredRational,
    ResourceCapError,
    euler_phi,
    factorize,
    kronecker,
    moebius,
    multiplicative_order,
    segmented_primes,
)
from .cyclo import RadicalValue, fixed_by, radical_product
from .density import (
    ConditionSpec,
    DensityResult,
    IndexFixed,
    IndexSet,
    OrderAP,
    SetDescriptor,
    index_density_fixed,
    index_density_set,
    order_density,
)
from .empirical import ScanResult, compare, scan, scan_many
from .eulerseries import phi_lcm_tail
from .kummer import FieldSpec, failure_ratio, kummer_degree

__version__ = "0.1.0"

__all__ = [
    "FactoredRational",
    "ResourceCapError",
    "factorize",
    "moebius",
    "euler_phi",
    "kronecker",
    "multiplicative_order",
    "segmented_primes",
    "RadicalValue",
    "radical_product",
    "fixed_by",
    "FieldSpec",
    "kummer_degree",
    "failure_ratio",
    "phi_lcm_tail",
    "ConditionSpec",
    "SetDescriptor",
    "OrderAP",
    "IndexFixed",
    "IndexSet",
    "DensityResult",
    "index_density_fixed",
    "index_density_set",
    "order_density",
    "ScanResult",
    "scan",
    "scan_many",
    "compare",
]
