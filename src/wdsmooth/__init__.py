"""Smoothness classification for framed unipotent pair varieties.

The package has two halves. The symbolic half (rootsys, orbits, arith,
classifier) decides, for a reductive group and a nilpotent orbit,
whether the corresponding component of the pair variety
{(phi, N) : Ad(phi) N = q N} is smooth, singular, or outside the
covered range, from root-system combinatorics alone. The matrix half
(kernels, variety, certificates) realizes small groups exactly over a
prime field and verifies the symbolic claims by elimination: tangent
space dimensions, fiber counts, and explicit singularity certificates.
"""

from .arith import (
    QContext,
    chevalley_steinberg_order,
    implication_sweep,
    is_banal,
    is_considerate,
    multiplicative_order,
    order_capped,
)
from .classifier import (
    NOT_COVERED,
    SINGULAR,
    SMOOTH,
    SmoothnessVerdict,
    classify_component,
    classify_product,
)
from .certificates import (
    BasePoint,
    CertificateError,
    EpsilonCertificate,
    build_phi0,
    epsilon_certificate,
)
from .orbits import (
    OrbitLabel,
    UnsupportedTypeError,
    WeightedDynkinDiagram,
    check_distinguished_criterion,
    classical_orbits,
    distinguished_table,
    exposed_root_sweep,
    grading_dims,
    is_distinguished,
    is_very_even,
    is_zero_orbit,
    smooth_bound_r,
    validate_orbit,
    weighted_dynkin,
)
from .rootsys import (
    DynkinType,
    LeviSubset,
    RootSystem,
    build_root_system,
    levi_factors,
    parse_group,
)
from .variety import (
    GroupSpec,
    bundle_count_check,
    enumerate_sg,
    exp_bridge_check,
    jordan_partition,
    nilpotency_redundancy_check,
    sg_member,
    stratum_sample,
    tangent_dim,
    tangent_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "QContext",
    "chevalley_steinberg_order",
    "implication_sweep",
    "is_banal",
    "is_considerate",
    "multiplicative_order",
    "order_capped",
    "NOT_COVERED",
    "SINGULAR",
    "SMOOTH",
    "SmoothnessVerdict",
    "classify_component",
    "classify_product",
    "BasePoint",
    "CertificateError",
    "EpsilonCertificate",
    "build_phi0",
    "epsilon_certificate",
    "OrbitLabel",
    "UnsupportedTypeError",
    "WeightedDynkinDiagram",
    "check_distinguished_criterion",
    "classical_orbits",
    "distinguished_table",
    "exposed_root_sweep",
    "grading_dims",
    "is_distinguished",
    "is_very_even",
    "is_zero_orbit",
    "smooth_bound_r",
    "validate_orbit",
    "weighted_dynkin",
    "DynkinType",
    "LeviSubset",
    "RootSystem",
    "build_root_system",
    "levi_factors",
    "parse_group",
    "GroupSpec",
    "bundle_count_check",
    "enumerate_sg",
    "exp_bridge_check",
    "jordan_partition",
    "nilpotency_redundancy_check",
    "sg_member",
    "stratum_sample",
    "tangent_dim",
    "tangent_matrix",
]
