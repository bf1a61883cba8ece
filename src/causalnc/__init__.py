"""Causal order on the state space of a flat 2D almost-commutative spacetime.

The package decides and certifies causal relations between states carrying
both a spacetime position and an internal 2-level degree of freedom: closed
form oracles for pure and mixed internal states, a pointwise matrix test for
membership in the cone of causal elements, explicit separating-element
certificates refuting non-relations, and brute-force numerical cross-checks.
"""

from .causality import (
    CausalVerdict,
    MixedState,
    PureState,
    Reason,
    mixed_causal,
    mixed_required_angle,
    plan_causal_path,
    pure_causal,
)
from .cone import (
    AlgebraElement,
    ConeMatrix,
    EigenvalueRangeError,
    RegionGrid,
    UnequalDiagonalError,
    cone_matrix_at,
    cone_membership,
    certify_grid_psd,
    conformal_rescale_matrix,
    is_psd,
    lemma_sufficient_check,
)
from .fields import (
    DomainError,
    ParseError,
    jet,
    parse,
    to_source,
)
from .minkowski import (
    SpacetimePoint,
    causally_precedes,
    max_proper_time,
)
from .oracle import (
    PairStatus,
    SamplerConfig,
    cross_validate_pure,
    sample_causal_element,
    sample_elements,
)
from .states import (
    DiracData,
    InternalUnitary,
    MixedInternalState,
    PoleError,
    PureInternalState,
    angular_distance,
    apply_unitary,
    parallel_angle,
)
from .witness import (
    CertificateError,
    NearAntipodalError,
    RelatedPairError,
    UnsupportedRefusalError,
    WitnessSpec,
    build_mixed_witness,
    build_witness,
    certify_witness_psd,
    refute_with_witness,
    separation_values,
)

__version__ = "0.1.0"
