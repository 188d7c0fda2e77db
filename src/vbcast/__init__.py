"""vbcast: virtual broadcasting maps and their numerical toolkit.

Hermitian-preserving trace-preserving maps around the canonical virtual
broadcaster B(rho) = (1/2){rho (x) I, SWAP}: construction, axiom checks,
uniqueness certificates, diamond-norm bounds, Haar-moment machinery,
states over time, and quasi-probability sampling.
"""

__version__ = "0.1.0"

from .densemat import (  # noqa: F401
    Operator,
    Rng,
    eigh,
    identity,
    kron,
    partial_trace,
    random_density,
    random_hermitian,
    swap,
    trace_norm,
)
from .supermap import (  # noqa: F401
    AffineDecomposition,
    SuperMap,
    apply_left,
    apply_right,
    omega,
)
from .broadcast import (  # noqa: F401
    AxiomReport,
    UniquenessCertificate,
    antisym,
    canonical_b,
    canonical_decomposition,
    check_axioms,
    classical_bcl,
    cloner,
    commutant_basis,
    commutant_projection,
    decoherence,
    family_b_lambda,
    verify_uniqueness,
)
from .diamond import (  # noqa: F401
    DiamondResult,
    diamond_bracket,
    diamond_sdp,
    hptp_upper,
    jordan_upper,
)
from .mcstats import (  # noqa: F401
    MatrixSamplingEstimate,
    MatrixWelford,
    SamplingEstimate,
)
from .hovm import (  # noqa: F401
    depolarizing_mp,
    exact_mp_map,
    theorem3_weight,
    verify_theorem3,
)
from .sot import (  # noqa: F401
    StateOverTime,
    check_sot_axioms,
    star,
)
from .qsample import estimate_with_trace  # noqa: F401
