"""Trust and risk assessment for node networks via Beta-distribution fusion.

Direct and indirect trust estimates are matched to Beta distributions by
the method of moments, combined through a conjugate posterior into one
total trust value, and compared against a per-job required trust level;
the shortfall is the risk a node must accept to proceed anyway.
"""
from .decision import (
    COMBINERS,
    Decision,
    RiskAppetite,
    TrustRecord,
    average_combiner,
    evaluate_request,
    risk_value,
    self_record,
)
from .documents import (
    load_bundled_three_node,
    load_network,
    network_to_document,
    document_to_network,
    parse_matrices,
    render_matrices,
    render_risk_table,
    save_network,
)
from .errors import (
    ConfigurationError,
    DegeneratePosteriorError,
    InvalidVarianceError,
    NetworkDocumentError,
    RangeError,
    TrustError,
)
from .fusion import (
    DEFAULT_VARIANCE,
    MEAN_EPSILON,
    BetaParams,
    FusionWeights,
    TrustEstimate,
    beta_mean,
    beta_pdf,
    beta_variance,
    clamp_mean,
    combined_trust,
    fusion_weights,
    moments_to_beta,
    posterior_params,
)
from .netsim import (
    AssessmentResult,
    Edge,
    EdgeError,
    FIFTEEN_NODE_SEED,
    Network,
    ScenarioConfig,
    fifteen_node_config,
    generate_network,
    risk_series,
    run_assessment,
)

__version__ = "0.1.0"
