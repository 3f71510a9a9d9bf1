"""Trust and risk assessment for node networks via Beta-distribution fusion.

Direct and indirect trust estimates are matched to Beta distributions by
the method of moments, combined through a conjugate posterior into one
total trust value, and compared against a per-job required trust level;
the shortfall is the risk a node must accept to proceed anyway.

The package root exports what callers need to assess a network of their
own; everything else is imported from its module.
"""
from .decision import Decision, RiskAppetite, evaluate_request
from .documents import (
    load_network,
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
from .fusion import DEFAULT_VARIANCE, TrustEstimate, combined_trust
from .netsim import (
    Edge,
    Network,
    ScenarioConfig,
    fifteen_node_config,
    generate_network,
    run_assessment,
)

__version__ = "0.1.0"
