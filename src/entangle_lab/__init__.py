"""String models of bipartite correlations, CHSH/no-signaling diagnostics,
singlet reference predictions and the extended-Bloch collapse sampler."""

__version__ = "0.6.0"

from .probability import (
    BellBoundReport,
    BoundCheck,
    ChshQuantities,
    ExperimentTable,
    InvariantViolation,
    JointDistribution,
    MarginalComparison,
    MarginalReport,
    check_bell_bounds,
    chsh,
    correlation,
    marginals,
)
from .strings import (
    MicroTrace,
    OutcomePair,
    SETTINGS,
    Setting,
    StringModelConfig,
    Variant,
    analytic_table,
    estimate_table,
    lhv_table,
)
from .quantum import (
    AxisQuad,
    coplanar_axes,
    joint_probabilities,
    maximally_mixed_state,
    product_state,
    sample_table,
    scan_tsirelson,
    singlet_state,
    table_for_axes,
)
from .bloch import (
    BlochVector15,
    BreakDistribution,
    MeasurementFrame,
    collapse_counts,
    decompose,
    outcome_probabilities,
    rank_one_residual,
    reconstruct,
    universal_average,
)
