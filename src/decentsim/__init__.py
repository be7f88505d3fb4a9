"""decentsim: incentive-system decentralization toolkit.

Models block-producer incentive systems, decides the reward-coverage,
no-merge and no-split conditions numerically, simulates reinvestment
dynamics, computes the rich-poor catch-up probability bound exactly by dynamic
programming, and computes concentration metrics over producer datasets.
"""

__version__ = "0.1.0"

from .core import (
    DecentralizationResult,
    DecentralizationSpec,
    PlayerMap,
    PowerVector,
    RewardParams,
    Verdict,
    effective_powers,
    is_decentralized,
    percentile_power,
)
from .incentives import (
    DPoS,
    GammaReward,
    Linear,
    PoS,
    PoW,
    ThresholdCoverSybilCost,
    ZeroSybilCost,
    realized_utility,
    sybil_cost,
    utility,
)
from .conditions import (
    ConditionReport,
    check_all,
    check_gr,
    check_linearity,
    check_nd,
    check_ns,
)
from .dynamics import (
    ExplicitInit,
    PowerLawInit,
    RunSummary,
    SimConfig,
    SlopeAccumulator,
    Trajectory,
    TwoPointInit,
    ed_verdict,
    monotonicity_stats,
    simulate,
    step,
    summarize,
)
from .bound import (
    BoundEstimate,
    WalkParams,
    WalkState,
    estimate_g,
    exact_g,
    jump_prob,
    real_world_anchors,
    sweep,
    u_sensitivity,
)
from .metrics import (
    MetricsReport,
    ProducerDataset,
    gini,
    load_producer_csv,
    report,
    shannon_entropy,
    top_share_subset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
