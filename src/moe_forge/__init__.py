"""moe-forge: a desk-scale mixture of experts grown out of a single base model.

Train a base classifier, cluster its embeddings to route samples,
specialize one expert per cluster on a weighted slice of the data,
ensemble each expert with the base, and trade accuracy against compute
at inference time with a threshold-based early exit.
"""

from .anytime import (
    AnytimeConfig,
    CurvePoint,
    PredictOutcome,
    TradeoffCurve,
    anytime_predict,
    anytime_scores,
    convex_envelope,
    ilp_exit_assignment,
    select_threshold,
    sweep_thresholds,
    train_exit_gate,
)
from .data import LabeledDataset, SyntheticSpec, generate_synthetic, load_csv, split, weighted_batches
from .gate_init import (
    Centroids,
    InitialGate,
    initial_gate,
    kmeans,
    per_class_assignment,
    smooth_weights,
)
from .model import (
    CostModel,
    Ensembler,
    ExecutionTrace,
    Gate,
    MoEModel,
    load_model,
    mac_count,
    save_model,
)
from .nn import Network, SgdConfig, forward, init_network, sgd_train
from .training import (
    Posterior,
    TrainPlan,
    e_step,
    elbo,
    m_step,
    run_pipeline,
    train_base,
    train_ensembler,
    train_expert,
    train_gate,
)

__version__ = "0.1.0"
