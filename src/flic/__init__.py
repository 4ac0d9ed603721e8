"""Personalized federated learning over heterogeneous feature spaces.

Clients whose raw features live in spaces of different dimension learn
private embeddings into a shared latent space by aligning their
class-conditional distributions with learnable Gaussian anchors
(closed-form W2), while a shared representation layer and per-client
heads are trained FedRep-style under partial participation.
"""

from .anchors import (
    AnchorSet,
    init_anchors,
    local_anchor_update,
    sample_anchor,
)
from .config import ConfigError, ExperimentConfig, parse_config, serialize_config
from .datagen import ClientDataset, ToyDatasetSpec, generate
from .federation import (
    ClientState,
    DivergenceError,
    GlobalState,
    RoundConfig,
    aggregate,
    client_local_round,
    evaluate,
    local_baseline,
    onboard_new_client,
    run_training,
    select_active_clients,
    shared_arrays,
)
from .gaussian import bures_sq_value_grad
from .nets import AdamState, Mlp, adam_step, alignment_loss_grad, backward, cross_entropy, forward
from .theory import (
    TheoryConfig,
    TheoryInstance,
    fedrep_linear_round,
    init_A0,
    make_instance,
    oracle_phi_star,
    principal_angle_dist,
    run_theory_experiment,
    solve_head,
)

__version__ = "0.1.0"
