"""Desk-scale laboratory for un-pruning sparse neural networks.

Removes the influence of deleted training data from both the weights and
the pruned topology (mask) of a sparse model, with pluggable unlearning
methods, a retrain+reprune oracle, mask-similarity metrics and a
membership-inference fragility study.
"""

from .config import ExperimentConfig, parse_config, parse_config_text
from .core import (
    UnpruneConfig,
    UnpruneTrace,
    grow_mask,
    grow_mask_structured,
    reinit_pruned,
    topology,
    unprune,
)
from .data import Dataset, DeletionSplit, gen_blobs, load_idx, split_delete, write_idx
from .errors import ConfigError, FormatError, InputError, NumericError, ShapeError
from .experiment import (
    CellRow,
    ExperimentReport,
    emit_csv,
    emit_json,
    emit_scatter,
    report_from_json,
    run_experiment,
)
from .metrics import BoundProxyReport, MaskPair, bound_proxy, iom, iou, kl_masked_weights, uom
from .mia import MIAReport, mia_evaluate, mia_features, ratio_sweep
from .model import (
    GradientSet,
    LayerSpec,
    MaskedModel,
    apply_mask,
    backward,
    forward,
    init_model,
    load_snapshot,
    mlp_specs,
    save_snapshot,
)
from .numeric import SeededRng, matmul, softmax_cross_entropy
from .oracle import build_model, cached_oracle, retrain_reprune, train_model
from .prune import (
    SparsityReport,
    neuron_mask,
    prune_magnitude,
    prune_structured_l2,
    sparsity_of,
)
from .train import TrainCfg, TrainLog, evaluate, train_sgd, train_with_cfg
from .unlearn import (
    UnlearnConfig,
    fisher_diag,
    unlearn,
    unlearn_finetune,
    unlearn_fisher_forgetting,
    unlearn_gradient_ascent,
)

__version__ = "0.1.0"
