"""Generalized zero-shot multi-label classification engine.

Visual features and class semantics are projected into a shared latent
space by small feedforward nets trained with a margin-ranking objective
plus alignment and semantic-consistency regularizers; inference scores
every class, seen or unseen, by cosine similarity in that space.

The top level exports what the demos, the benchmark harness and the
README use; every other name is importable from its own module.
"""

from .checkpoints import load_checkpoint, save_checkpoint
from .data import SPLIT_NAMES, DataBundle, load_manifest, save_manifest
from .exceptions import (
    CheckpointError,
    DegenerateVectorError,
    GzslError,
    InductiveViolationError,
    ManifestError,
    NonFiniteGradientError,
    NonFiniteLossError,
    UndefinedAurocError,
    ValidationError,
)
from .gradcheck import run_gradient_check
from .losses import LossConfig, align_term, con_term, rank_term, total_loss
from .metrics import MetricsReport, evaluate, infer_scores
from .networks import ModelParams, pairwise_cosine
from .optimizers import adam_step, init_adam
from .synthetic import (
    SynthSpec,
    generate,
    reference_model_params,
    reference_spec,
    reference_train_config,
)
from .training import EncoderMode, RunRecord, TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "DataBundle",
    "DegenerateVectorError",
    "EncoderMode",
    "GzslError",
    "InductiveViolationError",
    "LossConfig",
    "ManifestError",
    "MetricsReport",
    "ModelParams",
    "NonFiniteGradientError",
    "NonFiniteLossError",
    "RunRecord",
    "SPLIT_NAMES",
    "SynthSpec",
    "TrainConfig",
    "UndefinedAurocError",
    "ValidationError",
    "adam_step",
    "align_term",
    "con_term",
    "evaluate",
    "generate",
    "infer_scores",
    "init_adam",
    "load_checkpoint",
    "load_manifest",
    "pairwise_cosine",
    "rank_term",
    "reference_model_params",
    "reference_spec",
    "reference_train_config",
    "run_gradient_check",
    "save_checkpoint",
    "save_manifest",
    "total_loss",
    "train",
]
