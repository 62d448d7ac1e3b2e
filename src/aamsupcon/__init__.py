"""Additive angular margin supervised contrastive learning, desk scale.

Losses with analytic gradients, a small encoder/projection network with a
hand-written backward pass, synthetic speaker data, an SGD trainer, and a
speaker-verification evaluator (EER / minDCF).
"""

from . import batching, errors, evaluate, geometry, losses, model, synthdata, training
from .losses import (
    DenominatorConvention,
    LossInputs,
    LossKind,
    evaluate_loss,
    grad_check,
    supcon_masks,
)

__all__ = [
    "batching",
    "errors",
    "evaluate",
    "geometry",
    "losses",
    "model",
    "synthdata",
    "training",
    "DenominatorConvention",
    "LossInputs",
    "LossKind",
    "evaluate_loss",
    "grad_check",
    "supcon_masks",
]

__version__ = "0.1.0"
