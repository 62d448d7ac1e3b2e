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
    LossOutput,
    aamsupcon_loss,
    arcface_loss,
    contrast_masks,
    grad_check,
    softmax_loss,
    supcon_loss,
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
    "LossOutput",
    "aamsupcon_loss",
    "arcface_loss",
    "contrast_masks",
    "grad_check",
    "softmax_loss",
    "supcon_loss",
]

__version__ = "0.1.0"
