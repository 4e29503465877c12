"""The deployable unit: backbone + classifier + optional gate network."""

from __future__ import annotations

from dataclasses import dataclass, field

from .backbone import BackboneParams
from .prototypes import Classifier, GammaNet
from .training import TrainState

DEFAULT_AMP_GAMMA = 0.5  # the fixed gate of amp_gamma unless --gamma sets one


@dataclass
class EvalModel:
    backbone: BackboneParams
    classifier: Classifier
    gammanet: GammaNet | None
    variant_kind: str
    converged_gamma: float | None = None
    amp_gamma: float = DEFAULT_AMP_GAMMA
    meta: dict = field(default_factory=dict)


def from_train_state(state: TrainState) -> EvalModel:
    return EvalModel(
        backbone=state.backbone,
        classifier=state.classifier(),
        gammanet=state.gammanet,
        variant_kind=state.variant.kind,
        converged_gamma=state.converged_gamma(),
        meta={
            "seed": state.config.seed,
            "steps": state.config.steps,
            "embed_dim": state.config.embed_dim,
            "backbone_layers": state.config.backbone_layers,
        },
    )
