"""Few-shot semantic segmentation on synthetic scenes.

A small segmentation model is trained on base classes with a cosine-scored
prototype classifier; novel classes are registered afterwards from a handful
of support samples by mask-average pooling, while base prototypes can absorb
support context through a learned fusion gate. Everything runs on a built-in
reverse-mode tensor core and a deterministic synthetic dataset.
"""

from .backbone import BackboneParams, extract_features, init_backbone
from .errors import ProtosegError
from .metrics import ConfusionMatrix, MetricsReport, iou_per_class, miou
from .model import EvalModel, from_train_state
from .prototypes import (
    Classifier,
    GammaNet,
    SupportSample,
    SupportSet,
    classify,
    fuse_prototype,
    gamma_forward,
    masked_sum_part,
    mean_of_shots,
    pixel_weighted_combine,
    register_novel_classes,
)
from .protocols import run_ablation, run_fs_protocol, run_gfs_protocol
from .scenes import SceneConfig, build_dataset, load_manifest, sample_support_set
from .tensor import Tape, Tensor, backward, gradient_check, op_forward
from .training import TrainConfig, make_variant, train

__all__ = [
    "BackboneParams",
    "Classifier",
    "ConfusionMatrix",
    "EvalModel",
    "GammaNet",
    "MetricsReport",
    "ProtosegError",
    "SceneConfig",
    "SupportSample",
    "SupportSet",
    "Tape",
    "Tensor",
    "TrainConfig",
    "backward",
    "build_dataset",
    "classify",
    "extract_features",
    "from_train_state",
    "fuse_prototype",
    "gamma_forward",
    "gradient_check",
    "init_backbone",
    "iou_per_class",
    "load_manifest",
    "make_variant",
    "masked_sum_part",
    "mean_of_shots",
    "miou",
    "op_forward",
    "pixel_weighted_combine",
    "register_novel_classes",
    "run_ablation",
    "run_fs_protocol",
    "run_gfs_protocol",
    "sample_support_set",
    "train",
]
