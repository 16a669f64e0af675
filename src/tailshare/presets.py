"""Frozen reference instances.

The long-tailed reference instance (20 classes, imbalance ratio 50,
depth-4 tanh trunk) is the one the proxy-vs-oracle rank study and the
weight sweep run on. Its values were calibrated once and then frozen:
plain BCE training (tau 0, no logit adjustment) and a width-10 trunk put
the sweep in the regime where tail-heavy weighting visibly degrades
balanced accuracy, and rank agreement between proxy and MC risk is
strong. The toy instance keeps CLI smoke runs fast.
"""
from __future__ import annotations

from .datagen import GenConfig
from .nn import ModelSpec, OptConfig
from .pipeline import RunConfig

REFERENCE_SEED = 20250808
REFERENCE_N_TRAIN = 2600
REFERENCE_M_RESAMPLES = 50
REFERENCE_SWEEP_SEEDS = 10
REFERENCE_EVAL_POINTS = 2000
REFERENCE_EVAL_PER_CLASS = 60


def reference_generator_config() -> GenConfig:
    return GenConfig(
        n_classes=20,
        input_dim=8,
        imbalance_ratio=50.0,
        n_max=400,
        class_mean_scale=1.5,
        noise_sigma=1.0,
        seed=REFERENCE_SEED,
    )


def reference_run_config() -> RunConfig:
    spec = ModelSpec(8, (10, 10, 10, 10), (10, 10), activation="tanh")
    return RunConfig(
        spec=spec,
        stage1_opt=OptConfig(learning_rate=0.3, momentum=0.9, epochs=20, batch_size=128, seed=11),
        stage2_opt=OptConfig(learning_rate=0.3, momentum=0.9, epochs=20, batch_size=128, seed=12),
        refine_opt=OptConfig(learning_rate=0.1, momentum=0.9, epochs=10, batch_size=128, seed=14),
        init_seed=13,
        tau=0.0,
    )


def toy_config_dict(out_dir: str = "runs/toy") -> dict:
    """CLI config for a fast end-to-end run on a small instance."""
    return {
        "out": out_dir,
        "seed": 7,
        "generator": {
            "n_classes": 6,
            "input_dim": 4,
            "imbalance_ratio": 10.0,
            "n_max": 120,
            "class_mean_scale": 1.8,
            "noise_sigma": 1.0,
        },
        "model": {"trunk_widths": [8, 8], "activation": "tanh"},
        "stage1": {"learning_rate": 0.3, "momentum": 0.9, "epochs": 30, "batch_size": 64},
        "stage2": {"learning_rate": 0.3, "momentum": 0.9, "epochs": 30, "batch_size": 64},
        "refine": {"learning_rate": 0.1, "momentum": 0.9, "epochs": 0, "batch_size": 64},
        "select": {"c_values": None, "w_values": None},
        "tau": 1.0,
        "holdout_fraction": 0.25,
        "eval_per_class": 50,
        "oracle": {"resamples": 6, "train_size": 400, "eval_points": 500},
    }
