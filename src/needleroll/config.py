"""Run configuration: one flat, fully-resolved bundle of the settings a
run can set.

Values merge in fixed precedence: built-in defaults, then a JSON config
file, then explicit command-line flags. A config file is held against
RunConfig's annotations by schema.check_json. The resolved result is
serialized next to a command's outputs so any run can be reproduced from
its artifact directory alone.

The controller and the reachable workspace are no settings: they are the
constants controller.CONTROLLER and plant.WORKSPACE, which nothing takes
as a parameter and no manifest stores. So the position feature scale is
WORKSPACE.depth_max, which train copies into the model.
Nor are the depth at which a closed loop gives up and the share of episodes
split into train: dataset owns them as DEPTH_CAP and TRAIN_FRACTION.
Training takes only its epoch count and seed from here: the batch size,
dropout rate and hidden size are TrainConfig's defaults, and the
learning rate is lstm.LEARNING_RATE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from needleroll.controller import CONTROLLER
from needleroll.evaluate import check_estimator_names
from needleroll.lstm import TrainConfig
from needleroll.plant import MEDIUM_PRESETS, MediumParams, rigid_variant
from needleroll.schema import check_json, load_json, save_json

CONFIG_SCHEMA_VERSION = 1
CONFIG_FILENAME = "config.json"


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out: str | None = None
    jobs: int = 1

    # plant / medium
    medium: str = "gelatin"
    rigid: bool = False

    # dataset generation; n doubles as the trial count for evaluation
    n: int | None = None

    # training
    dataset: str | None = None
    epochs: int = TrainConfig.epochs

    # evaluation
    model: str | None = None
    estimators: tuple[str, ...] = ("lstm", "ekf")
    target: tuple[float, float, float] | None = None

    def validate(self):
        if self.medium not in MEDIUM_PRESETS:
            raise ValueError(
                f"unknown medium {self.medium!r}; "
                f"choose from {sorted(MEDIUM_PRESETS)}")
        check_estimator_names(self.estimators)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be at least 1")
        self.make_train_config()  # TrainConfig checks the epoch count
        if self.target is not None:
            if len(self.target) != 3:
                raise ValueError("target must have three coordinates")
            if not all(map(math.isfinite, self.target)):
                raise ValueError("target coordinates must be finite")
            # the first control tick stops on a target short of this
            if not (self.target[2] > 0.0 and math.hypot(*self.target)
                    > CONTROLLER.arrival_tolerance):
                raise ValueError("target must lie ahead of the entry point: "
                                 "z > 0, beyond the arrival tolerance")
        return self

    def make_medium(self) -> MediumParams:
        medium = MEDIUM_PRESETS[self.medium]
        return rigid_variant(medium) if self.rigid else medium

    def make_train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, seed=self.seed)


def load_config_file(path) -> dict:
    try:
        doc = load_json(Path(path).read_text())
        if isinstance(doc, dict):
            got = doc.pop("schema_version", CONFIG_SCHEMA_VERSION)
            if type(got) is not int or got != CONFIG_SCHEMA_VERSION:
                raise ValueError(f"unsupported config schema {got!r}")
        check_json(doc, RunConfig)
    except ValueError as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
    return doc


def resolve_config(from_file: dict | None = None,
                   flags: dict | None = None) -> RunConfig:
    """Defaults, overlaid by config-file values, overlaid by flags.

    Flag values equal to None mean "not given on the command line" and do
    not override.
    """
    merged = dict(from_file or {})
    merged.update((k, v) for k, v in (flags or {}).items() if v is not None)
    # JSON lists fill RunConfig's tuple fields; an int given for a target
    # coordinate becomes the float, so 70 and 70.0 make one config and one
    # dataset
    return RunConfig(**{
        k: tuple(map(float, v)) if k == "target" and v is not None else
        tuple(v) if isinstance(v, list) else v
        for k, v in merged.items()}).validate()


def write_resolved_config(config: RunConfig, out_dir):
    save_json(Path(out_dir) / CONFIG_FILENAME, config, CONFIG_SCHEMA_VERSION)
