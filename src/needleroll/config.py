"""Run configuration: one flat, fully-resolved bundle of the settings a
run can set.

Values merge in fixed precedence: built-in defaults, then a JSON config
file, then explicit command-line flags. schema.from_json checks a config
file against RunConfig's annotations and builds the RunConfig, a JSON
list as a tuple. The resolved result is serialized next to a command's
outputs so any run can be reproduced from its artifact directory alone.

The controller and the reachable workspace are no settings: they are the
constants controller.CONTROLLER and plant.WORKSPACE, which nothing takes
as a parameter and no manifest or model stores. So the position feature
scale is WORKSPACE.depth_max.
Nor are the depth at which a closed loop gives up and the share of episodes
split into train: dataset owns them as DEPTH_CAP and TRAIN_FRACTION.
Training takes only its epoch count and seed from here: the batch size,
dropout rate and hidden size are TrainConfig's defaults, and the
learning rate is lstm.LEARNING_RATE.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from needleroll.evaluate import check_estimator_names
from needleroll.lstm import TrainConfig
from needleroll.plant import MEDIUM_PRESETS
from needleroll.schema import from_json, load_json, save_json

CONFIG_SCHEMA_VERSION = 1
CONFIG_FILENAME = "config.json"


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out: str | None = None
    jobs: int = 1

    # plant / medium: a MEDIUM_PRESETS name; rigid-gelatin is one
    medium: str = "gelatin"

    # dataset generation; n doubles as the trial count for evaluation
    n: int | None = None

    # training
    dataset: str | None = None
    epochs: int = TrainConfig.epochs

    # evaluation
    model: str | None = None
    estimators: tuple[str, ...] = ("lstm", "ekf")

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
        return self

    def make_train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, seed=self.seed)


def load_config_file(path) -> RunConfig:
    """The RunConfig from_json builds from a config file: the file's
    fields, defaults elsewhere, unvalidated until resolve_config."""
    try:
        doc = load_json(Path(path).read_text())
        if isinstance(doc, dict):
            got = doc.pop("schema_version", CONFIG_SCHEMA_VERSION)
            if type(got) is not int or got != CONFIG_SCHEMA_VERSION:
                raise ValueError(f"unsupported config schema {got!r}")
        return from_json(doc, RunConfig)
    except ValueError as exc:
        raise ValueError(f"config file {path}: {exc}") from exc


def resolve_config(from_file: RunConfig | None = None,
                   flags: dict | None = None) -> RunConfig:
    """Defaults, overlaid by config-file values, overlaid by flags.

    Flag values equal to None mean "not given on the command line" and do
    not override.
    """
    return dataclasses.replace(
        from_file or RunConfig(),
        **{k: v for k, v in (flags or {}).items() if v is not None}).validate()


def write_resolved_config(config: RunConfig, out_dir):
    save_json(Path(out_dir) / CONFIG_FILENAME, config, CONFIG_SCHEMA_VERSION)
