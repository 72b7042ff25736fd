"""Shared fixtures: the desk-scale dataset and the trained roll estimator.

The expensive artifacts (70 generated episodes, one full training run) are
session-scoped so the acceptance tests share a single copy. Everything is
seeded; reruns produce identical artifacts.
"""

import time

import pytest

from needleroll.config import RunConfig
from needleroll.dataset import generate_dataset, to_training_sequences
from needleroll.lstm import train


@pytest.fixture(scope="session")
def verdict(request):
    """Print a one-line pass/fail verdict that survives output capture."""
    reporter = request.config.pluginmanager.getplugin("terminalreporter")

    def emit(criterion: str, ok: bool, detail: str):
        line = f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}"
        if reporter is not None:
            reporter.write_line("")
            reporter.write_line(line)
        print(line)
        assert ok, line

    return emit


@pytest.fixture(scope="session")
def run_defaults():
    cfg = RunConfig()
    cfg.validate()
    return cfg


@pytest.fixture(scope="session")
def desk_dataset(tmp_path_factory, run_defaults):
    """70 gelatin episodes at shipped defaults, split 60 train / 10 val."""
    cfg = run_defaults
    root = tmp_path_factory.mktemp("desk_dataset")
    manifest = generate_dataset(70, cfg.make_medium(), seed=42, root=root)
    return root, manifest


@pytest.fixture(scope="session")
def trained_estimator(desk_dataset, run_defaults):
    """Full-size training run on the desk dataset; returns timing too."""
    root, manifest = desk_dataset
    train_seqs, val_seqs = to_training_sequences(root, manifest)
    start = time.perf_counter()
    model, log = train(train_seqs, val_seqs, run_defaults.make_train_config(),
                       manifest.z_max)
    seconds = time.perf_counter() - start
    return model, log, seconds, (len(train_seqs), len(val_seqs))
