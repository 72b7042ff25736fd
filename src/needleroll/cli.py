"""Command-line entry point: generate, train, evaluate, report.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure
(including an unreadable or inconsistent dataset, or a dead pool worker).
generate, train and evaluate are deterministic under a fixed --seed, and
report draws nothing at random. Under generate and evaluate, --jobs
enables order-preserving process parallelism with identical results.
Under generate the workers build and encode each episode line, and this
process writes the lines in slot order as they arrive.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from needleroll.config import (
    RunConfig,
    load_config_file,
    resolve_config,
    write_resolved_config,
)
from needleroll.dataset import (
    DEFAULT_EPISODES,
    DatasetError,
    GenerationStalled,
    config_hash,
    generate_dataset,
    load_manifest,
    to_training_sequences,
)
from needleroll.evaluate import (
    DEFAULT_TRIALS,
    ESTIMATOR_NAMES,
    render_report,
    report,
    run_batch,
)
from needleroll.lstm import Diverged, load_model, save_model, train
from needleroll.plant import MEDIUM_PRESETS
from needleroll.schema import replacing


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here is exit code 1
    def error(self, message):
        raise UsageError(message)


def _add_common(sub, seed=True, jobs=False):
    sub.add_argument("--config", help="JSON config file; flags override it")
    if seed:
        sub.add_argument("--seed", type=int)
    sub.add_argument("--out", help="output directory")
    if jobs:
        sub.add_argument("--jobs", type=int,
                         help="process parallelism (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="needleroll",
                     description="steerable-needle roll estimation pipeline")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("generate", help="collect a steering dataset")
    _add_common(p, jobs=True)
    p.add_argument("--n", type=int,
                   help=f"episode count (default {DEFAULT_EPISODES})")
    p.add_argument("--medium", choices=list(MEDIUM_PRESETS))
    p.add_argument("--rigid", action="store_const", const=True)

    p = commands.add_parser("train", help="fit the roll estimator")
    _add_common(p)
    p.add_argument("--dataset", help="dataset directory from generate")
    p.add_argument("--epochs", type=int)

    p = commands.add_parser("evaluate", help="batch trials and report")
    _add_common(p, jobs=True)
    p.add_argument("--n", type=int,
                   help=f"trial count (default {DEFAULT_TRIALS})")
    p.add_argument("--medium", choices=list(MEDIUM_PRESETS))
    p.add_argument("--rigid", action="store_const", const=True)
    p.add_argument("--model", help="trained model file (lstm)")
    p.add_argument("--estimators",
                   type=lambda t: tuple(t.split(",")),
                   help="comma-separated subset of "
                   + ",".join(ESTIMATOR_NAMES))
    # RunConfig.validate checks the coordinate count
    p.add_argument("--target", type=lambda t: tuple(map(float, t.split(","))),
                   help="x,y,z in mm for every trial; sampled from the "
                   "workspace if omitted")

    p = commands.add_parser(
        "report", help="re-render trials/summaries.csv, histogram.csv and "
        "report.txt from trials/episodes.jsonl")
    _add_common(p, seed=False)

    return parser


def _mapper(jobs: int):
    """map, or for jobs > 1 a generator over a process pool's map.

    The pool forks no more workers than there are items. Its results are
    yielded in slot order, each as soon as it and every earlier slot are
    done, so a caller can write them while later slots still run. When a
    slot raises or the caller stops early, the queued slots are cancelled
    and the pool is shut down before the generator returns.
    """
    if jobs <= 1:
        return map

    def run(fn, items):
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(items)))
        try:
            yield from pool.map(fn, items, chunksize=1)
        finally:
            pool.shutdown(cancel_futures=True)

    return run


def _resolve(ns) -> RunConfig:
    flags = {k: v for k, v in vars(ns).items()
             if k not in ("command", "config")}
    return resolve_config(load_config_file(ns.config) if ns.config else {},
                          flags)


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"{flag} is required for this command")
    return value


def cmd_generate(config: RunConfig) -> int:
    out = Path(_require(config.out, "--out"))
    # validate() rejects n < 1, so `or` fills in only a missing count
    config = dataclasses.replace(config, n=config.n or DEFAULT_EPISODES)
    manifest = generate_dataset(
        n=config.n, medium=config.make_medium(), seed=config.seed, root=out,
        mapper=_mapper(config.jobs),
    )
    write_resolved_config(config, out)
    n_val = manifest.labels.count("val")
    print(f"generated {config.n} episodes to {out} (train {config.n - n_val}"
          f" / val {n_val}, hash {config_hash(manifest.generation)[:12]})")
    return 0


def cmd_train(config: RunConfig) -> int:
    out = Path(_require(config.out, "--out"))
    dataset_root = Path(_require(config.dataset, "--dataset"))
    manifest = load_manifest(dataset_root)
    train_seqs, val_seqs = to_training_sequences(dataset_root, manifest)
    # the features are scaled by the dataset's z_max, so the model takes it
    model, log = train(train_seqs, val_seqs, config.make_train_config(),
                       manifest.z_max)
    save_model(model, out / "model.json")
    with replacing(out / "training_log.csv") as fh:
        fh.write("epoch,train_loss,val_rmse\n")
        for row in log:
            fh.write(f"{row.epoch},{row.train_loss!r},{row.val_rmse!r}\n")
    write_resolved_config(config, out)
    best = min(row.val_rmse for row in log)
    print(f"trained {len(log)} epochs on {len(train_seqs)} episodes; "
          f"val RMSE last {log[-1].val_rmse:.4f}, best {best:.4f}")
    print(f"model written to {out / 'model.json'}")
    return 0


def cmd_evaluate(config: RunConfig) -> int:
    out = Path(_require(config.out, "--out"))
    config = dataclasses.replace(config, n=config.n or DEFAULT_TRIALS)
    model = (load_model(_require(config.model, "--model"))
             if "lstm" in config.estimators else None)
    records = run_batch(
        config.estimators, config.make_medium(), n_trials=config.n,
        seed=config.seed, model=model, target=config.target,
        mapper=_mapper(config.jobs),
    )
    stats = {s.estimator: s for s in report(records, out)}
    write_resolved_config(config, out)
    for name in config.estimators:
        print(f"{name}: mean targeting error {stats[name].error_mean:.3f} mm, "
              f"mean angular error {stats[name].angular_mean:.4f} rad over "
              f"{config.n} trials")
    print(f"report written to {out / 'report.txt'}")
    return 0


def cmd_report(config: RunConfig) -> int:
    out = Path(_require(config.out, "--out"))
    render_report(out)
    print(f"report regenerated at {out / 'report.txt'}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return COMMANDS[ns.command](_resolve(ns))
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, GenerationStalled, Diverged, BrokenProcessPool,
            OSError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
