"""Print the cost in µs of each layer a closed-loop tick calls.

Runs one seeded gelatin evaluation trial per estimator (the Kalman filter,
and the learned tracker on a seeded untrained hidden-30 model: the cost of
a step does not depend on the weights) and records the arguments of every
call to the layers below, each array argument as a copy (the learned
tracker hands _endpoint_fit a view of a window buffer it reuses). Each
layer is then replayed over its recorded calls, `--repeats` times, and the
median of the per-pass means is printed beside their 25th and 75th
percentiles, the spread of one process's run:

    python3 scripts/tick_costs.py --repeats 20

`plant.step`, `plant.sense`, `controller.control` and
`ekf.transition_jacobian` (the Jacobian each predict builds) are replayed
from the filter's trial, and `lstm._endpoint_fit` (the learned tracker's
position fit) from the learned tracker's. The two `estimate` rows replay
the trial's measurements through a fresh estimator, so every call sees
the state it saw in the trial. `ekf.update` replays the recorded states
themselves: a state holds its mean rotation as the matrix update reads, so
the replay does the loop's work. `ekf.EkfState` builds those states again,
from the fields predict and update pass (the position as three floats), in
µs per construction; a tick builds two. The last row times a whole
truth-steered `run_trial`, the loop `generate` runs plus building its
record, per tick; its `calls` column is the trial's tick count. The
`dataset.record_to_line` row encodes that trial's record, without the
estimator columns a generated episode lacks, as a `generate` worker encodes
each episode line, and the `dataset.record_from_line` row decodes that
line, as `train` reads each episode, both also per tick. The
`dataset.record_to_line ekf` row encodes the filter's trial record, with
the estimator columns, as `evaluate` writes each trial line, per tick of
that trial. The `dataset.to_training_sequences` row decodes the truth
trial's episode line into its training arrays,
`episode_to_sequence(record_from_line(line), z_max)`, as `train` does for
each episode, per tick. The training rows time `lstm._forward_batch` (a
training pass, with dropout) and `lstm.backward` at hidden 30 on a padded
batch of 600 steps, 8 and 4 sequences wide, through one reused Workspace
as `train` runs them, in µs per padded step (their `calls` column is the
step count), and `lstm.Adam.apply` per call on a hidden-30 model. The
`lstm.sequence_rmse B=10` row times the validation pass `train` runs each
epoch: the 10 validation episodes of a seed-42, 70-episode gelatin
dataset (the quickstart's), one VALIDATION_CHUNK wide, through one
reused Workspace, in µs per padded step. The
`lstm.save_model` and `lstm.load_model` rows write and read the untrained
model's file, per call, in a temporary directory; each save writes a new
file, as `train` does (rewriting one can add a filesystem flush of tens of
ms). The last line names the machine: cores, Python, numpy and the
OpenBLAS core (the kernel set it picked at run time, or `unknown`), read
as `scripts/artifact_digests.py` reads it: the training and filter rows
run on it. BLAS runs one thread, as in the benchmark. Standard library
and numpy only; imports the `src/` next to this script.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import gc
import itertools
import os
import platform
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from needleroll import dataset, ekf, evaluate, lstm  # noqa: E402
from needleroll.controller import ControllerParams  # noqa: E402
from needleroll.plant import GELATIN, WorkspaceCone  # noqa: E402

SEED = 7
BATCH_STEPS = 600  # padded steps of the timed training batches


def openblas_core() -> str:
    """The kernel set OpenBLAS picked at run time, or "unknown"."""
    try:
        from numpy._core import _multiarray_umath
        # a symbol lookup on numpy's extension also searches its OpenBLAS
        corename = ctypes.CDLL(
            _multiarray_umath.__file__).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    except (ImportError, OSError, AttributeError):
        return "unknown"


@contextmanager
def recording(owner, name: str, calls: list):
    """Append the arguments of every call to owner.name to calls."""
    fn = getattr(owner, name)

    def record(*args):
        calls.append(tuple(a.copy() if isinstance(a, np.ndarray) else a
                           for a in args))
        return fn(*args)

    setattr(owner, name, record)
    try:
        yield
    finally:
        setattr(owner, name, fn)


def record_trial(estimator: str, model, hooks) -> tuple[dict, object]:
    """Run one evaluation trial; return {layer: [args, ...]} for the
    (owner, attribute, layer) triples in hooks, and the trial's record."""
    calls = {layer: [] for _, _, layer in hooks}
    target = evaluate.sample_targets(WorkspaceCone(), SEED, 1)[0]
    tag = evaluate.ESTIMATOR_NAMES.index(estimator)
    with ExitStack() as stack:
        for owner, name, layer in hooks:
            stack.enter_context(recording(owner, name, calls[layer]))
        record = evaluate.run_trial(estimator, GELATIN, ControllerParams(),
                                    target, (SEED, tag, 0), model)
    return calls, record


def us_per_call(fn, make_args, repeats: int, per_call: int = 1):
    """25th, 50th and 75th percentiles over repeats of the mean µs of
    fn(*args), divided by per_call, over one pass of the argument list
    make_args() builds (untimed)."""
    means = []
    for _ in range(repeats):
        args_list = make_args()
        gc.disable()
        try:
            start = time.perf_counter()
            for args in args_list:
                fn(*args)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        means.append(1e6 * elapsed / (len(args_list) * per_call))
    return np.percentile(means, [25, 50, 75]).tolist()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=20,
                        help="timed passes over each layer's calls")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    repeats = args.repeats
    model = lstm.init_model(75.0, hidden_size=30, seed=0)
    controller = ControllerParams()
    ekf_calls, ekf_record = record_trial("ekf", None, [
        (dataset, "step", "plant.step"),
        (dataset, "sense", "plant.sense"),
        (dataset, "control", "controller.control"),
        (ekf, "predict", "ekf.predict"),
        (ekf, "update", "ekf.update"),
        (ekf, "transition_jacobian", "ekf.transition_jacobian"),
        (ekf.EkfRollTracker, "estimate", "EkfRollTracker.estimate"),
    ])
    lstm_calls, _ = record_trial("lstm", model, [
        (lstm, "forward_step", "lstm.forward_step"),
        (lstm, "_endpoint_fit", "lstm._endpoint_fit"),
        (lstm.RollEstimator, "estimate", "RollEstimator.estimate"),
    ])
    timing_rng = np.random.default_rng(SEED)
    truth_args = ("truth", GELATIN, controller,
                  evaluate.sample_targets(WorkspaceCone(), SEED, 1)[0],
                  (SEED, evaluate.ESTIMATOR_NAMES.index("truth"), 0))
    truth_record = dataclasses.replace(
        evaluate.run_trial(*truth_args), roll_est=None, angular_error=None,
        estimator=None)
    truth_ticks = truth_record.steps
    truth_line = dataset.record_to_line(truth_record)

    def replay(calls):
        return lambda: calls

    def training_sequence(line, z_max):
        return dataset.episode_to_sequence(dataset.record_from_line(line),
                                           z_max)

    # training layers at the shipped shape: hidden 30, padded batches of
    # BATCH_STEPS steps; backward consumes its cache, so each pass gets a
    # fresh one, built untimed in the same workspace
    batch_rng = np.random.default_rng(SEED)
    workspace = lstm.Workspace()
    training_pass = functools.partial(
        lstm._forward_batch, workspace=workspace,
        dropout=lstm.Dropout(lstm.TrainConfig.dropout_rate, batch_rng))
    training_rows = []
    for width in (8, 4):
        seqs = [(batch_rng.uniform(-1.0, 1.0, (BATCH_STEPS, lstm.INPUT_SIZE)),
                 batch_rng.uniform(-1.0, 1.0, (BATCH_STEPS, 2)))
                for _ in range(width)]
        xs, ys, mask = lstm._pad_batch(seqs)

        def forward_args(xs=xs):
            return [(model, xs)]

        def backward_args(xs=xs, ys=ys, mask=mask):
            cache = training_pass(model, xs)
            return [(model, cache, ys, mask)]

        training_rows += [
            (f"lstm._forward_batch B={width}", training_pass,
             forward_args, BATCH_STEPS),
            (f"lstm.backward B={width}", lstm.backward, backward_args,
             BATCH_STEPS),
        ]
    cache = training_pass(model, xs)
    grads = lstm.backward(model, cache, ys, mask)[0]
    stepped = lstm.init_model(75.0, hidden_size=30, seed=1)
    optimizer = lstm.Adam(stepped, lstm.LEARNING_RATE)
    model_dir = tempfile.TemporaryDirectory()
    model_path = Path(model_dir.name) / "model.json"
    # the quickstart's validation split, one chunk, in a warmed workspace
    data_root = Path(model_dir.name) / "dataset"
    manifest = dataset.generate_dataset(
        n=70, medium=GELATIN, workspace=WorkspaceCone(),
        controller=controller, seed=42, root=data_root)
    val_seqs = dataset.to_training_sequences(data_root, manifest)[1]
    val_workspace = lstm.Workspace()
    lstm.sequence_rmse(model, val_seqs, val_workspace)
    lstm.save_model(model, model_path)
    saved = itertools.count()

    def new_model_files():
        return [(model, Path(model_dir.name) / f"{next(saved)}.json")
                for _ in range(10)]

    def fresh_tracker_calls(calls, make):
        def build():
            tracker = make()
            return [(tracker, *a[1:]) for a in calls]
        return build

    # (layer, function, argument lists, ticks or padded steps per call)
    rows = [
        ("plant.step", dataset.step, replay(ekf_calls["plant.step"])),
        ("plant.sense", dataset.sense, replay(
            [(s, m, timing_rng) for s, m, _ in ekf_calls["plant.sense"]])),
        ("controller.control", dataset.control,
         replay(ekf_calls["controller.control"])),
        ("ekf.predict", ekf.predict, replay(ekf_calls["ekf.predict"])),
        ("ekf.update", ekf.update, replay(ekf_calls["ekf.update"])),
        ("ekf.transition_jacobian", ekf.transition_jacobian,
         replay(ekf_calls["ekf.transition_jacobian"])),
        ("ekf.EkfState", ekf.EkfState, replay(
            [(tuple(st.position.tolist()), st.rotation, st.covariance)
             for st, _, _ in ekf_calls["ekf.update"]])),
        ("EkfRollTracker.estimate", ekf.EkfRollTracker.estimate,
         fresh_tracker_calls(
             ekf_calls["EkfRollTracker.estimate"],
             lambda: ekf.EkfRollTracker(GELATIN, controller))),
        ("lstm.forward_step", lstm.forward_step,
         replay(lstm_calls["lstm.forward_step"])),
        ("lstm._endpoint_fit", lstm._endpoint_fit,
         replay(lstm_calls["lstm._endpoint_fit"])),
        ("RollEstimator.estimate", lstm.RollEstimator.estimate,
         fresh_tracker_calls(lstm_calls["RollEstimator.estimate"],
                             lambda: lstm.RollEstimator(model))),
        ("run_trial truth, per tick", evaluate.run_trial,
         replay([truth_args] * 3), truth_ticks),
        ("dataset.record_to_line", dataset.record_to_line,
         replay([(truth_record,)] * 3), truth_ticks),
        ("dataset.record_to_line ekf", dataset.record_to_line,
         replay([(ekf_record,)] * 3), ekf_record.steps),
        ("dataset.record_from_line", dataset.record_from_line,
         replay([(truth_line,)] * 3), truth_ticks),
        ("dataset.to_training_sequences", training_sequence,
         replay([(truth_line, WorkspaceCone().depth_max)] * 3), truth_ticks),
        *training_rows,
        (f"lstm.sequence_rmse B={len(val_seqs)}", lstm.sequence_rmse,
         replay([(model, val_seqs, val_workspace)] * 3),
         max(len(xs) for xs, _ in val_seqs)),
        ("lstm.Adam.apply", lstm.Adam.apply,
         replay([(optimizer, stepped, grads)] * 10)),
        ("lstm.save_model", lstm.save_model, new_model_files),
        ("lstm.load_model", lstm.load_model, replay([(model_path,)] * 10)),
    ]
    print(f"{'layer':<30}{'median':>10}{'p25':>10}{'p75':>10}{'calls':>8}")
    for name, fn, make_args, *per_call in rows:
        p25, median, p75 = us_per_call(fn, make_args, repeats, *per_call)
        calls = per_call[0] if per_call else len(make_args())
        print(f"{name:<30}{median:>10.2f}{p25:>10.2f}{p75:>10.2f}"
              f"{calls:>8}")
    print(f"machine cores={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} openblas_core={openblas_core()} "
          f"blas_threads="
          f"{os.environ['OPENBLAS_NUM_THREADS']} repeats={repeats} "
          f"seed={SEED}")
    model_dir.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
