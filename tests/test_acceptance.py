"""End-to-end acceptance runs, one test per shipped claim.

Each test prints a one-line verdict with the measured number next to its
bound. The heavy fixtures (dataset generation, the full training run) come
from conftest and are shared across tests.
"""

import filecmp
import math

import numpy as np

from needleroll.cli import main
from needleroll.dataset import episode_to_sequence, load_episodes
from needleroll.evaluate import group_stats, run_batch
from needleroll.lstm import (
    RollEstimator,
    _forward_batch,
    _pad_batch,
    backward,
    batch_loss,
    estimate_roll,
    init_model,
    run_sequence,
)
from needleroll.plant import MEDIUM_PRESETS, SensedTip, rigid_variant
from needleroll.se3 import (
    angular_error,
    register_points,
    so3_exp,
)
from oracles import quat_from_matrix, rot_z


def test_c01_ground_truth_steering_lands_every_gelatin_target(run_defaults, verdict):
    cfg = run_defaults
    records = run_batch(("truth",), cfg.make_medium(), n_trials=30,
                        seed=501)
    errors = np.array([r.final_error for r in records])
    ok = bool((errors < 1.0).all())
    verdict("C1", ok,
            f"ground-truth steering, 30 gelatin targets: max error "
            f"{errors.max():.3f} mm, mean {errors.mean():.3f} mm (need all < 1 mm)")


def test_c02_ekf_steering_lands_every_rigid_target(run_defaults, verdict):
    cfg = run_defaults
    medium = rigid_variant(cfg.make_medium())
    records = run_batch(("ekf",), medium, n_trials=10, seed=502)
    errors = np.array([r.final_error for r in records])
    ok = bool((errors < 1.0).all())
    verdict("C2", ok,
            f"filter-driven steering, 10 rigid targets: max error "
            f"{errors.max():.3f} mm (need all < 1 mm)")


def test_c03_analytic_gradients_match_finite_differences(verdict):
    rng = np.random.default_rng(33)
    model = init_model(75.0, hidden_size=4, seed=33)
    feats = rng.normal(0.0, 0.7, size=(7, 8))
    targets = rng.normal(0.0, 0.7, size=(7, 2))
    xs, ys, mask = _pad_batch([(feats, targets)])

    cache = _forward_batch(model, xs)
    grads, _, _, _ = backward(model, cache, ys, mask)

    def loss():
        c = _forward_batch(model, xs)
        return batch_loss(c["y"], ys, mask)[0]

    eps = 1e-5
    worst = 0.0
    for name, arr in model.params():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss()
            flat[i] = keep - eps
            down = loss()
            flat[i] = keep
            fd = (up - down) / (2.0 * eps)
            rel = abs(gflat[i] - fd) / max(1e-8, abs(gflat[i]) + abs(fd))
            worst = max(worst, rel)
    ok = worst < 1e-5
    verdict("C3", ok,
            f"gradient check, hidden 4 / length 7, every parameter: worst "
            f"relative error {worst:.2e} (need < 1e-5)")


def test_c04_training_reaches_low_validation_rmse_in_budget(
        trained_estimator, verdict):
    model, log, seconds, (n_train, n_val) = trained_estimator
    best = min(row.val_rmse for row in log)
    ok = n_train == 60 and n_val == 10 and best <= 0.10 and seconds <= 900.0
    verdict("C4", ok,
            f"training on {n_train}/{n_val} episodes: best val RMSE "
            f"{best:.4f} (need <= 0.10) in {seconds / 60.0:.1f} min "
            f"(need <= 15 min)")


def test_c05_learned_estimator_beats_filter_in_gelatin(
        run_defaults, trained_estimator, verdict):
    cfg = run_defaults
    model = trained_estimator[0]
    records = run_batch(("lstm", "ekf"), cfg.make_medium(), n_trials=30,
                        seed=505, model=model)
    ekf, lstm = group_stats(records)  # sorted by estimator name
    assert (ekf.estimator, lstm.estimator) == ("ekf", "lstm")
    lstm_err, ekf_err = lstm.error_mean, ekf.error_mean
    ok = lstm_err < 2.0 and lstm_err < ekf_err / 3.0
    verdict("C5", ok,
            f"30 fresh gelatin trials: learned mean {lstm_err:.3f} mm vs "
            f"filter mean {ekf_err:.3f} mm (need < 2 mm and < filter/3 = "
            f"{ekf_err / 3.0:.3f} mm)")


def test_c06_gelatin_trained_model_transfers_to_brain_and_lung(
        run_defaults, trained_estimator, verdict):
    cfg = run_defaults
    model = trained_estimator[0]
    details = []
    ok = True
    for medium_name, seed in (("brain", 506), ("lung", 507)):
        records = run_batch(("lstm", "ekf"), MEDIUM_PRESETS[medium_name],
                            n_trials=10, seed=seed, model=model)
        ekf, lstm = group_stats(records)  # sorted by estimator name
        assert (ekf.estimator, lstm.estimator) == ("ekf", "lstm")
        ok = (ok and lstm.error_mean < ekf.error_mean
              and lstm.angular_mean < ekf.angular_mean)
        details.append(
            f"{medium_name} target {lstm.error_mean:.2f}|{ekf.error_mean:.2f}"
            f" mm, angle {lstm.angular_mean:.2f}|{ekf.angular_mean:.2f} rad")
    verdict("C6", ok,
            "cross-medium (learned|filter, need learned lower on both): "
            + "; ".join(details))


def test_c07_angular_error_matches_quaternion_geodesic(verdict):
    exact_zero = angular_error(np.eye(3), np.eye(3))
    quarter = angular_error(rot_z(math.pi / 2.0), np.eye(3))
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        Ra = np.array(so3_exp(rng.normal(0.0, 1.2, size=3).tolist()))
        Rb = np.array(so3_exp(rng.normal(0.0, 1.2, size=3).tolist()))
        qa = quat_from_matrix(Ra)
        qb = quat_from_matrix(Rb)
        geodesic = 2.0 * math.acos(min(1.0, abs(float(np.dot(qa, qb)))))
        worst = max(worst, abs(angular_error(Ra, Rb) - geodesic))
    ok = (exact_zero == 0.0
          and abs(quarter - math.pi / 2.0) < 1e-12
          and worst < 1e-9)
    verdict("C7", ok,
            f"angle metric: identity {exact_zero:.1e}, quarter-turn off by "
            f"{abs(quarter - math.pi / 2.0):.1e}, worst quaternion-oracle "
            f"gap {worst:.2e} (need 0, < 1e-12, < 1e-9)")


def test_c08_registration_recovers_known_transform(verdict):
    rng = np.random.default_rng(88)
    R = np.array(so3_exp([0.4, -0.25, 0.95]))
    t = np.array([12.0, -7.0, 31.0])
    points = rng.uniform(-40.0, 40.0, size=(6, 3))
    observed = points @ R.T + t
    R_fit, t_fit, fre = register_points(points, observed)
    rot_gap = float(np.abs(R_fit - R).max())
    trans_gap = float(np.abs(t_fit - t).max())
    ok = rot_gap < 1e-9 and trans_gap < 1e-9 and fre < 1e-9
    verdict("C8", ok,
            f"noiseless registration: rotation gap {rot_gap:.2e}, "
            f"translation gap {trans_gap:.2e}, FRE {fre:.2e} (need < 1e-9)")


def test_c09_streaming_estimator_matches_batch_forward_bitwise(
        desk_dataset, trained_estimator, verdict):
    root, manifest = desk_dataset
    model = trained_estimator[0]
    records = load_episodes(root, manifest)
    records = [rec for rec, label in zip(records, manifest.labels)
               if label == "val"][:5]
    assert len(records) == 5
    worst_steps = 0
    identical = True
    for record in records:
        xs, _ = episode_to_sequence(record, manifest.z_max)
        batch_outputs = run_sequence(model, xs)
        batch_rolls = np.array([estimate_roll(y) for y in batch_outputs])

        estimator = RollEstimator(model)
        stream_rolls = []
        for k in range(xs.shape[0]):
            meas = SensedTip(np.asarray(record.position[k]),
                             np.asarray(record.heading[k]))
            estimator.estimate(meas, record.base_angle[k])
            stream_rolls.append(estimator.last_roll)
        stream_rolls = np.array(stream_rolls)
        identical = identical and np.array_equal(batch_rolls, stream_rolls)
        worst_steps = max(worst_steps, len(stream_rolls))
    verdict("C9", identical,
            f"streaming vs batch roll estimates on 5 recorded episodes "
            f"(longest {worst_steps} steps): bit-identical = {identical}")


def test_c10_pipeline_reports_are_byte_identical(tmp_path, verdict):
    def pipeline(base):
        data = base / "data"
        runs = base / "runs"
        fit = base / "fit"
        assert main(["generate", "--n", "6", "--seed", "9", "--jobs", "1",
                     "--out", str(data)]) == 0
        assert main(["train", "--dataset", str(data), "--epochs", "2",
                     "--seed", "9",
                     "--out", str(fit)]) == 0
        assert main(["evaluate", "--n", "2", "--seed", "9", "--jobs", "1",
                     "--model", str(fit / "model.json"),
                     "--estimators", "truth,ekf,lstm",
                     "--out", str(runs)]) == 0
        return base

    a = pipeline(tmp_path / "a")
    b = pipeline(tmp_path / "b")
    compared = []
    same = True
    for rel in ("data/episodes.jsonl", "data/manifest.json",
                "fit/model.json", "fit/training_log.csv",
                "runs/trials/summaries.csv", "runs/trials/episodes.jsonl",
                "runs/histogram.csv", "runs/report.txt"):
        equal = filecmp.cmp(a / rel, b / rel, shallow=False)
        same = same and equal
        compared.append(rel if equal else rel + "(DIFFERS)")
    verdict("C10", same,
            f"repeated generate/train/evaluate, fixed seeds, --jobs 1: "
            f"{len(compared)} artifacts byte-compared, identical = {same}")
