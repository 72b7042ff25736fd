import csv
import dataclasses
import json
import math
import re
import shutil
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needleroll import dataset, evaluate
from needleroll.controller import CONTROLLER, control
from needleroll.ekf import EkfRollTracker, roll_variance
from needleroll.dataset import (
    DatasetError,
    record_from_line,
    record_to_line,
    run_closed_loop,
)
from needleroll.evaluate import (
    BIN_WIDTH,
    ESTIMATOR_NAMES,
    _roll_error,
    group_stats,
    histogram,
    make_estimator,
    render_report,
    report,
    run_batch,
    run_trial,
)
from needleroll.lstm import init_model
from needleroll.plant import (
    GELATIN,
    MEDIUM_PRESETS,
    ControlInput,
    SensedTip,
    initial_state,
    rigid_variant,
    sense,
    step,
)
from needleroll.se3 import decompose_roll, wrap_angle

TARGET = np.array([4.0, -6.0, 55.0])


# -------------------------------------------------------------------- trials

def test_truth_trial_is_exact_and_arrives():
    record = run_trial("truth", GELATIN, TARGET, seed=1)
    assert record.estimator == "truth"
    assert record.outcome == "arrived"
    assert record.final_error < 1.0
    # the estimate is the true rotation itself, so every step is exactly 0
    assert not record.angular_error.any()
    assert np.mean(_roll_error(record)) < 1e-9
    assert record.steps == len(record.angular_error)


def test_roll_error_is_wrap_angle_bit_for_bit():
    """_roll_error's array arithmetic gives the bits of abs(wrap_angle) of
    each step's difference: at +-pi, +-0.0, multiples of 2 pi and their
    neighbours, and on a seeded draw."""
    edges = [k * math.pi for k in range(-6, 7)]
    edges += [math.nextafter(a, b) for a in edges for b in (-math.inf,
                                                          math.inf)]
    rng = np.random.default_rng(41)
    est = np.concatenate([edges, [0.0, -0.0, 1e-300, -1e-300],
                          rng.uniform(-4 * math.pi, 4 * math.pi, 20_000)])
    true = np.concatenate([np.zeros(len(edges) + 4),
                           rng.uniform(-30.0, 30.0, 20_000)])
    record = SimpleNamespace(roll_est=est, roll_true=true)
    expected = [abs(wrap_angle(d)) for d in (est - true).tolist()]
    assert _roll_error(record).tobytes() == np.array(expected).tobytes()


def test_trial_determinism():
    a = record_to_line(run_trial("ekf", GELATIN, TARGET, seed=3))
    b = record_to_line(run_trial("ekf", GELATIN, TARGET, seed=3))
    assert a == b
    c = record_to_line(run_trial("ekf", GELATIN, TARGET, seed=4))
    assert c != a


def test_ekf_trial_on_rigid_plant_succeeds():
    record = run_trial("ekf", rigid_variant(GELATIN), TARGET, seed=5)
    assert record.outcome == "arrived"
    assert record.final_error < 1.0
    assert np.mean(record.angular_error) < 3.0 * GELATIN.heading_noise


def test_ekf_trial_on_compliant_plant_has_large_roll_error():
    record = run_trial("ekf", GELATIN, TARGET, seed=6)
    assert np.mean(record.angular_error) > 0.5
    # the filter's wrapped-roll error matches its full angular error: the
    # position/heading part is tightly observed, the roll alone is blind
    assert np.abs(record.angular_error[40:]
                  - np.abs([math.remainder(d, 2.0 * math.pi)
                            for d in record.roll_est[40:]
                            - record.roll_true[40:]])).max() < 0.08


def test_lstm_trial_requires_model():
    with pytest.raises(ValueError):
        run_trial("lstm", GELATIN, TARGET, seed=7)


def test_unknown_estimator_rejected():
    with pytest.raises(ValueError):
        make_estimator("oracle", GELATIN)


def test_lstm_trial_runs_with_untrained_model():
    model = init_model(75.0, seed=0)
    record = run_trial("lstm", GELATIN, TARGET, seed=8, model=model)
    # an untrained net steers poorly but the loop must still terminate
    assert record.outcome in ("arrived", "depth_capped")
    assert record.angular_error.min() >= 0.0
    assert record.angular_error.max() <= math.pi


def test_ekf_tracker_variance_grows_while_steering():
    tracker = EkfRollTracker(GELATIN)
    state = initial_state()
    rng = np.random.default_rng(9)
    dt = 1.0 / CONTROLLER.rate
    first = None
    for k in range(200):
        tracker.estimate(sense(state, GELATIN, rng), state.base_angle)
        if first is None:
            first = roll_variance(tracker.state)
        state = step(state, ControlInput(5.0, 2.0 * math.pi), GELATIN, dt)
    assert roll_variance(tracker.state) > 10.0 * first


@pytest.mark.parametrize("name", ["ekf", "lstm"])
@pytest.mark.parametrize("bad", ["position", "heading", "base_angle",
                                 "heading_norm"])
def test_estimators_reject_non_finite_measurements(name, bad):
    est = make_estimator(name, GELATIN,
                         model=init_model(75.0, hidden_size=4, seed=1))
    good = SensedTip(position=np.array([0.0, 0.0, 1.0]),
                     heading=np.array([0.0, 0.0, 1.0]))
    est.estimate(good, 0.0)
    position, heading, base_angle = good.position.copy(), good.heading.copy(), 0.1
    if bad == "position":
        position[1] = np.nan
    elif bad == "heading":
        heading[2] = np.inf
    elif bad == "base_angle":
        base_angle = np.nan
    else:
        heading *= 1.01
    match = "unit-norm" if bad == "heading_norm" else "non-finite"
    with pytest.raises(ValueError, match=match):
        est.estimate(SensedTip(position, heading), base_angle)
    # within the tolerance the heading passes
    est.estimate(SensedTip(good.position, good.heading * (1.0 + 5e-7)), 0.1)


# -------------------------------------------------------- estimator contract

def test_estimated_pair_reaches_control_and_logs_unchanged(monkeypatch):
    """run_closed_loop hands the (rows, p) an estimator returns to control,
    and its rows to logs["R_est"], as the very objects returned."""
    medium = rigid_variant(GELATIN)
    returned, seen = [], []

    class Stub:
        inner = EkfRollTracker(medium)

        def estimate(self, meas, base_angle):
            rows, p = self.inner.estimate(meas, base_angle)
            returned.append((tuple(map(tuple, rows)), tuple(p)))
            return returned[-1]

    def spy(rows, p, goal, params):
        seen.append((rows, p))
        return control(rows, p, goal, params)

    monkeypatch.setattr(dataset, "control", spy)
    logs, _, outcome, _ = run_closed_loop(
        medium, TARGET, np.random.default_rng(2), Stub())
    assert outcome == "arrived" and len(seen) == len(returned) > 1
    for (rows, p), (got_rows, got_p) in zip(returned, seen):
        assert got_rows is rows and got_p is p
    assert len(logs["R_est"]) == len(returned) - 1  # arrival is not logged
    for (rows, _), logged in zip(returned, logs["R_est"]):
        assert logged is rows


@pytest.mark.parametrize("name", ["ekf", "lstm"])
def test_shipped_estimators_return_float_rows_and_floats(name):
    est = make_estimator(name, GELATIN,
                         model=init_model(75.0, hidden_size=4, seed=1))
    state, rng = initial_state(), np.random.default_rng(3)
    for _ in range(5):
        rows, p = est.estimate(sense(state, GELATIN, rng), state.base_angle)
        assert len(rows) == 3 and all(len(row) == 3 for row in rows)
        assert all(type(x) is float for row in rows for x in row)
        assert len(p) == 3 and all(type(x) is float for x in p)
        state = step(state, ControlInput(5.0, 2.0), GELATIN,
                     1.0 / CONTROLLER.rate)


@pytest.mark.parametrize("name", ["ekf", "lstm"])
def test_trial_roll_est_is_decompose_roll_of_logged_rows(name, monkeypatch):
    """Bit for bit, from the rows as logged and from the same rows as
    arrays."""
    logged = []

    def capture(*args):
        out = run_closed_loop(*args)
        logged.append(out[0]["R_est"])
        return out

    monkeypatch.setattr(evaluate, "run_closed_loop", capture)
    record = run_trial(name, GELATIN, TARGET, seed=12,
                       model=init_model(75.0, hidden_size=4, seed=1))
    rows = logged[0]
    assert len(rows) == record.steps > 0
    for rolls in ([decompose_roll(r)[1] for r in rows],
                  [decompose_roll(np.array(r))[1] for r in rows]):
        assert record.roll_est.tobytes() == np.array(rolls).tobytes()


# -------------------------------------------------------------------- batches

def test_batch_pairs_targets_across_estimators(tmp_path):
    records = run_batch(
        ["truth", "ekf"], rigid_variant(GELATIN), n_trials=2, seed=11)
    assert len(records) == 4
    # consecutive (truth, ekf) rows steer to the same target
    assert np.array_equal(records[0].target, records[1].target)
    assert np.array_equal(records[2].target, records[3].target)
    assert not np.array_equal(records[0].target, records[2].target)
    # per-estimator noise streams differ
    assert not np.array_equal(records[0].position, records[1].position)


def test_batch_deterministic_under_any_mapper():
    def backwards_map(fn, items):
        items = list(items)
        return reversed([fn(x) for x in reversed(items)])

    a = run_batch(["truth"], rigid_variant(GELATIN), n_trials=3, seed=13)
    b = run_batch(["truth"], rigid_variant(GELATIN), n_trials=3, seed=13,
                  mapper=backwards_map)
    assert list(map(record_to_line, a)) == list(map(record_to_line, b))


def test_batch_rejects_bad_args():
    with pytest.raises(ValueError):
        run_batch(["truth"], GELATIN, 0, seed=1)
    with pytest.raises(ValueError):
        run_batch(["psychic"], GELATIN, 1, seed=1)
    # a repeat would rerun the estimator's trials under the same seeds
    with pytest.raises(ValueError, match="'ekf' is listed twice"):
        run_batch(["ekf", "truth", "ekf"], GELATIN, 1, seed=1)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(medium=st.sampled_from(sorted(MEDIUM_PRESETS)),
       seed=st.integers(0, 2**31 - 1),
       names=st.permutations(ESTIMATOR_NAMES).flatmap(
           lambda p: st.integers(1, len(p)).map(lambda n: p[:n])),
       data=st.data())
def test_trial_k_does_not_depend_on_the_batch_around_it(medium, seed, names,
                                                       data):
    """Trial k of an estimator equals its trial k in a one-estimator batch
    of any other size n > k, field for field but its trial id: the other
    estimators listed, their order and n move no bit of it. Paired
    comparisons across batches rest on this."""
    k = data.draw(st.integers(0, 1), label="k")
    n, n_alone = (data.draw(st.integers(k + 1, 2), label=label)
                  for label in ("n", "n_alone"))
    name = data.draw(st.sampled_from(names), label="name")
    model = init_model(75.0, hidden_size=4, seed=1)
    args = (MEDIUM_PRESETS[medium],)
    batch = run_batch(names, *args, n_trials=n, seed=seed, model=model)
    alone = run_batch([name], *args, n_trials=n_alone, seed=seed,
                      model=model)[k]
    paired = batch[k * len(names) + names.index(name)]
    assert (paired.estimator, alone.episode_id) == (name, k)
    for key in (f.name for f in dataclasses.fields(paired)
                if f.name != "episode_id"):
        a, b = getattr(paired, key), getattr(alone, key)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key
        else:
            assert a == b, key


# ------------------------------------------------------------------ histogram

def test_histogram_single_bin_mass():
    edges, counts = histogram(np.array([2.2, 2.4, 2.6, 2.8]) * BIN_WIDTH)
    assert counts.sum() == 4
    assert counts[2] == 4  # all in [2, 3) bin widths


def test_histogram_total_equals_timesteps():
    rng = np.random.default_rng(19)
    values = rng.uniform(0.0, math.pi, size=rng.integers(35, 280))
    edges, counts = histogram(values)
    assert counts.sum() == len(values)
    assert edges[0] == 0.0 and edges[-1] >= math.pi


def test_histogram_matches_naive_binning():
    rng = np.random.default_rng(23)
    values = np.append(rng.uniform(0.0, math.pi, size=150), math.pi)
    edges, counts = histogram(values)
    naive = np.zeros(len(counts), dtype=int)
    for v in values:
        for b in range(len(counts)):
            if edges[b] <= v < edges[b + 1] or (
                    b == len(counts) - 1 and v == edges[-1]):
                naive[b] += 1
                break
    assert np.array_equal(counts, naive)


# -------------------------------------------------------------------- reports

@pytest.fixture(scope="module")
def reported_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("eval") / "run"
    records = run_batch(
        ["truth", "ekf"], rigid_variant(GELATIN), n_trials=2, seed=29)
    report(records, out)
    return out, records


def test_report_layout(reported_dir):
    out, records = reported_dir
    written = {p.relative_to(out).as_posix() for p in out.rglob("*")}
    assert written == {"trials", "trials/summaries.csv",
                       "trials/episodes.jsonl", "report.txt", "histogram.csv"}
    text = (out / "report.txt").read_text()
    assert "[gelatin / truth]" in text and "[gelatin / ekf]" in text


def test_report_summary_rows_match_trials(reported_dir):
    out, records = reported_dir
    with open(out / "trials" / "summaries.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records)
    by_id = {r.episode_id: r for r in records}
    for row in rows:
        r = by_id[int(row["trial_id"])]
        assert row["estimator"] == r.estimator
        assert float(row["targeting_error_mm"]) == r.final_error
        assert float(row["mean_angular_error_rad"]) == np.mean(r.angular_error)


def test_group_stats_give_the_numbers_report_prints(reported_dir):
    """report.txt and histogram.csv format group_stats and nothing else;
    its per-step statistics run over every step of a group."""
    out, records = reported_dir
    stats = group_stats(records)
    assert [(s.medium, s.estimator) for s in stats] == [
        ("gelatin", "ekf"), ("gelatin", "truth")]
    text = (out / "report.txt").read_text()
    for s in stats:
        group = [r for r in records if r.estimator == s.estimator]
        assert s.trials == len(group) == 2
        assert s.error_max == max(r.final_error for r in group)
        assert s.angular_mean == np.mean(
            np.concatenate([r.angular_error for r in group]))
        assert (
            f"[{s.medium} / {s.estimator}]\n"
            f"  trials: {s.trials} ({s.arrived} arrived), "
            f"mean steps {s.mean_steps:.1f}\n"
            f"  targeting error: mean {s.error_mean:.4f} mm, "
            f"median {s.error_median:.4f} mm, max {s.error_max:.4f} mm\n"
            f"  per-step angular error: mean {s.angular_mean:.4f} rad, "
            f"median {s.angular_median:.4f} rad\n"
            f"  per-step roll error:    mean {s.roll_mean:.4f} rad\n"
        ) in text
    with open(out / "histogram.csv", newline="") as fh:
        counts = [int(row["count"]) for row in csv.DictReader(fh)]
    assert counts == [c for s in stats for c in s.histogram]


def test_report_mean_omega_matches_persisted_trace(reported_dir):
    out, records = reported_dir
    with open(out / "trials" / "episodes.jsonl") as fh:
        persisted = {rec.episode_id: rec for rec in map(record_from_line, fh)}
    for r in records:
        mean = float(np.mean(persisted[r.episode_id].angular_error))
        assert mean == np.mean(r.angular_error)


@pytest.fixture(scope="module")
def reported_lstm_dir(tmp_path_factory):
    """A compliant-medium batch with the learned estimator among the
    three, on a seeded untrained model."""
    out = tmp_path_factory.mktemp("eval_lstm") / "run"
    records = run_batch(
        ["truth", "ekf", "lstm"], GELATIN, n_trials=2, seed=31,
        model=init_model(75.0, hidden_size=4, seed=2))
    report(records, out)
    return out, records


def test_report_regeneration_is_byte_identical(reported_dir,
                                               reported_lstm_dir):
    """report writes the trial file and renders its views by reading it
    back; rendering them again from that file gives the same bytes, with
    and without learned-estimator trials in the batch."""
    views = ("trials/summaries.csv", "histogram.csv", "report.txt")
    for out, _ in (reported_dir, reported_lstm_dir):
        before = [(out / name).read_bytes() for name in views]
        render_report(out)
        assert [(out / name).read_bytes() for name in views] == before


def test_report_rejects_records_render_report_would_not_read(reported_dir,
                                                             tmp_path):
    """report checks no record itself: it writes the trial file, and the
    read back rejects no records, trial ids other than 0 to n-1 and
    records without the estimator columns, as a DatasetError naming the
    file and the first line out of place, before any view is written."""
    _, records = reported_dir
    shifted = [dataclasses.replace(r, episode_id=r.episode_id + 1)
               for r in records]
    repeated = records + records[:1]
    bare = [dataclasses.replace(r, roll_est=None) for r in records]
    for name, bad, expect in (
            ("empty", [], "no trial records"),
            ("shifted", shifted, "line 1 holds record 1, not record 0"),
            ("repeated", repeated, "line 2 holds record 0, not record 1"),
            ("bare", bare, "line 1 has no estimator/roll_est/angular_error "
                           "columns: it is a dataset episode line")):
        out = tmp_path / name
        trials = out / "trials" / "episodes.jsonl"
        with pytest.raises(DatasetError,
                           match=re.escape(f"{trials}: {expect}")):
            report(bad, out)
        assert trials.read_text() == "".join(
            record_to_line(r) + "\n"
            for r in sorted(bad, key=lambda r: r.episode_id))
        assert {p.relative_to(out).as_posix() for p in out.rglob("*")} == {
            "trials", "trials/episodes.jsonl"}


def _strip_estimator_columns(text):
    docs = [json.loads(line) for line in text.splitlines()]
    for doc in docs:
        del doc["roll_est"], doc["angular_error"]
    return "".join(json.dumps(doc) + "\n" for doc in docs)


@pytest.mark.parametrize("damage, expect", [
    (_strip_estimator_columns, "it is a dataset episode line, not a trial "
                               "line"),
], ids=["no_estimator_columns"])
def test_render_report_rejects_inconsistent_trial_files(reported_dir, tmp_path,
                                                        damage, expect):
    out = tmp_path / "run"
    shutil.copytree(reported_dir[0], out)
    path = out / "trials" / "episodes.jsonl"
    path.write_text(damage(path.read_text()))
    (out / "report.txt").unlink()
    with pytest.raises(DatasetError, match=expect):
        render_report(out)
    assert not (out / "report.txt").exists()


def test_report_episodes_roundtrip(reported_dir):
    out, records = reported_dir
    with open(out / "trials" / "episodes.jsonl") as fh:
        loaded = [record_from_line(line) for line in fh]
    assert len(loaded) == len(records)
    assert [r.episode_id for r in loaded] == sorted(r.episode_id
                                                    for r in records)


def test_histogram_csv_mass_conservation(reported_dir):
    out, records = reported_dir
    with open(out / "histogram.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    total = sum(int(r["count"]) for r in rows)
    assert total == sum(r.steps for r in records)
