import copy
import json
import math
import struct
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from needleroll.lstm import (
    LENGTH_POOL,
    PARAM_NAMES,
    POSITION_WINDOW,
    PROGRESS_EVERY,
    Adam,
    DegenerateOutput,
    Diverged,
    Dropout,
    LstmModel,
    RollEstimator,
    TrainConfig,
    Workspace,
    _endpoint_fit,
    _forward_batch,
    _length_sorted_batches,
    _pad_batch,
    backward,
    batch_loss,
    estimate_roll,
    forward_step,
    init_model,
    load_model,
    param_shapes,
    run_sequence,
    save_model,
    scale_features,
    sequence_rmse,
    train,
    zero_state,
)
from needleroll.plant import SensedTip
from oracles import (
    backward_matmul,
    endpoint_fit,
    forward_batch_matmul,
    forward_step_matmul,
    model_file_dumps,
    roll_target,
)


def small_model(hidden=4, seed=3):
    return init_model(hidden_size=hidden, z_max=75.0, seed=seed)


def random_sequences(rng, count, t_min, t_max, input_size=8):
    seqs = []
    for _ in range(count):
        t = int(rng.integers(t_min, t_max + 1))
        xs = rng.uniform(-1.0, 1.0, size=(t, input_size))
        angles = np.cumsum(rng.uniform(-0.3, 0.3, size=t))
        ys = np.column_stack([np.sin(angles), np.cos(angles)])
        seqs.append((xs, ys))
    return seqs


# ------------------------------------------------------------------ features

def test_scale_features_reference_point():
    x = scale_features([0.0, 0.0, 75.0], [0.0, 0.0, 1.0], 0.0, 75.0)
    assert np.allclose(x, [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0])


def test_scale_features_angle_encoding_periodic():
    a = scale_features([1.0, 2.0, 3.0], [0.0, 0.0, 1.0], math.pi, 75.0)
    b = scale_features([1.0, 2.0, 3.0], [0.0, 0.0, 1.0], 7.0 * math.pi, 75.0)
    assert np.allclose(a, b, atol=1e-12)
    s, c = a[6], a[7]
    assert s * s + c * c == pytest.approx(1.0, abs=1e-12)


def test_scale_features_rejects_bad_scale():
    with pytest.raises(ValueError):
        scale_features([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], 0.0, 0.0)


def test_roll_target_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(100):
        y = roll_target(rng.uniform(-10.0, 10.0))
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)


def test_estimate_roll_basic_angles():
    assert estimate_roll([0.0, 1.0]) == pytest.approx(0.0)
    assert estimate_roll([1.0, 0.0]) == pytest.approx(math.pi / 2.0)
    assert estimate_roll([0.6, 0.8]) == pytest.approx(estimate_roll([0.3, 0.4]))
    assert estimate_roll([0.0, -1.0]) == pytest.approx(math.pi)


def test_estimate_roll_degenerate():
    with pytest.raises(DegenerateOutput):
        estimate_roll([1e-7, -1e-7])


def test_roll_roundtrip_through_encoding():
    rng = np.random.default_rng(1)
    for _ in range(200):
        roll = rng.uniform(-math.pi, math.pi)
        assert estimate_roll(roll_target(roll)) == pytest.approx(roll, abs=1e-12)


# ------------------------------------------------------------------- forward

def test_zero_model_outputs_bias():
    m = small_model()
    for _, arr in m.params():
        arr[...] = 0.0
    m.b_out[...] = np.array([0.3, -0.7])
    _, y = forward_step(m, zero_state(m.hidden_size), np.zeros(8))
    assert np.allclose(y, [0.3, -0.7])


def reference_forward(model, xs):
    """Second, deliberately plain implementation: python scalar loops."""
    h_size = model.hidden_size

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = [0.0] * h_size
    c = [0.0] * h_size
    out = []
    for x in xs:
        z = []
        for r in range(4 * h_size):
            acc = model.b_g[r]
            for j in range(model.w_x.shape[1]):
                acc += model.w_x[r, j] * x[j]
            for j in range(h_size):
                acc += model.w_h[r, j] * h[j]
            z.append(acc)
        gi = [sig(z[r]) for r in range(h_size)]
        gf = [sig(z[h_size + r]) for r in range(h_size)]
        gg = [math.tanh(z[2 * h_size + r]) for r in range(h_size)]
        go = [sig(z[3 * h_size + r]) for r in range(h_size)]
        c = [gf[r] * c[r] + gi[r] * gg[r] for r in range(h_size)]
        h = [go[r] * math.tanh(c[r]) for r in range(h_size)]
        act = []
        for r in range(h_size):
            acc = model.b_fc[r]
            for j in range(h_size):
                acc += model.w_fc[r, j] * h[j]
            act.append(math.tanh(acc))
        y = []
        for r in range(2):
            acc = model.b_out[r]
            for j in range(h_size):
                acc += model.w_out[r, j] * act[j]
            y.append(acc)
        out.append(y)
    return np.array(out)


def test_forward_matches_independent_reference():
    rng = np.random.default_rng(3)
    m = small_model(hidden=5, seed=9)
    xs = rng.uniform(-1.0, 1.0, size=(12, 8))
    ours = run_sequence(m, xs)
    ref = reference_forward(m, xs)
    assert np.abs(ours - ref).max() < 1e-12


def test_batched_forward_matches_streaming_path():
    rng = np.random.default_rng(4)
    m = small_model(hidden=7, seed=5)
    seqs = random_sequences(rng, 5, 4, 20)
    xs, ys, mask = _pad_batch(seqs)
    cache = _forward_batch(m, xs)
    for k, (x_seq, _) in enumerate(seqs):
        offline = run_sequence(m, x_seq)
        assert np.abs(cache["y"][:len(x_seq), k] - offline).max() < 1e-12


def test_dropout_mask_is_one_draw_of_the_per_step_stream():
    """The (T, B, H) mask equals T consecutive (B, H) draws, each
    thresholded at the keep probability and scaled by its inverse, so the
    dropout stream does not depend on how the draw is batched."""
    m = small_model(hidden=5)
    rate = 0.3
    xs = np.random.default_rng(20).uniform(-1, 1, size=(7, 3, 8))
    cache = _forward_batch(m, xs,
                           dropout=Dropout(rate, np.random.default_rng(21)))
    rng = np.random.default_rng(21)
    keep = 1.0 - rate
    per_step = np.stack([(rng.uniform(size=(3, 5)) < keep) / keep
                         for _ in range(7)])
    assert np.array_equal(cache["drop"], per_step)


# ---------------------------------------------------------------------- loss

def test_loss_zero_on_exact_match():
    pred = np.ones((2, 5, 2))
    mask = np.ones((2, 5))
    rmse, sse, n = batch_loss(pred, pred.copy(), mask)
    assert rmse == 0.0 and sse == 0.0 and n == 20


def test_loss_constant_offset():
    target = np.zeros((1, 6, 2))
    pred = target + 0.1
    mask = np.ones((1, 6))
    rmse, _, _ = batch_loss(pred, target, mask)
    assert rmse == pytest.approx(0.1, abs=1e-12)


def test_loss_matches_two_pass_reference():
    rng = np.random.default_rng(5)
    pred = rng.normal(size=(3, 8, 2))
    target = rng.normal(size=(3, 8, 2))
    mask = (rng.uniform(size=(3, 8)) < 0.7).astype(float)
    mask[:, 0] = 1.0
    rmse, _, _ = batch_loss(pred, target, mask)
    acc = []
    for b in range(3):
        for t in range(8):
            if mask[b, t]:
                acc.extend((pred[b, t] - target[b, t]) ** 2)
    assert rmse == pytest.approx(math.sqrt(sum(acc) / len(acc)), abs=1e-12)


# ----------------------------------------------------------------- gradients

def _batch_rmse(model, xs, ys, mask):
    cache = _forward_batch(model, xs)
    rmse, _, _ = batch_loss(cache["y"], ys, mask)
    return rmse


def test_gradients_match_central_finite_differences():
    """Every parameter of a hidden-size-4, length-7 instance: analytic BPTT
    against central differences with 1e-5 perturbation, relative error
    below 1e-5."""
    rng = np.random.default_rng(6)
    model = small_model(hidden=4, seed=11)
    seqs = random_sequences(rng, 2, 5, 7)
    xs, ys, mask = _pad_batch(seqs)
    cache = _forward_batch(model, xs)
    grads, rmse, _, _ = backward(model, cache, ys, mask)
    assert rmse > 0.0
    eps = 1e-5
    for name, arr in model.params():
        g = grads[name]
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = _batch_rmse(model, xs, ys, mask)
            flat[idx] = keep - eps
            down = _batch_rmse(model, xs, ys, mask)
            flat[idx] = keep
            fd = (up - down) / (2.0 * eps)
            a = g.reshape(-1)[idx]
            rel = abs(a - fd) / max(1e-8, abs(a) + abs(fd))
            assert rel < 1e-5, f"{name}[{idx}]: analytic {a} vs fd {fd}"


def test_gradients_with_dropout_match_finite_differences():
    # fixed dropout masks across evaluations: seed the generator identically
    rng = np.random.default_rng(7)
    model = small_model(hidden=4, seed=13)
    seqs = random_sequences(rng, 2, 4, 6)
    xs, ys, mask = _pad_batch(seqs)

    def loss_with_masks():
        cache = _forward_batch(model, xs,
                               dropout=Dropout(0.4, np.random.default_rng(99)))
        rmse, _, _ = batch_loss(cache["y"], ys, mask)
        return cache, rmse

    cache, _ = loss_with_masks()
    grads, _, _, _ = backward(model, cache, ys, mask)
    eps = 1e-5
    for name, arr in model.params():
        flat = arr.reshape(-1)
        for idx in range(0, flat.size, 7):  # spot-check a subset per tensor
            keep = flat[idx]
            flat[idx] = keep + eps
            up = loss_with_masks()[1]
            flat[idx] = keep - eps
            down = loss_with_masks()[1]
            flat[idx] = keep
            fd = (up - down) / (2.0 * eps)
            a = grads[name].reshape(-1)[idx]
            rel = abs(a - fd) / max(1e-8, abs(a) + abs(fd))
            assert rel < 1e-5, f"{name}[{idx}]"


def test_padding_content_does_not_affect_gradients():
    rng = np.random.default_rng(8)
    model = small_model(hidden=4, seed=17)
    seqs = random_sequences(rng, 2, 3, 7)
    xs, ys, mask = _pad_batch(seqs)
    cache = _forward_batch(model, xs)
    grads_a, *_ = backward(model, cache, ys, mask)
    xs2 = xs.copy()
    ys2 = ys.copy()
    xs2[mask == 0.0] = 123.0  # garbage in the padded region
    ys2[mask == 0.0] = -55.0
    cache2 = _forward_batch(model, xs2)
    grads_b, *_ = backward(model, cache2, ys2, mask)
    for name, _ in model.params():
        assert np.allclose(grads_a[name], grads_b[name], atol=1e-12)


def test_gradients_zero_at_exact_fit():
    model = small_model(hidden=4, seed=19)
    xs = np.random.default_rng(9).uniform(-1, 1, size=(5, 1, 8))
    mask = np.ones((5, 1))
    cache = _forward_batch(model, xs)
    grads, rmse, _, _ = backward(model, cache, cache["y"].copy(), mask)
    assert rmse == 0.0
    for name, _ in model.params():
        assert np.all(grads[name] == 0.0)


def test_scaled_loss_scales_gradients():
    # gradients of 2*loss are twice the gradients of loss (checked by FD)
    rng = np.random.default_rng(10)
    model = small_model(hidden=4, seed=23)
    seqs = random_sequences(rng, 1, 6, 6)
    xs, ys, mask = _pad_batch(seqs)
    cache = _forward_batch(model, xs)
    grads, *_ = backward(model, cache, ys, mask)
    eps = 1e-5
    flat = model.w_fc.reshape(-1)
    for idx in (0, 5, 11):
        keep = flat[idx]
        flat[idx] = keep + eps
        up = 2.0 * _batch_rmse(model, xs, ys, mask)
        flat[idx] = keep - eps
        down = 2.0 * _batch_rmse(model, xs, ys, mask)
        flat[idx] = keep
        fd = (up - down) / (2.0 * eps)
        assert fd == pytest.approx(2.0 * grads["w_fc"].reshape(-1)[idx], rel=1e-4)


def reference_bptt(model, seqs, drops):
    """Plain per-sequence, per-timestep BPTT of the batch RMSE under given
    dropout masks (one (steps, H) array per sequence): the loop the batched
    time-major backward must agree with. Returns (grads, rmse)."""
    h_size = model.hidden_size

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    runs = []
    for (xs, _), drop in zip(seqs, drops):
        h = np.zeros(h_size)
        c = np.zeros(h_size)
        steps = []
        for x, d in zip(xs, drop):
            z = model.w_x @ x + model.w_h @ h + model.b_g
            s = {"x": x, "h_prev": h, "c_prev": c, "drop": d,
                 "i": sig(z[:h_size]), "f": sig(z[h_size:2 * h_size]),
                 "g": np.tanh(z[2 * h_size:3 * h_size]),
                 "o": sig(z[3 * h_size:])}
            c = s["f"] * c + s["i"] * s["g"]
            s["tc"] = np.tanh(c)
            h = s["o"] * s["tc"]
            s["h"] = h
            s["act"] = np.tanh(model.w_fc @ h + model.b_fc)
            s["y"] = model.w_out @ (s["act"] * d) + model.b_out
            steps.append(s)
        runs.append(steps)
    sse = sum(float(np.sum((s["y"] - y) ** 2))
              for steps, (_, ys) in zip(runs, seqs) for s, y in zip(steps, ys))
    n = 2.0 * sum(len(xs) for xs, _ in seqs)
    rmse = math.sqrt(sse / n)

    grads = {name: np.zeros_like(arr) for name, arr in model.params()}
    for steps, (_, ys) in zip(runs, seqs):
        d_h_next = np.zeros(h_size)
        d_c_next = np.zeros(h_size)
        for s, y in reversed(list(zip(steps, ys))):
            d_y = (s["y"] - y) / (n * rmse)
            grads["w_out"] += np.outer(d_y, s["act"] * s["drop"])
            grads["b_out"] += d_y
            d_pre = (model.w_out.T @ d_y) * s["drop"] * (1.0 - s["act"] ** 2)
            grads["w_fc"] += np.outer(d_pre, s["h"])
            grads["b_fc"] += d_pre
            d_h = model.w_fc.T @ d_pre + d_h_next
            d_c = d_h * s["o"] * (1.0 - s["tc"] ** 2) + d_c_next
            i, f, g, o = s["i"], s["f"], s["g"], s["o"]
            d_z = np.concatenate([
                d_c * g * i * (1.0 - i),
                d_c * s["c_prev"] * f * (1.0 - f),
                d_c * i * (1.0 - g * g),
                d_h * s["tc"] * o * (1.0 - o),
            ])
            grads["w_x"] += np.outer(d_z, s["x"])
            grads["w_h"] += np.outer(d_z, s["h_prev"])
            grads["b_g"] += d_z
            d_h_next = model.w_h.T @ d_z
            d_c_next = d_c * f
    return grads, rmse


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8),
       hidden=st.integers(1, 6), dropout=st.floats(0.0, 0.5),
       seed=st.integers(0, 2 ** 16))
@example(lengths=[12, 3, 9, 1], hidden=30, dropout=0.2, seed=7)
def test_ragged_batch_matches_per_sequence_references(lengths, hidden,
                                                      dropout, seed):
    """Ragged batches up to 8 wide: the batched forward agrees with
    run_sequence and the batched backward with reference_bptt, both within
    1e-12."""
    rng = np.random.default_rng(seed)
    model = small_model(hidden=hidden, seed=seed)
    seqs = [(rng.uniform(-1.0, 1.0, size=(n, 8)),
             rng.uniform(-1.0, 1.0, size=(n, 2))) for n in lengths]
    xs, ys, mask = _pad_batch(seqs)
    assert xs.shape == (max(lengths), len(lengths), 8)

    cache = _forward_batch(model, xs)
    for k, (x_seq, _) in enumerate(seqs):
        offline = run_sequence(model, x_seq)
        assert np.abs(cache["y"][:len(x_seq), k] - offline).max() <= 1e-12

    cache = _forward_batch(
        model, xs, dropout=Dropout(dropout, np.random.default_rng(seed + 1)))
    drops = [cache["drop"][:n, k].copy() for k, n in enumerate(lengths)]
    grads, rmse, _, _ = backward(model, cache, ys, mask)
    ref, ref_rmse = reference_bptt(model, seqs, drops)
    assert rmse == pytest.approx(ref_rmse, rel=1e-12)
    for name, _ in model.params():
        err = np.abs(grads[name] - ref[name]).max()
        assert err <= 1e-12 * np.abs(ref[name]).max(), name


def test_reused_workspace_matches_fresh_arrays_bitwise():
    """A long wide batch, a shorter narrower one, then a validation-sized
    chunk, all through one Workspace: the cached outputs, the loss and
    every gradient equal the same call on fresh arrays bit for bit, so no
    call reads what an earlier, larger batch left in the buffers."""
    rng = np.random.default_rng(41)
    model = small_model(hidden=30, seed=41)
    chunks = [(random_sequences(rng, 8, 40, 50), True),
              (random_sequences(rng, 3, 5, 12), True),
              (random_sequences(rng, 20, 5, 15), False)]
    shared = Workspace()
    for k, (seqs, train_mode) in enumerate(chunks):
        runs = []
        for workspace in (shared, None):
            xs, ys, mask = _pad_batch(seqs, workspace)
            dropout = (Dropout(0.25, np.random.default_rng(k))
                       if train_mode else None)
            cache = _forward_batch(model, xs, dropout=dropout,
                                   workspace=workspace)
            y = cache["y"].copy()
            grads, *loss = backward(model, cache, ys, mask)
            runs.append((y, grads, loss))
        (y_shared, grads_shared, loss_shared), fresh = runs
        y_fresh, grads_fresh, loss_fresh = fresh
        assert y_shared.tobytes() == y_fresh.tobytes()
        assert loss_shared == loss_fresh
        for name, _ in model.params():
            assert grads_shared[name].tobytes() == grads_fresh[name].tobytes()
    val = chunks[2][0]
    assert sequence_rmse(model, val, shared) == sequence_rmse(model, val)


@pytest.mark.parametrize("rate", [None, 0.2])
@pytest.mark.parametrize("width", [1, 3, 8, 10, 32])
@pytest.mark.parametrize("hidden", [1, 2, 8, 30, 32])
def test_training_pass_is_its_matmul_formula_bitwise(hidden, width, rate):
    """_forward_batch's and backward's ndarray.dot products and positional
    ufunc outputs give the bits of their np.matmul formulas: every cache
    array, the loss and every gradient, on ragged batches at hidden sizes
    and widths around the shipped 30 and 8, with dropout (one generator
    seed on both sides) and without, as validation runs. A numpy or BLAS
    whose dot and matmul round differently fails here."""
    model = init_model(75.0, hidden_size=hidden, seed=hidden)
    xs, ys, mask = _pad_batch(random_sequences(
        np.random.default_rng([hidden, width]), width, 1, 24))
    runs = []
    for forward, back in ((_forward_batch, backward),
                          (forward_batch_matmul, backward_matmul)):
        dropout = (None if rate is None
                   else Dropout(rate, np.random.default_rng(width)))
        cache = forward(model, xs, dropout=dropout)
        arrays = {name: value.tobytes() for name, value in cache.items()
                  if isinstance(value, np.ndarray)}
        grads, *loss = back(model, cache, ys, mask)
        runs.append((arrays, {name: g.tobytes() for name, g in grads.items()},
                     loss))
    (arrays, grads, loss), (arrays_ref, grads_ref, loss_ref) = runs
    assert arrays.keys() == arrays_ref.keys()
    for name in arrays:
        assert arrays[name] == arrays_ref[name], name
    assert loss == loss_ref
    assert grads.keys() == set(PARAM_NAMES) == grads_ref.keys()
    for name in PARAM_NAMES:
        assert grads[name] == grads_ref[name], name


# --------------------------------------------------------------------- adam

def test_adam_first_step_is_signed_learning_rate():
    model = small_model(hidden=4, seed=29)
    before = {name: arr.copy() for name, arr in model.params()}
    grads = {name: np.sign(np.random.default_rng(11).normal(size=arr.shape)) * 2.0
             for name, arr in model.params()}
    opt = Adam(model, learning_rate=1e-3)
    opt.apply(model, grads)
    for name, arr in model.params():
        step = before[name] - arr
        # first bias-corrected step is lr * g/(|g| + eps) ~= lr * sign(g)
        assert np.allclose(step, 1e-3 * np.sign(grads[name]), rtol=1e-6)


# ----------------------------------------------------------------- training

def toy_training_sequences():
    t = np.arange(80)
    xs = np.column_stack([
        np.sin(0.07 * t), np.cos(0.07 * t), t / 80.0,
        np.sin(0.21 * t), np.cos(0.21 * t), np.ones_like(t, dtype=float) * 0.3,
        np.sin(0.04 * t), np.cos(0.04 * t),
    ])
    angle = 0.9 * np.sin(0.07 * t) + 0.2 * np.sin(0.21 * t)
    ys = np.column_stack([np.sin(angle), np.cos(angle)])
    return [(xs, ys)]


def test_overfit_single_episode():
    seqs = toy_training_sequences()
    config = TrainConfig(epochs=2000, batch_size=1, hidden_size=8,
                         dropout_rate=0.0, seed=1)
    model, log = train(seqs, seqs, config, 75.0)
    best = min(row.val_rmse for row in log)
    assert best < 0.02
    assert model.metadata["best_val_rmse"] == pytest.approx(best)


def test_training_log_deterministic(tmp_path):
    """Same seed, same log and same model file bytes, over more training
    sequences than one length pool holds."""
    rng = np.random.default_rng(12)
    seqs = random_sequences(rng, LENGTH_POOL + 6, 5, 25)
    config = TrainConfig(epochs=3, batch_size=3, hidden_size=4,
                         dropout_rate=0.2, seed=7)
    logs = []
    for name in ("a", "b"):
        model, log = train(seqs[:-2], seqs[-2:], config, 75.0)
        save_model(model, tmp_path / f"{name}.json")
        logs.append(log)
    assert logs[0] == logs[1]
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_returned_model_is_best_on_validation():
    rng = np.random.default_rng(13)
    seqs = random_sequences(rng, 8, 10, 30)
    config = TrainConfig(epochs=6, batch_size=3, hidden_size=6,
                         dropout_rate=0.1, seed=3)
    model, log = train(seqs[:6], seqs[6:], config, 75.0)
    vals = [row.val_rmse for row in log]
    assert sequence_rmse(model, seqs[6:]) == pytest.approx(min(vals), abs=1e-12)
    running = np.minimum.accumulate(vals)
    assert np.all(np.diff(running) <= 0.0 + 1e-15)


def _padded_steps(batches, lengths):
    return sum(len(batch) * max(lengths[k] for k in batch) for batch in batches)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=100),
       seed=st.integers(0, 2 ** 16), batch_size=st.integers(1, 12))
def test_length_sorted_batches_sort_each_shuffled_pool(lengths, seed,
                                                       batch_size):
    n = len(lengths)
    order = np.random.default_rng(seed).permutation(n)
    batches = _length_sorted_batches(order, lengths, batch_size)
    assert len(batches) == math.ceil(n / batch_size)
    assert all(len(batch) == batch_size for batch in batches[:-1])
    ordered = np.concatenate(batches)
    assert sorted(ordered.tolist()) == list(range(n))  # each index once
    for start in range(0, n, LENGTH_POOL):
        pool = ordered[start:start + LENGTH_POOL].tolist()
        assert sorted(pool) == sorted(order[start:start + LENGTH_POOL].tolist())
        pool_lengths = [lengths[k] for k in pool]
        assert pool_lengths == sorted(pool_lengths)

    # a pool cut into whole batches never pads more than the shuffled
    # order did, so neither does an epoch of whole batches; a pool ending
    # in the short batch can (lengths 8 x 100 then 1, batch 8: 801 steps
    # shuffled, 900 sorted)
    if LENGTH_POOL % batch_size == 0:
        whole = n if n % batch_size == 0 else n - n % LENGTH_POOL
        for start in range(0, whole, LENGTH_POOL):
            stop = min(start + LENGTH_POOL, n)
            shuffled = [order[k:k + batch_size]
                        for k in range(start, stop, batch_size)]
            first = start // batch_size
            assert _padded_steps(batches[first:first + len(shuffled)],
                                 lengths) <= _padded_steps(shuffled, lengths)


def test_train_reports_progress_on_stderr_only(capsys):
    seqs = random_sequences(np.random.default_rng(14), 5, 4, 8)
    epochs = PROGRESS_EVERY + 3
    config = TrainConfig(epochs=epochs, batch_size=2, hidden_size=3, seed=2)
    _, log = train(seqs[:4], seqs[4:], config, 75.0)
    out, err = capsys.readouterr()
    assert out == ""
    best = np.minimum.accumulate([row.val_rmse for row in log])
    assert err.splitlines() == [
        f"epoch {k}/{epochs}: train loss {log[k - 1].train_loss:.4f}, "
        f"val RMSE {log[k - 1].val_rmse:.4f}, best {best[k - 1]:.4f}"
        for k in (PROGRESS_EVERY, epochs)]


def test_train_raises_on_nonfinite_loss():
    xs = np.zeros((5, 8))
    ys = np.full((5, 2), np.inf)
    with pytest.raises(Diverged):
        train([(xs, ys)], [(xs, ys)], TrainConfig(epochs=1, hidden_size=4),
              75.0)


def test_train_rejects_empty_sets():
    with pytest.raises(ValueError):
        train([], [], TrainConfig(epochs=1), 75.0)
    for rate in (-0.1, 1.0, math.nan):
        with pytest.raises(ValueError, match="dropout rate must be in"):
            TrainConfig(dropout_rate=rate)
    for name in ("epochs", "batch_size", "hidden_size"):
        with pytest.raises(ValueError, match="must be at least 1"):
            TrainConfig(**{name: 0})


def test_base_angle_periodicity_end_to_end():
    m = small_model(hidden=6, seed=31)
    rng = np.random.default_rng(14)
    pos = rng.uniform(0.0, 30.0, size=(15, 3))
    heading = np.tile([0.0, 0.0, 1.0], (15, 1))
    alphas = rng.uniform(-3.0, 3.0, size=15)
    xs_a = np.array([scale_features(p, h, a, 75.0)
                     for p, h, a in zip(pos, heading, alphas)])
    xs_b = np.array([scale_features(p, h, a + 6.0 * math.pi, 75.0)
                     for p, h, a in zip(pos, heading, alphas)])
    assert np.abs(run_sequence(m, xs_a) - run_sequence(m, xs_b)).max() < 1e-12


# ------------------------------------------------------------- streaming API

def test_streaming_matches_offline_bitwise():
    m = small_model(hidden=6, seed=37)
    rng = np.random.default_rng(15)
    est = RollEstimator(m)
    measures = []
    alphas = []
    for t in range(40):
        measures.append(SensedTip(position=rng.uniform(0, 50, size=3),
                                  heading=_unit(rng.normal(size=3))))
        alphas.append(rng.uniform(-5, 5))
    online = []
    for meas, alpha in zip(measures, alphas):
        est.estimate(meas, alpha)
        online.append(est.last_roll)
    xs = np.array([scale_features(m_.position, m_.heading, a, m.z_max)
                   for m_, a in zip(measures, alphas)])
    offline = run_sequence(m, xs)
    offline_rolls = [estimate_roll(y) for y in offline]
    assert online == offline_rolls  # bit-identical, same code path


def _unit(v):
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    if v[2] < 0:
        v = -v
    return v


def test_streaming_reset_zeroes_state():
    m = small_model(hidden=6, seed=41)
    est = RollEstimator(m)
    meas = SensedTip(position=np.array([1.0, 2.0, 3.0]), heading=np.array([0.0, 0.0, 1.0]))
    first = est.estimate(meas, 0.3)
    est.estimate(meas, 1.0)
    est.reset()
    assert np.all(est.state.hidden == 0.0) and np.all(est.state.cell == 0.0)
    again = est.estimate(meas, 0.3)
    assert first == again


def test_streaming_pose_carries_sensed_heading_and_estimated_roll():
    from needleroll.se3 import decompose_roll

    m = small_model(hidden=6, seed=43)
    est = RollEstimator(m)
    heading = _unit(np.array([0.2, -0.1, 0.95]))
    meas = SensedTip(position=np.array([5.0, -2.0, 40.0]), heading=heading)
    rows, p = est.estimate(meas, 1.2)
    eta, roll = decompose_roll(rows)
    assert np.allclose(eta, heading, atol=1e-9)
    assert roll == pytest.approx(est.last_roll, abs=1e-12)
    assert np.allclose(p, meas.position)


def test_windowed_position_fit_matches_deque_path_bitwise():
    m = small_model(hidden=4, seed=53)
    rng = np.random.default_rng(17)
    est = RollEstimator(m)
    recent = deque(maxlen=POSITION_WINDOW)
    ticks = 2 * POSITION_WINDOW + 5
    returned, expected = [], []
    for t in range(2 * ticks):
        if t == ticks:
            est.reset()
            recent.clear()
        position = rng.normal(0.0, 30.0, size=3)
        _, p = est.estimate(SensedTip(position=position,
                                      heading=_unit(rng.normal(size=3))),
                            rng.uniform(-5, 5))
        recent.append(np.asarray(position, dtype=float))
        returned.append(p)
        expected.append(endpoint_fit(list(recent)))
    # checked at the end: no returned position aliases the window buffer
    for p, ref in zip(returned, expected):
        assert struct.pack("<3d", *p) == struct.pack("<3d", *ref)


@pytest.mark.parametrize("hidden", [1, 2, 8, 30, 32])
def test_forward_step_is_its_matmul_formula_bitwise(hidden):
    """forward_step's ndarray.dot products give the bits of their @
    formulas, step after step, at hidden sizes from 1 past the shipped 30:
    a numpy whose dot and matmul round differently fails here."""
    m = init_model(75.0, hidden_size=hidden, seed=hidden)
    rng = np.random.default_rng(hidden)
    state = zero_state(hidden)
    for _ in range(60):
        x = scale_features(rng.normal(0.0, 30.0, size=3),
                           _unit(rng.normal(size=3)), rng.uniform(-5, 5),
                           m.z_max)
        (hidden_ref, cell_ref), y_ref = forward_step_matmul(m, state, x)
        state, y = forward_step(m, state, x)
        assert state.hidden.tobytes() == hidden_ref.tobytes()
        assert state.cell.tobytes() == cell_ref.tobytes()
        assert y.tobytes() == y_ref.tobytes()


def test_endpoint_fit_is_its_matmul_formula_bitwise():
    """_endpoint_fit's ndarray.dot slope gives the bits of its @ formula on
    windows of 3 to POSITION_WINDOW rows, both as a lone array and as the
    view of the estimator's mirrored ring that it reads."""
    rng = np.random.default_rng(19)
    ring = rng.normal(0.0, 30.0, size=(2 * POSITION_WINDOW, 3))
    for n in range(3, POSITION_WINDOW + 1):
        for start in range(len(ring) - n + 1):
            window = ring[start:start + n]
            for stack in (window, window.copy()):
                assert _endpoint_fit(stack).tobytes() == \
                    endpoint_fit(stack).tobytes()


def test_streaming_degenerate_output_propagates():
    m = small_model(hidden=4)
    for _, arr in m.params():
        arr[...] = 0.0
    est = RollEstimator(m)
    meas = SensedTip(position=np.zeros(3), heading=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DegenerateOutput):
        est.estimate(meas, 0.0)


# ------------------------------------------------------------- serialization

def test_model_save_load_roundtrip(tmp_path):
    m = init_model(75.0, hidden_size=5, seed=47, metadata={"note": "roundtrip"})
    path = tmp_path / "model.json"
    save_model(m, path)
    loaded = load_model(path)
    for (name_a, arr_a), (name_b, arr_b) in zip(m.params(), loaded.params()):
        assert name_a == name_b
        assert np.array_equal(arr_a, arr_b)
    assert loaded.z_max == m.z_max
    # only what inference reads: no dropout rate, no size or shape
    assert json.loads(path.read_text()).keys() == {
        "schema_version", "z_max", "metadata", *PARAM_NAMES}
    assert loaded.metadata["note"] == "roundtrip"
    xs = np.random.default_rng(16).uniform(-1, 1, size=(9, 8))
    assert np.array_equal(run_sequence(m, xs), run_sequence(loaded, xs))
    again = tmp_path / "again.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_model_file_is_the_packed_dumps(tmp_path):
    """A model file is one json.dumps line whose parameters are packed by
    struct, and loads bit for bit: zeros of both signs and a subnormal
    too."""
    m = init_model(75.0, hidden_size=3, seed=61, metadata={"note": "packed"})
    m.b_out[...] = (-0.0, 5e-324)
    path = tmp_path / "model.json"
    save_model(m, path)
    assert path.read_text() == model_file_dumps(m)
    loaded = load_model(path)
    for (_, arr), (_, back) in zip(m.params(), loaded.params()):
        assert back.shape == arr.shape and back.tobytes() == arr.tobytes()


def test_loaded_parameters_are_read_only(tmp_path):
    """load_model's parameters are views of the decoded bytes: reading
    them steers, writing them raises."""
    path = tmp_path / "model.json"
    save_model(init_model(75.0, hidden_size=4, seed=67), path)
    for name, arr in load_model(path).params():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


def test_model_load_rejects_unknown_version(tmp_path):
    m = init_model(75.0, hidden_size=4, seed=53)
    path = tmp_path / "model.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(path)


def test_model_validate_rejects_bad_shapes():
    """A wrong shape on any one parameter fails, naming it: an extra axis,
    or a first axis one short (not on b_fc, whose length is the hidden
    size). So does the hidden size 0, which init_model never makes."""
    for name, arr in init_model(75.0, hidden_size=4, seed=59).params():
        wrong = [(*arr.shape, 1)]
        if name != "b_fc":
            wrong.append((arr.shape[0] - 1, *arr.shape[1:]))
        for shape in wrong:
            m = init_model(75.0, hidden_size=4, seed=59)
            setattr(m, name, np.zeros(shape))
            with pytest.raises(ValueError, match=f"^{name} must have shape"):
                m.validate()
    m = LstmModel(**{name: np.zeros(shape)
                     for name, shape in param_shapes(0).items()},
                  z_max=75.0)
    with pytest.raises(ValueError, match="hidden size must be at least 1"):
        m.validate()


def test_init_model_keeps_its_draw_order():
    """init_model draws b_g first, then the other six parameters in
    PARAM_NAMES order, so a seed keeps giving the same weights."""
    h = 3
    m = init_model(75.0, hidden_size=h, seed=5)
    rng = np.random.default_rng(np.random.SeedSequence([5, 0x1517]))
    bound = 1.0 / math.sqrt(h)
    b_g = rng.uniform(-bound, bound, size=4 * h)
    b_g[h:2 * h] += 1.0
    assert np.array_equal(m.b_g, b_g)
    for name, shape in [("w_x", (4 * h, 8)), ("w_h", (4 * h, h)),
                        ("w_fc", (h, h)), ("b_fc", (h,)), ("w_out", (2, h)),
                        ("b_out", (2,))]:
        assert np.array_equal(getattr(m, name),
                              rng.uniform(-bound, bound, size=shape)), name
