"""Recurrent roll estimator: LSTM + fully-connected + linear head, trained
with full-sequence backpropagation through time and Adam.

Layout and conventions, shared by the streaming path, the batched training
path, the serializer, and the test oracles:

- feature vector x (8): (sensed position / z_max (3), sensed heading (3),
  sin base_angle, cos base_angle)
- target y (2): (sin roll, cos roll)
- gate order inside the stacked (4H, .) matrices: input, forget, cell
  candidate, output; sigmoid on i/f/o, tanh on the candidate. All four
  come from one tanh over the stacked pre-activation, with
  sigmoid(z) = 0.5 * tanh(z / 2) + 0.5 (_gate_affine, _activate_gates)
- fully-connected layer: tanh activation, inverted dropout on its
  activations in the batched training path only, at TrainConfig's rate;
  streaming inference (forward_step, run_sequence) has no dropout, so the
  model holds no rate
- output layer: linear
- loss: RMSE over every component of every timestep of every sequence in
  the batch (padded steps excluded via masks)
- parameter shapes: param_shapes(H), the one place they are written; the
  hidden size H is len(b_fc)
- model file (schema 4): schema.encode of the model, each parameter a
  Column (the base64 of its row-major float64 bytes); no size or shape is
  stored, since each follows from H

Everything runs in float64. The streaming estimator and the offline
run_sequence call the exact same forward_step, so their outputs are
bit-identical by construction; the batched training forward is a separate
vectorized path validated against run_sequence in tests. Each product of a
streaming tick (forward_step's four, _endpoint_fit's one) is one BLAS call
through ndarray.dot: on these matrix-vector float operands dot makes the gemv
call the @ operator makes, so it gives @'s bits at about half the per-call
dispatch cost, and the tests hold both to their @ formulas.

The training path keeps inputs, targets, masks, hidden states, the
fully-connected activations and the dropout mask time-major, (T, B, .), so
the input projection, the fully-connected layer, the output head and every
weight gradient are single GEMMs over all T * B rows. The recurrence
buffers (gates, cell, tanh(cell)) are feature-major, (T, 4H, B) and
(T, H, B), so every step's gate slices and every whole-array pass over one
gate are contiguous. Only the recurrence steps through time, over views
built before each loop. Each step's product, in both loops, is an
ndarray.dot into a preallocated output, which gives @'s bits at less
per-call cost (the tests pin both loops to their np.matmul forms), and
each ufunc takes its output positionally. All of it lives in a Workspace
that train reuses across batches, epochs and validation chunks. backward
consumes its cache: it overwrites the cached activations in place with
its intermediate factors and gradients.

Each epoch shuffles the training sequences, cuts the shuffled order into
pools of LENGTH_POOL (32) and stable-sorts every pool by sequence length
before cutting batches, so a batch holds sequences of similar length and
pads few steps; only the order within a pool changes, never which pool a
sequence falls in. train prints a progress line to stderr every
PROGRESS_EVERY epochs and at the last one.
"""

from __future__ import annotations

import copy
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from needleroll.plant import SensedTip, check_ranges, require_valid_measurement
from needleroll.schema import Column, decode, encode, replacing
from needleroll.se3 import floats3, recompose_roll, wrap_angle

MODEL_SCHEMA_VERSION = 4
LEARNING_RATE = 3e-3  # Adam step size of every training run
INPUT_SIZE = 8  # width of the scale_features vector
VALIDATION_CHUNK = 32  # sequences per sequence_rmse forward pass
LENGTH_POOL = 32  # shuffled training sequences per length-sorted pool
PROGRESS_EVERY = 50  # epochs between train's stderr progress lines


def param_shapes(hidden_size: int) -> dict:
    """{name: shape} of the seven parameters at one hidden size, in the
    fixed order of the optimizer."""
    h, four_h = hidden_size, 4 * hidden_size
    return {"w_x": (four_h, INPUT_SIZE), "w_h": (four_h, h), "b_g": (four_h,),
            "w_fc": (h, h), "b_fc": (h,), "w_out": (2, h), "b_out": (2,)}


PARAM_NAMES = tuple(param_shapes(0))


class DegenerateOutput(ValueError):
    """Network emitted a near-zero (sin, cos) pair: no angle to read."""


class Diverged(RuntimeError):
    """Training loss became non-finite."""


def scale_features(position, heading, base_angle: float, z_max: float) -> np.ndarray:
    """Build the 8-component input: scaled position, heading, angle encoding."""
    if z_max <= 0.0:
        raise ValueError("z_max must be positive")
    p0, p1, p2 = floats3(position)
    return np.array([p0 / z_max, p1 / z_max, p2 / z_max, *floats3(heading),
                     math.sin(base_angle), math.cos(base_angle)])


def estimate_roll(y) -> float:
    """Angle read back from a (sin, cos) pair, in (-pi, pi].

    Magnitude does not matter (atan2 is scale-invariant) but a near-zero
    pair carries no angle and signals a broken or untrained model.
    """
    s, c = np.asarray(y, dtype=float).tolist()
    if math.hypot(s, c) <= 1e-6:
        raise DegenerateOutput("output vector too small to define an angle")
    return wrap_angle(math.atan2(s, c))


@dataclass
class LstmModel:
    """All trainable parameters, shaped by param_shapes(hidden_size), plus
    the constants inference needs."""

    w_x: Column  # input-to-gates
    w_h: Column  # hidden-to-gates
    b_g: Column  # gate bias
    w_fc: Column  # fully-connected layer
    b_fc: Column  # its bias, one per hidden unit
    w_out: Column  # output head
    b_out: Column
    z_max: float
    metadata: dict = field(default_factory=dict)

    @property
    def hidden_size(self) -> int:
        return len(self.b_fc)

    def params(self):
        """(name, array) pairs in PARAM_NAMES order."""
        return [(name, getattr(self, name)) for name in PARAM_NAMES]

    def validate(self):
        h = self.hidden_size
        if h < 1:
            raise ValueError("hidden size must be at least 1, not 0")
        for name, shape in param_shapes(h).items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape} at hidden "
                                 f"size {h}, not {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")
        check_ranges(self, positive=("z_max",))


class LstmCellState(NamedTuple):
    hidden: np.ndarray
    cell: np.ndarray


def zero_state(hidden_size: int) -> LstmCellState:
    return LstmCellState(np.zeros(hidden_size), np.zeros(hidden_size))


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; the defaults are the shipped ones, which
    init_model and the run configuration inherit. Adam steps at the
    constant LEARNING_RATE."""

    epochs: int = 800
    batch_size: int = 8
    dropout_rate: float = 0.2
    hidden_size: int = 30
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "hidden_size"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name.replace('_', ' ')} must be at least 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")


class Dropout(NamedTuple):
    """A training pass's inverted dropout: the rate, and the generator
    that draws its masks."""

    rate: float
    rng: np.random.Generator


def init_model(z_max: float, hidden_size: int = TrainConfig.hidden_size,
               seed: int = 0, metadata: dict | None = None) -> LstmModel:
    """Uniform(-1/sqrt(H), 1/sqrt(H)) weights; forget-gate bias starts at +1
    so early training does not flush the cell state. z_max is the position
    feature scale the inputs are built with."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1517]))
    bound = 1.0 / math.sqrt(hidden_size)
    shapes = param_shapes(hidden_size)
    # b_g first, then the rest in PARAM_NAMES order: each seed's weights
    # depend on this draw order
    params = {"b_g": rng.uniform(-bound, bound, size=shapes.pop("b_g"))}
    params["b_g"][hidden_size:2 * hidden_size] += 1.0
    for name, shape in shapes.items():
        params[name] = rng.uniform(-bound, bound, size=shape)
    model = LstmModel(**params, z_max=z_max,
                      metadata=dict(metadata or {}, seed=seed))
    model.validate()
    return model


@functools.lru_cache(maxsize=None)
def _gate_affine(hidden_size: int):
    """(scale, shift) over the stacked 4H gate axis, read-only.

    The pre-activation is multiplied by `scale` before the shared tanh and
    the tanh by `scale` then offset by `shift` after it, which gives
    sigmoid(z) = 0.5 * tanh(z / 2) + 0.5 on i/f/o and tanh(z) on the
    candidate. Scaling by 0.5 is exact in binary floating point, so it may
    be folded into the weights instead of applied to z.
    """
    candidate = slice(2 * hidden_size, 3 * hidden_size)
    scale = np.full(4 * hidden_size, 0.5)
    scale[candidate] = 1.0
    shift = np.full(4 * hidden_size, 0.5)
    shift[candidate] = 0.0
    scale.setflags(write=False)
    shift.setflags(write=False)
    return scale, shift


def _activate_gates(z, scale, shift):
    """Gate activations (i, f, g, o stacked on the last axis) from the
    pre-activation already multiplied by `scale`; overwrites z."""
    np.tanh(z, out=z)
    z *= scale
    z += shift
    return z


def forward_step(model: LstmModel, state: LstmCellState, x):
    """One recurrent step, without dropout. The single code path for
    streaming and offline inference; training uses the batched twin below.
    Its products are ndarray.dot calls, @'s bits (module docstring)."""
    x = np.asarray(x, dtype=float)
    h_size = model.hidden_size
    scale, shift = _gate_affine(h_size)
    z = model.w_x.dot(x) + model.w_h.dot(state.hidden) + model.b_g
    z *= scale
    gate_i, gate_f, gate_g, gate_o = _activate_gates(z, scale, shift).reshape(4, h_size)
    cell = gate_f * state.cell + gate_i * gate_g
    hidden = gate_o * np.tanh(cell)
    act = np.tanh(model.w_fc.dot(hidden) + model.b_fc)
    y = model.w_out.dot(act) + model.b_out
    return LstmCellState(hidden, cell), y


def run_sequence(model: LstmModel, xs) -> np.ndarray:
    """Offline forward pass: forward_step iterated from the zero state."""
    state = zero_state(model.hidden_size)
    out = np.empty((len(xs), 2))
    for t, x in enumerate(xs):
        state, y = forward_step(model, state, x)
        out[t] = y
    return out


# --------------------------------------------------------------- training path

class Workspace:
    """Named flat float64 buffers the training path's arrays are views of,
    `width` values per padded batch-step. A buffer is allocated for at
    least `rows` batch-steps and replaced only by a larger need, so the
    batches that share a workspace share its memory; a cache stays valid
    until the next call that takes from the same workspace. Calls given
    none make their own: fresh arrays through the same code path."""

    def __init__(self, rows: int = 0):
        self.rows = rows
        self._flat = {}

    def take(self, name: str, rows: int, width: int) -> np.ndarray:
        """An uninitialized (rows, width) view of buffer `name`."""
        flat = self._flat.get(name)
        if flat is None or flat.size < rows * width:
            flat = self._flat[name] = np.empty(max(rows, self.rows) * width)
        return flat[:rows * width].reshape(rows, width)


def _pad_batch(seqs, workspace=None):
    """End-pad (xs, ys) pairs to a common length, time-major: (T, B, .)
    arrays; mask (T, B) marks real steps."""
    ws = workspace or Workspace()
    lengths = [len(xs) for xs, _ in seqs]
    t_max = max(lengths)
    batch = len(seqs)
    rows = t_max * batch
    d = seqs[0][0].shape[1]
    xs = ws.take("x", rows, d).reshape(t_max, batch, d)
    ys = ws.take("target", rows, 2).reshape(t_max, batch, 2)
    mask = ws.take("mask", rows, 1).reshape(t_max, batch)
    for arr in (xs, ys, mask):  # no tail of an earlier batch survives
        arr.fill(0.0)
    for k, (x_seq, y_seq) in enumerate(seqs):
        n = lengths[k]
        xs[:n, k] = x_seq
        ys[:n, k] = y_seq
        mask[:n, k] = 1.0
    return xs, ys, mask


def _forward_batch(model: LstmModel, xs, *, dropout: Dropout | None = None,
                   workspace=None):
    """Vectorized forward over (T, B, D) inputs, caching every activation
    the backward pass needs: a training pass given a Dropout, an inference
    pass given None. Padded steps are computed (cheap) and later masked
    out of the loss, which provably zeroes their gradients for end-padded
    sequences.

    Only the recurrence runs step by step: the input projection, the
    fully-connected layer, the dropout draw and the output head each run
    once over all timesteps. The dropout mask is one (T, B, H) draw, the
    same stream as T consecutive (B, H) draws, and is drawn at rate 0 too.
    """
    ws = workspace or Workspace()
    t_max, batch, d = xs.shape
    h_size = model.hidden_size
    four_h = 4 * h_size
    rows = t_max * batch
    scale, shift = _gate_affine(h_size)
    # each step's (B, 4H) block of input projections becomes, in place,
    # that step's (4H, B) block of gate activations
    projected = ws.take("gates", rows, four_h)
    np.matmul(xs.reshape(rows, d), (model.w_x * scale[:, None]).T,
              out=projected)
    projected += model.b_g * scale
    gates = projected.reshape(t_max, four_h, batch)
    # slab rows: hidden states (T, B, H); cell and tanh(cell) (T, H, B);
    # fully-connected activations (T, B, H), which hold the (T, H, B)
    # hidden states until the loop ends; in training, the dropout mask
    slab = ws.take("slab", rows, (4 if dropout is None else 5) * h_size)
    slab = slab.reshape(-1, rows * h_size)
    hidden = slab[0].reshape(t_max, batch, h_size)
    cell, tanh_cell, hidden_by_unit = (
        slab[k].reshape(t_max, h_size, batch) for k in (1, 2, 3))
    quad = gates.reshape(t_max, 4, h_size, batch)
    w_h = (model.w_h * scale[:, None]).T
    # full (4H, B) operands: a (4H, 1) column broadcast along B is slower
    scale, shift = (np.repeat(v[:, None], batch, axis=1)
                    for v in (scale, shift))
    h_prev = np.zeros((h_size, batch))
    c_prev = np.zeros((h_size, batch))
    recurrent = np.empty((batch, four_h))
    activated = np.empty((batch, four_h))
    input_part = np.empty((h_size, batch))
    steps = list(zip(projected.reshape(t_max, batch, four_h), gates,
                     quad[:, 0], quad[:, 1], quad[:, 2], quad[:, 3],
                     cell, tanh_cell, hidden_by_unit))
    add, multiply, tanh = np.add, np.multiply, np.tanh
    for z, gate, gate_i, gate_f, gate_g, gate_o, c, tc, h in steps:
        # as a transposed (B, H) operand, h_prev rounds as the time-major
        # product does at the shipped shape (w_h.T @ h_prev would not)
        add(z, h_prev.T.dot(w_h, recurrent), z)
        # tanh reads z in its own layout (float64 tanh has the same bits in
        # any); into z itself, the transposed multiply would buffer overlap
        tanh(z, activated)
        multiply(activated.T, scale, gate)
        add(gate, shift, gate)
        multiply(gate_f, c_prev, c)
        add(c, multiply(gate_i, gate_g, input_part), c)
        tanh(c, tc)
        multiply(gate_o, tc, h)
        c_prev, h_prev = c, h
    np.copyto(hidden, hidden_by_unit.transpose(0, 2, 1))

    act = slab[3].reshape(t_max, batch, h_size)
    np.matmul(hidden.reshape(rows, h_size), model.w_fc.T,
              out=act.reshape(rows, h_size))
    act += model.b_fc
    np.tanh(act, out=act)
    if dropout is not None:
        keep = 1.0 - dropout.rate
        drop = slab[4].reshape(t_max, batch, h_size)
        dropout.rng.random(out=drop)  # the bits of uniform(size=...)
        np.less(drop, keep, out=drop)
        drop /= keep
        act_d = ws.take("d_act", rows, h_size).reshape(t_max, batch, h_size)
        np.multiply(act, drop, out=act_d)
    else:
        drop = None
        act_d = act
    y = ws.take("y", rows, 2).reshape(t_max, batch, 2)
    np.matmul(act_d, model.w_out.T, out=y)
    y += model.b_out
    return {"x": xs, "gates": gates, "c": cell, "tc": tanh_cell,
            "h": hidden, "act": act, "drop": drop, "y": y, "workspace": ws}


def batch_loss(pred, target, mask):
    """(rmse, sse, n): root-mean-square error over all real components."""
    diff = (pred - target) * mask[..., None]
    sse = float(np.sum(diff * diff))
    n = float(np.sum(mask) * pred.shape[-1])
    if n == 0:
        raise ValueError("empty batch")
    return math.sqrt(sse / n), sse, n


def sequence_rmse(model: LstmModel, seqs, workspace=None) -> float:
    """RMSE of the no-dropout forward pass over a set of sequences."""
    ws = workspace or Workspace()
    sse = 0.0
    n = 0.0
    for start in range(0, len(seqs), VALIDATION_CHUNK):
        xs, ys, mask = _pad_batch(seqs[start:start + VALIDATION_CHUNK], ws)
        cache = _forward_batch(model, xs, workspace=ws)
        _, s, m = batch_loss(cache["y"], ys, mask)
        sse += s
        n += m
    return math.sqrt(sse / n)


def backward(model: LstmModel, cache, target, mask):
    """Exact full-sequence BPTT gradients of the batch RMSE.

    Consumes the cache: its arrays are overwritten with intermediate
    factors and gradients, and the gate-pre-activation gradients end in
    the workspace rows the recurrence no longer needs, so the pass needs
    almost no memory beyond the cache's workspace.

    Returns (grads keyed like model.params(), rmse, sse, n).
    """
    xs = cache["x"]
    t_max, batch, _ = xs.shape
    h_size = model.hidden_size
    rows = t_max * batch
    rmse, sse, n = batch_loss(cache["y"], target, mask)
    if rmse == 0.0 or not math.isfinite(rmse):
        grads = {name: np.zeros_like(arr) for name, arr in model.params()}
        return grads, rmse, sse, n

    def flat(a):
        return a.reshape(-1, a.shape[-1])

    ws = cache["workspace"]
    gates, cell, tanh_cell = cache["gates"], cache["c"], cache["tc"]
    hidden, act, drop = cache["h"], cache["act"], cache["drop"]

    # output head and fully-connected layer, all timesteps at once
    d_y = (cache["y"] - target) * mask[..., None] / (n * rmse)
    d_act = ws.take("d_act", rows, h_size).reshape(t_max, batch, h_size)
    np.matmul(d_y, model.w_out, out=d_act)
    act_d = act
    if drop is not None:
        d_act *= drop
        act_d = np.multiply(drop, act, out=drop)
    w_out = flat(d_y).T @ flat(act_d)
    b_out = d_y.sum(axis=(0, 1))
    act *= act
    np.subtract(1.0, act, out=act)
    d_act *= act  # gradient of the fully-connected pre-activation
    w_fc = flat(d_act).T @ flat(hidden)
    b_fc = d_act.sum(axis=(0, 1))
    d_h_all = act  # buffer reuse: loss gradient reaching each hidden state
    np.matmul(flat(d_act), model.w_fc, out=flat(d_h_all))

    # every factor that depends only on forward activations, built once
    # over all timesteps in the consumed gate cache: per gate slot,
    # dz = (d_c, d_c, d_c, d_h) * factor
    quad = gates.reshape(t_max, 4, h_size, batch)
    gate_i, gate_f, gate_g, gate_o = (quad[:, k] for k in range(4))
    tmp = d_act.reshape(t_max, h_size, batch)
    np.subtract(1.0, gate_o, out=tmp)
    tmp *= gate_o
    tmp *= tanh_cell
    d_cell_from_h = tanh_cell  # o * (1 - tanh(c)^2)
    d_cell_from_h *= tanh_cell
    np.subtract(1.0, d_cell_from_h, out=d_cell_from_h)
    d_cell_from_h *= gate_o
    gate_o[...] = tmp
    np.subtract(1.0, gate_f, out=tmp)
    tmp *= gate_f
    tmp[0] = 0.0  # zero initial cell state
    tmp[1:] *= cell[:-1]
    forget = cell  # the forget gate carries d_c one step back
    forget[...] = gate_f
    gate_f[...] = tmp
    np.subtract(1.0, gate_i, out=tmp)
    tmp *= gate_i
    tmp *= gate_g
    gate_g *= gate_g
    np.subtract(1.0, gate_g, out=gate_g)
    gate_g *= gate_i
    gate_i[...] = tmp
    d_h_by_unit = tmp
    np.copyto(d_h_by_unit, d_h_all.transpose(0, 2, 1))

    d_h_next = np.zeros((h_size, batch))
    d_c = np.empty((h_size, batch))
    d_c_next = np.zeros((h_size, batch))
    steps = list(zip(d_h_by_unit, d_cell_from_h, forget, quad[:, :3], gate_o,
                     gates))
    add, multiply = np.add, np.multiply
    w_h_t = model.w_h.T
    for d_h, from_h, f, from_cell, from_hidden, d_z in reversed(steps):
        add(d_h, d_h_next, d_h)
        multiply(d_h, from_h, d_c)
        add(d_c, d_c_next, d_c)
        multiply(d_c, f, d_c_next)
        multiply(from_cell, d_c, from_cell)
        multiply(from_hidden, d_h, from_hidden)
        # the bits of d_z.T @ w_h, the time-major product's at the shipped
        # shape, computed straight into the (H, B) layout
        w_h_t.dot(d_z, d_h_next)

    # the gate gradients go back to time-major for the weight GEMMs, into
    # the slab rows after the hidden states: cell, tanh(cell), activations
    # and dropout mask are spent
    slab = ws.take("slab", rows, 5 * h_size).reshape(5, rows * h_size)
    d_gates = slab[1:].reshape(t_max, batch, 4 * h_size)
    np.copyto(d_gates, gates.transpose(0, 2, 1))
    d_z = flat(d_gates)
    grads = {  # (x.T @ d_z).T: the sums of d_z.T @ x, on a faster BLAS path
        "w_x": (flat(xs).T @ d_z).T,
        "w_h": (flat(hidden[:-1]).T @ flat(d_gates[1:])).T,  # h_prev is 0 at t = 0
        "b_g": d_z.sum(axis=0),
        "w_fc": w_fc, "b_fc": b_fc, "w_out": w_out, "b_out": b_out,
    }
    return grads, rmse, sse, n


class Adam:
    """Plain Adam over the model's fixed parameter order."""

    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-8

    def __init__(self, model: LstmModel, learning_rate: float):
        self.lr = learning_rate
        self.step_count = 0
        self.moment1 = {name: np.zeros_like(arr) for name, arr in model.params()}
        self.moment2 = {name: np.zeros_like(arr) for name, arr in model.params()}

    def apply(self, model: LstmModel, grads: dict):
        self.step_count += 1
        correction1 = 1.0 - self.beta1 ** self.step_count
        correction2 = 1.0 - self.beta2 ** self.step_count
        for name, arr in model.params():
            g = grads[name]
            m = self.moment1[name]
            v = self.moment2[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            arr -= self.lr * (m / correction1) / (
                np.sqrt(v / correction2) + self.epsilon
            )


def _length_sorted_batches(order, lengths, batch_size: int):
    """One epoch's batches as index arrays: the shuffled `order` cut into
    consecutive pools of LENGTH_POOL, each pool stable-sorted by length,
    then cut into batches of `batch_size` exactly as the unsorted order
    would be (same count, the short batch last)."""
    lengths = np.asarray(lengths)
    pools = (order[start:start + LENGTH_POOL]
             for start in range(0, len(order), LENGTH_POOL))
    ordered = np.concatenate([
        pool[np.argsort(lengths[pool], kind="stable")] for pool in pools])
    return [ordered[start:start + batch_size]
            for start in range(0, len(ordered), batch_size)]


@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    train_loss: float
    val_rmse: float


def train(train_seqs, val_seqs, config: TrainConfig, z_max: float):
    """Fit on (xs, ys) sequence pairs whose positions were scaled by z_max;
    returns (best model, per-epoch log).

    Seeded shuffling each epoch into length-sorted pools
    (_length_sorted_batches), dropout in training passes only, model
    snapshot at every new best validation RMSE, a progress line on stderr
    every PROGRESS_EVERY epochs and at the last. Raises Diverged on a
    non-finite loss.
    """
    if not train_seqs or not val_seqs:
        raise ValueError("need non-empty train and validation sets")
    root = np.random.SeedSequence([config.seed, 0x4C53])
    shuffle_seed, dropout_seed = root.spawn(2)
    model = init_model(
        z_max, hidden_size=config.hidden_size, seed=config.seed,
        metadata={"train_episodes": len(train_seqs), "val_episodes": len(val_seqs)},
    )
    shuffle_rng = np.random.default_rng(shuffle_seed)
    dropout = Dropout(config.dropout_rate, np.random.default_rng(dropout_seed))
    optimizer = Adam(model, LEARNING_RATE)
    log: list[TrainLogRow] = []
    best_model = copy.deepcopy(model)
    best_val = math.inf
    lengths = [len(xs) for xs, _ in train_seqs]
    # one workspace, sized to the longest padded batch or validation chunk
    workspace = Workspace(max(
        max(lengths) * min(config.batch_size, len(lengths)),
        max(len(xs) for xs, _ in val_seqs)
        * min(VALIDATION_CHUNK, len(val_seqs))))
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(train_seqs))
        sse_total = 0.0
        n_total = 0.0
        for batch in _length_sorted_batches(order, lengths, config.batch_size):
            xs, ys, mask = _pad_batch([train_seqs[k] for k in batch], workspace)
            cache = _forward_batch(model, xs, dropout=dropout,
                                   workspace=workspace)
            grads, rmse, sse, n = backward(model, cache, ys, mask)
            if not math.isfinite(rmse):
                raise Diverged(f"non-finite loss at epoch {epoch}")
            optimizer.apply(model, grads)
            sse_total += sse
            n_total += n
        train_loss = math.sqrt(sse_total / n_total)
        val_rmse = sequence_rmse(model, val_seqs, workspace)
        if not math.isfinite(val_rmse):
            raise Diverged(f"non-finite validation RMSE at epoch {epoch}")
        log.append(TrainLogRow(epoch=epoch, train_loss=train_loss,
                               val_rmse=val_rmse))
        if val_rmse < best_val:
            best_val = val_rmse
            best_model = copy.deepcopy(model)
        if (epoch + 1) % PROGRESS_EVERY == 0 or epoch + 1 == config.epochs:
            print(f"epoch {epoch + 1}/{config.epochs}: train loss "
                  f"{train_loss:.4f}, val RMSE {val_rmse:.4f}, "
                  f"best {best_val:.4f}", file=sys.stderr)
    best_model.metadata["best_val_rmse"] = best_val
    return best_model, log


# ---------------------------------------------------------------- streaming

# Reported-pose position is a causal straight-line fit over a short window,
# evaluated at the newest sample: smoothing without the lag a plain moving
# average has against the steadily advancing tip. Raw positions make the
# bang-bang azimuth ill-conditioned once the target's radial offset shrinks
# toward the sensor noise scale and the controller starts chasing noise.
# The network inputs stay raw to match the training distribution.
POSITION_WINDOW = 12


def _fit_constants(n: int):
    """Regression constants of _endpoint_fit for an n-point window: the
    centred sample indices k - mean(k) (read-only), their sum of squares,
    and the last index's offset n - 1 - mean(k)."""
    k = np.arange(n, dtype=float)
    k_mean = k.mean()
    centered = k - k_mean
    centered.flags.writeable = False
    return centered, float(centered @ centered), n - 1 - k_mean


_FIT_CONSTANTS = {n: _fit_constants(n) for n in range(3, POSITION_WINDOW + 1)}


def _endpoint_fit(stack: np.ndarray) -> np.ndarray:
    """Least-squares line through an (n, 3) window, oldest row first,
    evaluated at the last point. Returns a new array, never a view. The
    slope's product is an ndarray.dot call, @'s bits (module docstring)."""
    n = len(stack)
    if n < 3:
        return stack[-1].copy()
    centered, sum_sq, last = _FIT_CONSTANTS[n]
    slope = centered.dot(stack) / sum_sq
    # stack.mean(axis=0), the same sum and division, without mean's
    # Python-level wrapper
    return np.add.reduce(stack, axis=0) / n + slope * last


class RollEstimator:
    """Stateful wrapper exposing the controller-facing estimator interface:
    consume one 5-DOF measurement plus the commanded base angle, return the
    learned roll on the sensed heading and the fitted position as (rows, p)."""

    def __init__(self, model: LstmModel):
        model.validate()
        self.model = model
        # mirrored ring: position i goes to rows i % W and i % W + W, so the
        # last n positions are always the n contiguous rows ending at the
        # second copy of the newest one, in chronological order
        self._window = np.empty((2 * POSITION_WINDOW, 3))
        self.reset()

    def reset(self):
        self.state = zero_state(self.model.hidden_size)
        self.last_roll = None
        self._count = 0

    def estimate(self, meas: SensedTip, base_angle: float):
        require_valid_measurement(meas, base_angle)
        x = scale_features(meas.position, meas.heading, base_angle,
                           self.model.z_max)
        self.state, y = forward_step(self.model, self.state, x)
        roll = estimate_roll(y)
        self.last_roll = roll
        k = self._count % POSITION_WINDOW
        self._window[k] = self._window[k + POSITION_WINDOW] = meas.position
        self._count += 1
        end = k + POSITION_WINDOW + 1
        n = min(self._count, POSITION_WINDOW)
        position = _endpoint_fit(self._window[end - n:end])
        return recompose_roll(floats3(meas.heading), roll), position.tolist()


# ------------------------------------------------------------- serialization

def save_model(model: LstmModel, path):
    """Self-sufficient JSON model file, one schema.encode line: the schema
    version, then each LstmModel field under its own name, a parameter as
    a Column. Its shape follows from the hidden size, the length of b_fc
    (param_shapes)."""
    model.validate()
    with replacing(path) as fh:
        fh.write(encode(model, MODEL_SCHEMA_VERSION) + "\n")


def load_model(path) -> LstmModel:
    """save_model's model, each parameter read-only; any fault, an older
    schema too (re-train), is a ValueError naming path."""
    try:
        with open(path) as fh:
            doc = decode(fh.read(), LstmModel, MODEL_SCHEMA_VERSION, "model")
        h = len(doc["b_fc"])
        for name, shape in param_shapes(h).items():
            if len(doc[name]) != math.prod(shape):
                raise ValueError(
                    f"parameter {name!r} holds {len(doc[name])} values, not "
                    f"the {math.prod(shape)} of shape {shape} at hidden size {h}")
            doc[name] = doc[name].reshape(shape)
        doc["z_max"] = float(doc["z_max"])
        model = LstmModel(**doc)
        model.validate()
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from exc
    return model
