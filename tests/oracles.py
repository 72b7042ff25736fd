"""Reference computations the tests check the package against; none of
them is part of needleroll."""

import base64
import dataclasses
import json
import math
import struct

import numpy as np

from needleroll.dataset import (
    DATASET_SCHEMA_VERSION,
    ESTIMATOR_COLUMNS,
    STEP_COLUMNS,
)
from needleroll.lstm import (
    MODEL_SCHEMA_VERSION,
    LstmCellState,
    Workspace,
    _gate_affine,
    batch_loss,
)
from needleroll.plant import SensedTip
from needleroll.se3 import (
    cross3,
    dot3,
    heading_tangent_basis,
    recompose_roll,
    so3_exp,
    unit3,
)


def rot_z(a: float) -> np.ndarray:
    """Rotation by a about z, as ekf.transition_jacobian lays out its first
    factor."""
    c, s = math.cos(a), math.sin(a)
    return np.array((c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)).reshape(3, 3)


def roll_target(roll: float) -> np.ndarray:
    """Roll encoded as the (sin, cos) training target: continuous and
    bounded in [-1, 1]; dataset.episode_to_sequence builds these rows."""
    return np.array([math.sin(roll), math.cos(roll)])


def packed_column(values) -> str:
    """The base64 of an array's values packed by struct as little-endian
    doubles, row by row."""
    flat = values.reshape(-1).tolist()
    packed = struct.pack(f"<{len(flat)}d", *flat)
    return base64.b64encode(packed).decode("ascii")


def record_line_dumps(rec) -> str:
    """dataset.record_to_line as one json.dumps of the record's fields, each
    per-step column a packed_column."""
    doc = {"schema_version": DATASET_SCHEMA_VERSION}
    for field in dataclasses.fields(rec):
        value = getattr(rec, field.name)
        if value is None:
            continue
        if field.name in (*STEP_COLUMNS, *ESTIMATOR_COLUMNS):
            value = packed_column(value)
        elif dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        doc[field.name] = value
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def model_file_dumps(model) -> str:
    """lstm.save_model's file text as one json.dumps line: the schema
    version, z_max, metadata and each parameter a packed_column."""
    doc = {name: packed_column(arr) for name, arr in model.params()}
    doc.update(schema_version=MODEL_SCHEMA_VERSION, z_max=model.z_max,
               metadata=model.metadata)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def heading_tangent_basis_composed(eta):
    """se3.heading_tangent_basis through the 3-vector helpers: unit3 of
    eta x e_x (eta x e_y near the x axis), then unit3(cross3(eta, b1))."""
    b1 = unit3((0.0, eta[2], -eta[1]) if abs(eta[0]) < 0.9
               else (-eta[2], 0.0, eta[0]))
    return b1, unit3(cross3(eta, b1))


def advance_tip_pose_composed(rows, p, move, roll_new):
    """plant.advance_tip_pose through dot3: each row dotted with the move's
    heading, recomposed at roll_new, and p plus each row dotted with the
    move's translation."""
    m_p, m = move
    r0, r1, r2 = rows
    p0, p1, p2 = p
    return (recompose_roll((dot3(r0, m), dot3(r1, m), dot3(r2, m)), roll_new),
            (p0 + dot3(r0, m_p), p1 + dot3(r1, m_p), p2 + dot3(r2, m_p)))


def forward_step_matmul(model, state, x):
    """lstm.forward_step with each product a numpy @ (the matmul gufunc)
    and each elementwise step as forward_step orders it."""
    scale, shift = _gate_affine(model.hidden_size)
    z = (model.w_x @ x + model.w_h @ state.hidden + model.b_g) * scale
    gate_i, gate_f, gate_g, gate_o = (np.tanh(z) * scale + shift).reshape(
        4, model.hidden_size)
    cell = gate_f * state.cell + gate_i * gate_g
    hidden = gate_o * np.tanh(cell)
    act = np.tanh(model.w_fc @ hidden + model.b_fc)
    return LstmCellState(hidden, cell), model.w_out @ act + model.b_out


def forward_batch_matmul(model, xs, *, dropout=None, workspace=None):
    """lstm._forward_batch, each step's recurrent product an np.matmul (the
    @ gufunc) into its buffer and each in-place ufunc a keyword-out call or
    an augmented assignment, every operand and order as there."""
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
    activated = np.empty((four_h, batch))
    input_part = np.empty((h_size, batch))
    steps = list(zip(projected.reshape(t_max, batch, four_h), gates,
                     quad[:, 0], quad[:, 1], quad[:, 2], quad[:, 3],
                     cell, tanh_cell, hidden_by_unit))
    for z, gate, gate_i, gate_f, gate_g, gate_o, c, tc, h in steps:
        # as a transposed (B, H) operand, h_prev rounds as the time-major
        # product does at the shipped shape (w_h.T @ h_prev would not)
        z += np.matmul(h_prev.T, w_h, out=recurrent)
        np.tanh(z.T, out=activated)
        np.multiply(activated, scale, out=gate)
        gate += shift
        c_prev = np.multiply(gate_f, c_prev, out=c)
        c_prev += np.multiply(gate_i, gate_g, out=input_part)
        np.tanh(c_prev, out=tc)
        h_prev = np.multiply(gate_o, tc, out=h)
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


def backward_matmul(model, cache, target, mask):
    """lstm.backward on a forward_batch_matmul cache, each step's product
    an np.matmul into its buffer and each in-place ufunc an augmented
    assignment, every operand and order as there."""
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
    for d_h, from_h, f, from_cell, from_hidden, d_z in reversed(steps):
        d_h += d_h_next
        np.multiply(d_h, from_h, out=d_c)
        d_c += d_c_next
        np.multiply(d_c, f, out=d_c_next)
        from_cell *= d_c
        from_hidden *= d_h
        # the bits of d_z.T @ w_h, the time-major product's at the shipped
        # shape, computed straight into the (H, B) layout
        np.matmul(model.w_h.T, d_z, out=d_h_next)

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


def endpoint_fit(points):
    """lstm._endpoint_fit over a list of positions or an (n, 3) array, kept
    as it is laid out: the slope a numpy @, every constant built per call."""
    n = len(points)
    if n < 3:
        return np.asarray(points[-1], dtype=float)
    stack = np.asarray(points, dtype=float)
    k = np.arange(n, dtype=float)
    k_mean = k.mean()
    centered = k - k_mean
    slope = (centered @ stack) / float(centered @ centered)
    return stack.mean(axis=0) + slope * (n - 1 - k_mean)


def quat_from_matrix(R) -> np.ndarray:
    """Unit quaternion (w, x, y, z), w >= 0, of a rotation matrix, by the
    largest-diagonal branch of the trace method."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = (
        np.asarray(R, dtype=float).tolist())
    tr = r00 + r11 + r22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = (0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s)
    elif r00 > r11 and r00 > r22:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        q = ((r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s)
    elif r11 > r22:
        s = math.sqrt(1.0 + r11 - r00 - r22) * 2.0
        q = ((r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s)
    else:
        s = math.sqrt(1.0 + r22 - r00 - r11) * 2.0
        q = ((r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s)
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if w < 0.0:
        n = -n
    return np.array([w / n, x / n, y / n, z / n])


def sense_per_draw(state, medium, rng) -> SensedTip:
    """plant.sense as it drew its noise before the single standard_normal
    draw: rng.normal for the three position offsets, rng.normal for the
    tilt, then rng.random for the azimuth."""
    n0, n1, n2 = rng.normal(0.0, medium.position_noise, size=3).tolist()
    p0, p1, p2 = state.p
    eta = tuple(row[2] for row in state.rows)
    tilt = rng.normal(0.0, medium.heading_noise)
    azimuth = 2.0 * math.pi * rng.random()
    b1, b2 = heading_tangent_basis(eta)
    ca, sa = math.cos(azimuth), math.sin(azimuth)
    axis = [(ca * x + sa * y) * tilt for x, y in zip(b1, b2)]
    heading = [dot3(r, eta) for r in so3_exp(axis)]
    return SensedTip((p0 + n0, p1 + n1, p2 + n2), unit3(heading))
