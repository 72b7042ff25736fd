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
from needleroll.lstm import MODEL_SCHEMA_VERSION, LstmCellState, _gate_affine
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
