"""Rigid-body geometry for needle-tip poses.

Rotation matrices are world_from_body. The instrument axis is the body +z
axis, so the heading of a pose is R @ [0, 0, 1]. The roll angle of a pose is
defined relative to the minimal rotation that takes +z to the current
heading (see decompose_roll). Positions are in millimetres, angles in
radians.

One kernel convention: so3_exp, se3_exp, heading_tangent_basis,
recompose_roll, decompose_roll and angular_error take and return Python
floats and float rows, so a tick's pose is three float rows and three
floats. A caller builds an array once, and only where the filter mean, the
covariance or point registration needs one.

dot3, cross3 and unit3 are the one definition of the 3-vector products.
The tick kernels (heading_tangent_basis here, plant.sense and
plant.advance_tip_pose) write them out inline, in the helpers' operation
order, to save the calls; tests pin each against its composition of the
helpers bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi


class DegenerateConfiguration(ValueError):
    """Point sets unusable for rigid registration (too few or collinear)."""


class AntiparallelHeading(ValueError):
    """Roll decomposition is singular: heading opposes the reference axis."""


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = (a + math.pi) % _TWO_PI - math.pi
    if w == -math.pi:
        w = math.pi
    return w


def floats3(v):
    """A 3-vector as plain floats; a tuple, a tick value's, passes as is."""
    if type(v) is tuple:
        return v
    return np.asarray(v, dtype=float).tolist()


def dot3(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def unit3(v) -> tuple[float, float, float]:
    n = math.sqrt(dot3(v, v))
    return (v[0] / n, v[1] / n, v[2] / n)


def so3_exp(w) -> tuple:
    """Rotation matrix for a rotation vector of three floats, exact for any
    magnitude, as three float rows."""
    x, y, z = w
    t2 = x * x + y * y + z * z
    t = math.sqrt(t2)
    if t < 1e-8:
        # series for sin(t)/t and (1 - cos(t))/t^2
        a = 1.0 - t2 / 6.0
        b = 0.5 - t2 / 24.0
    else:
        a = math.sin(t) / t
        b = (1.0 - math.cos(t)) / t2
    # I + a K + b K^2, K = skew(w), K^2 = w w^T - |w|^2 I
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    return ((1.0 - b * (y * y + z * z), bxy - a * z, bxz + a * y),
            (bxy + a * z, 1.0 - b * (x * x + z * z), byz - a * x),
            (bxz - a * y, byz + a * x, 1.0 - b * (x * x + y * y)))


def se3_exp(twist, dt: float = 1.0) -> tuple[tuple, tuple]:
    """Exponential of a body twist (v, w) scaled by dt.

    Returns (R, p): the rotation's three float rows and the translation's
    three floats, of the relative pose reached after moving along the
    constant twist for dt. A zero twist gives the identity.
    """
    xi = [x * dt for x in np.asarray(twist, dtype=float).tolist()]
    v, w = xi[:3], xi[3:]
    t2 = dot3(w, w)
    t = math.sqrt(t2)
    if t < 1e-8:
        b = 0.5 - t2 / 24.0
        c = 1.0 / 6.0 - t2 / 120.0
    else:
        b = (1.0 - math.cos(t)) / t2
        c = (t - math.sin(t)) / (t2 * t)
    # V, the left Jacobian of SO(3), is I + b K + c K^2
    return so3_exp(w), _series_apply(w, v, b, c)


def _series_apply(w, v, b: float, c: float) -> tuple:
    """(I + b K + c K^2) v for K = skew(w): v + b (w x v) + c w x (w x v)."""
    wv = cross3(w, v)
    wwv = cross3(w, wv)
    return tuple(v[i] + b * wv[i] + c * wwv[i] for i in range(3))


def angular_error(R_est, R_true) -> float:
    """Geodesic angle between two rotations given as float rows, in [0, pi].

    On the relative rotation M = R_est^T R_true it is
    atan2(|vee(M - M^T)| / 2, (tr M - 1) / 2), which holds its accuracy
    near 0 and pi, where acos of the trace alone bottoms out at
    sqrt(2 eps). Equal rotations give exactly 0.0, and swapping the
    arguments gives exactly the same angle.
    """
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = R_est
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = R_true
    # M[i][j] is column i of R_est dotted with column j of R_true
    tr = (a00 * b00 + a10 * b10 + a20 * b20 + a01 * b01 + a11 * b11
          + a21 * b21 + a02 * b02 + a12 * b12 + a22 * b22)
    x = ((a01 * b02 + a11 * b12 + a21 * b22)
         - (a02 * b01 + a12 * b11 + a22 * b21))
    y = ((a02 * b00 + a12 * b10 + a22 * b20)
         - (a00 * b02 + a10 * b12 + a20 * b22))
    z = ((a00 * b01 + a10 * b11 + a20 * b21)
         - (a01 * b00 + a11 * b10 + a21 * b20))
    return math.atan2(0.5 * math.sqrt(x * x + y * y + z * z),
                      0.5 * (tr - 1.0))


def _align_rows(e0: float, e1: float, c: float) -> tuple:
    """Rows of the minimal rotation taking the +z axis onto the unit vector
    eta = (e0, e1, c): I + K + K^2/(1+c), K = skew(z x eta).

    Raises AntiparallelHeading when eta is (numerically) opposite to +z; the
    workspace never approaches that configuration, so it is an error rather
    than a branch.
    """
    if c < -1.0 + 1e-9:
        raise AntiparallelHeading("heading antiparallel to the reference axis")
    k = 1.0 / (1.0 + c)
    off = -k * e0 * e1
    return ((1.0 - k * e0 * e0, off, e0),
            (off, 1.0 - k * e1 * e1, e1),
            (-e0, -e1, 1.0 - k * (e0 * e0 + e1 * e1)))


def heading_tangent_basis(eta) -> tuple:
    """Deterministic orthonormal pair spanning the plane perpendicular to the
    unit heading eta (three floats), as the float rows b1, b2.

    Used wherever a 2-D coordinate chart on the unit sphere is needed at a
    known heading (heading noise injection, heading residuals).
    """
    # unit3(eta x e_x), or unit3(eta x e_y) when eta is near the x axis,
    # then unit3(cross3(eta, b1)), written out in the helpers' order
    e0, e1, e2 = eta
    if abs(e0) < 0.9:
        a0, a1, a2 = 0.0, e2, -e1
    else:
        a0, a1, a2 = -e2, 0.0, e0
    n = math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
    a0, a1, a2 = a0 / n, a1 / n, a2 / n
    c0 = e1 * a2 - e2 * a1
    c1 = e2 * a0 - e0 * a2
    c2 = e0 * a1 - e1 * a0
    n = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    return (a0, a1, a2), (c0 / n, c1 / n, c2 / n)


def decompose_roll(rows) -> tuple[tuple[float, float, float], float]:
    """Split a rotation, given as three float rows, into (heading, roll).

    heading = R @ ez, as three floats; roll is the residual rotation about
    the body z axis measured against the minimal-rotation frame at that
    heading. roll is in (-pi, pi].
    """
    (r00, _, e0), (r10, _, e1), (r20, _, c) = rows
    A = _align_rows(e0, e1, c)
    # (A^T R)[1, 0] and (A^T R)[0, 0]
    theta = math.atan2(A[0][1] * r00 + A[1][1] * r10 + A[2][1] * r20,
                       A[0][0] * r00 + A[1][0] * r10 + A[2][0] * r20)
    if theta == -math.pi:
        theta = math.pi
    return (e0, e1, c), theta


def recompose_roll(eta, roll: float) -> tuple:
    """Rotation with the heading eta (three floats, any nonzero length) and
    the given roll, as three float rows; inverse of decompose_roll."""
    e0, e1, e2 = eta
    n = math.sqrt(e0 * e0 + e1 * e1 + e2 * e2)
    if n < 1e-12:
        raise ValueError("heading must be a nonzero vector")
    c, s = math.cos(roll), math.sin(roll)
    # rows of the minimal rotation onto eta / n, times rot_z(roll)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = _align_rows(
        e0 / n, e1 / n, e2 / n)
    return ((c * a00 + s * a01, c * a01 - s * a00, a02),
            (c * a10 + s * a11, c * a11 - s * a10, a12),
            (c * a20 + s * a21, c * a21 - s * a20, a22))


def register_points(A, B) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares rigid transform T(a) = R a + t with T(A) ~= B.

    A and B are (N, 3) corresponding point sets, N >= 3 and not collinear.
    Returns the arrays (R, t) and the FRE, the root-mean-square residual
    ||T(a_i) - b_i|| over the correspondences.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[1] != 3:
        raise DegenerateConfiguration("point sets must both be (N, 3)")
    n = A.shape[0]
    if n < 3:
        raise DegenerateConfiguration("need at least 3 correspondences")
    ca = A.mean(axis=0)
    cb = B.mean(axis=0)
    Ac = A - ca
    Bc = B - cb
    sA = np.linalg.svd(Ac, compute_uv=False)
    if sA[1] < 1e-8 * max(sA[0], 1e-12):
        raise DegenerateConfiguration("points are collinear")
    H = Ac.T @ Bc
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    t = cb - R @ ca
    res = A @ R.T + t - B
    fre = math.sqrt(float(np.mean(np.sum(res * res, axis=1))))
    return R, t, fre
