import math

import numpy as np
import pytest

from needleroll import ekf
from needleroll.ekf import (
    EkfRollTracker,
    EkfState,
    SingularInnovation,
    align_jacobian,
    default_process_noise,
    init_state,
    measurement_jacobian,
    measurement_noise_for,
    predict,
    roll_variance,
    transition_jacobian,
    update,
)
from needleroll.plant import (
    GELATIN,
    ControlInput,
    SensedTip,
    advance_tip_pose,
    initial_state,
    rigid_variant,
    sense,
    step,
    tip_step,
)
from needleroll.se3 import (
    angular_error,
    cross3,
    decompose_roll,
    dot3,
    heading_tangent_basis,
    recompose_roll,
    so3_exp,
    unit3,
    wrap_angle,
)
from oracles import quat_from_matrix, rot_z

EZ = np.array([0.0, 0.0, 1.0])
DT = 1.0 / 40.0
KAPPA = GELATIN.curvature
NO_NOISE = np.zeros((6, 6))


def reference_so3_log(R):
    """Rotation vector of a rotation matrix, through the quaternion form,
    which stays accurate near 0 and pi; the finite-difference Jacobians
    below read their rotation columns with it."""
    q = quat_from_matrix(R)
    nv = np.linalg.norm(q[1:])
    scale = 2.0 if nv < 1e-12 else 2.0 * math.atan2(nv, q[0]) / nv
    return scale * q[1:]


def reference_skew(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def reference_align_from_z(eta):
    """Minimal rotation taking +z onto the unit vector eta: I + K + K^2/(1+c),
    K = skew(z x eta)."""
    K = reference_skew(np.cross(EZ, eta))
    return np.eye(3) + K + K @ K / (1.0 + eta[2])


def rotation(w):
    """so3_exp's rows for a rotation-vector array w, as a matrix."""
    return np.array(so3_exp(w.tolist()))


def tangent_basis(eta):
    """heading_tangent_basis's rows for a heading array eta, as a (2, 3)
    array."""
    return np.array(heading_tangent_basis(eta.tolist()))


def random_rotation(rng, spread=0.5):
    return rotation(rng.normal(size=3) * spread)


def mean_map(p, R, u):
    out = predict(EkfState(p, R, np.eye(6)), u, KAPPA, DT, NO_NOISE)
    return np.array(out.position), np.array(out.rotation)


def assert_float_rows(position, rotation):
    """position is a tuple of three floats and rotation a tuple of three
    such rows, the mean's convention."""
    assert type(position) is tuple and len(position) == 3
    assert type(rotation) is tuple and len(rotation) == 3
    for v in (position, *rotation):
        assert type(v) is tuple and len(v) == 3
        assert all(type(x) is float for x in v)


def mean_step(R, u):
    """(eta, roll_new, move) of predict's step from the prior rotation R:
    move is tip_step at the one roll increment roll_new - roll that the
    mean and F share."""
    eta, roll = decompose_roll(R)
    roll_new = roll + u.rotation_speed * DT
    return eta, roll_new, tip_step(u.insertion_speed, KAPPA, roll_new - roll,
                                   DT)


# ------------------------------------------------------------ state validity

SHEAR = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
NAN_ROTATION = np.eye(3)
NAN_ROTATION[1, 2] = np.nan


def test_state_validation():
    for R in (SHEAR, NAN_ROTATION, 2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0]),
              np.eye(4), np.eye(3)[:2], None):
        with pytest.raises(ValueError):
            EkfState(np.zeros(3), R, np.eye(6))
    for p in (np.zeros(2), np.zeros(4), None, ("a", 0.0, 0.0)):
        with pytest.raises(ValueError):
            EkfState(p, np.eye(3), np.eye(6))
    with pytest.raises(ValueError):
        EkfState(np.zeros(3), np.eye(3), np.eye(5))
    bad = np.eye(6)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        EkfState(np.zeros(3), np.eye(3), bad)


def test_state_replace_and_make_check_like_the_constructor():
    """_replace and _make reject what the constructor rejects, and convert
    what it converts."""
    good = EkfState(np.zeros(3), np.eye(3), np.eye(6))
    bad_sym = np.eye(6)
    bad_sym[0, 1] = 0.5
    nan_cov = np.eye(6)
    nan_cov[2, 3] = nan_cov[3, 2] = np.nan
    for field, value in (("rotation", SHEAR), ("rotation", NAN_ROTATION),
                         ("rotation", 2.0 * np.eye(3)),
                         ("covariance", np.eye(5)), ("covariance", bad_sym),
                         ("covariance", nan_cov)):
        with pytest.raises(ValueError):
            EkfState(**dict(good._asdict(), **{field: value}))
        with pytest.raises(ValueError):
            good._replace(**{field: value})
        with pytest.raises(ValueError):
            EkfState._make(dict(good._asdict(), **{field: value}).values())
    for st in (good._replace(position=[1, 2, 3]),
               EkfState._make(([1, 2, 3], np.eye(3).astype(int), np.eye(6)))):
        assert type(st) is EkfState
        assert_float_rows(st.position, st.rotation)
        assert st.position == (1.0, 2.0, 3.0)
        assert st.rotation == tuple(map(tuple, np.eye(3).tolist()))


@pytest.mark.parametrize("kind", ["float arrays", "lists", "int arrays",
                                  "float tuples"])
def test_state_checks_fire_on_every_input_kind(kind):
    """The inputs of test_state_validation are rejected, and a valid state
    accepted, its mean converted to float tuples and its covariance to a
    float array, whether the fields come as float arrays, lists, int arrays
    or float tuples, the mean's own type."""
    def as_kind(a):
        a = np.asarray(a)
        if kind == "lists":
            return a.tolist()
        if kind == "float tuples":
            return (tuple(map(tuple, a.tolist())) if a.ndim == 2
                    else tuple(a.tolist()))
        if kind == "int arrays" and np.array_equal(a, np.trunc(a)):
            return a.astype(int)
        return a

    bad_sym = np.eye(6)
    bad_sym[0, 1] = 0.5
    nan_cov = np.eye(6)
    nan_cov[2, 3] = nan_cov[3, 2] = np.nan
    eye = np.eye(3)
    for R, C in ((SHEAR, np.eye(6)), (NAN_ROTATION, np.eye(6)),
                 (2.0 * eye, np.eye(6)),
                 (eye, np.eye(5)), (eye, bad_sym), (eye, nan_cov)):
        with pytest.raises(ValueError):
            EkfState(as_kind(np.zeros(3)), as_kind(R), as_kind(C))
    st = EkfState(as_kind(np.array([1.0, 2.0, 3.0])), as_kind(eye),
                  as_kind(2.0 * np.eye(6)))
    assert_float_rows(st.position, st.rotation)
    assert type(st.covariance) is np.ndarray
    assert st.covariance.dtype == np.float64
    assert st.position == (1.0, 2.0, 3.0)
    assert st.covariance.tolist() == (2.0 * np.eye(6)).tolist()
    assert st.rotation == tuple(map(tuple, np.eye(3).tolist()))


def test_state_symmetry_check_is_allclose():
    """EkfState accepts a covariance exactly when np.allclose(C, C.T,
    atol=1e-9) holds, NaN and inf entries included."""
    rng = np.random.default_rng(4)
    cases = []
    for _ in range(200):
        A = rng.normal(size=(6, 6)) * 10.0 ** rng.integers(-6, 4)
        C = A + A.T
        i, j = rng.integers(0, 6, size=2)
        kind = rng.integers(0, 5)
        if kind == 1:  # asymmetry right around the tolerance
            C[i, j] += (1e-9 + 1e-5 * abs(C[j, i])) * rng.uniform(0.5, 1.5)
        elif kind == 2:
            C[i, j] = np.nan
        elif kind == 3:
            C[i, j] = C[j, i] = np.inf
        elif kind == 4:
            C[i, j] = -np.inf
        cases.append(C)
    # bitwise-mirrored NaNs, which the exact-symmetry shortcut must not pass,
    # and opposite infinities, whose sum is NaN too
    mirrored_nan, diagonal_nan, opposite_inf = np.eye(6), np.eye(6), np.eye(6)
    mirrored_nan[1, 4] = mirrored_nan[4, 1] = np.nan
    diagonal_nan[2, 2] = np.nan
    opposite_inf[0, 0], opposite_inf[3, 3] = np.inf, -np.inf
    cases += [mirrored_nan, diagonal_nan, opposite_inf]
    for C in cases:
        try:
            EkfState(np.zeros(3), np.eye(3), C)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == np.allclose(C, C.T, atol=1e-9)


def test_state_rotation_check_is_the_seven_gap_rule():
    """EkfState accepts a rotation exactly when its three row norms, three
    row products and determinant each lie within 1e-9 of a rotation's, the
    seven gaps taken in float arithmetic from its rows; NaN and inf entries
    included."""
    def gaps_hold(R):
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = R.tolist()
        gaps = (a0 * a0 + a1 * a1 + a2 * a2 - 1.0,
                b0 * b0 + b1 * b1 + b2 * b2 - 1.0,
                c0 * c0 + c1 * c1 + c2 * c2 - 1.0,
                a0 * b0 + a1 * b1 + a2 * b2,
                a0 * c0 + a1 * c1 + a2 * c2,
                b0 * c0 + b1 * c1 + b2 * c2,
                (a1 * b2 - a2 * b1) * c0 + (a2 * b0 - a0 * b2) * c1
                + (a0 * b1 - a1 * b0) * c2 - 1.0)
        return all(abs(g) <= 1e-9 for g in gaps)

    rng = np.random.default_rng(6)
    cases = [SHEAR, NAN_ROTATION, 2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0])]
    for _ in range(2000):
        R = random_rotation(rng, spread=2.0)
        kind = rng.integers(0, 4)
        if kind == 1:  # one entry moved around the tolerance
            R[tuple(rng.integers(0, 3, size=2))] += (
                rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10.5, -8.5))
        elif kind == 2:
            R[tuple(rng.integers(0, 3, size=2))] = rng.choice(
                [np.nan, np.inf, -np.inf])
        elif kind == 3:  # a reflection
            R[rng.integers(0, 3)] *= -1.0
        cases.append(R)
    verdicts = set()
    for R in cases:
        try:
            EkfState(np.zeros(3), R, np.eye(6))
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == gaps_hold(R)
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_init_state_defaults():
    st = init_state()
    assert_float_rows(st.position, st.rotation)
    assert st.position == (0.0, 0.0, 0.0)
    assert st.rotation == tuple(map(tuple, np.eye(3).tolist()))
    assert np.allclose(st.covariance, 1e-4 * np.eye(6))


# ------------------------------------------------------------ align jacobian

def test_align_jacobian_identity_heading():
    # at eta = z the minimal rotation is I and d rho = z cross d eta
    J = align_jacobian(EZ)
    assert np.allclose(J @ np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                       atol=1e-12)
    assert np.allclose(J @ np.array([0.0, 1.0, 0.0]), np.array([-1.0, 0.0, 0.0]),
                       atol=1e-12)


def test_align_jacobian_matches_finite_differences():
    rng = np.random.default_rng(0)
    eps = 1e-7
    for _ in range(50):
        eta = rng.normal(size=3)
        eta /= np.linalg.norm(eta)
        if eta[2] < -0.5:
            continue
        J = align_jacobian(eta)
        b1, b2 = tangent_basis(eta)
        for d in (b1, b2):
            drift = reference_so3_log(
                reference_align_from_z(eta).T
                @ reference_align_from_z((eta + eps * d) / np.linalg.norm(eta + eps * d))
            ) / eps
            assert np.allclose(J @ d, drift, atol=1e-6)


# ------------------------------------------------------------------ predict

def test_predict_no_input_no_noise_is_identity():
    rng = np.random.default_rng(1)
    st = EkfState(rng.normal(size=3), random_rotation(rng), 1e-3 * np.eye(6))
    out = predict(st, ControlInput(0.0, 0.0), KAPPA, DT, NO_NOISE)
    assert np.allclose(out.position, st.position, atol=1e-12)
    assert np.allclose(out.rotation, st.rotation, atol=1e-12)
    assert np.allclose(out.covariance, st.covariance, atol=1e-12)


def test_transition_jacobian_matches_central_differences():
    rng = np.random.default_rng(2)
    eps = 1e-6
    for _ in range(25):
        R = random_rotation(rng, spread=0.4)
        p = rng.normal(size=3) * 20.0
        u = ControlInput(rng.uniform(0.0, 5.0), rng.uniform(-7.0, 7.0))
        F = transition_jacobian(R.tolist(), *mean_step(R, u))
        p0, R0 = mean_map(p, R, u)
        for j in range(6):
            d = np.zeros(6)
            d[j] = eps
            pp, Rp = mean_map(p + d[:3], R @ rotation(d[3:]), u)
            pm, Rm = mean_map(p - d[:3], R @ rotation(-d[3:]), u)
            col = (np.concatenate([pp - p0, reference_so3_log(R0.T @ Rp)])
                   - np.concatenate([pm - p0, reference_so3_log(R0.T @ Rm)])) / (2 * eps)
            assert np.abs(F[:, j] - col).max() < 1e-6


def test_jacobian_products_are_their_matmul_formulas_bitwise():
    """The ndarray.dot products inside the Jacobians give the bits of their
    @ formulas: transition_jacobian's rotation block is rot_z(-roll_new)
    align_jacobian(eta_new) N plus the roll row's correction, and
    measurement_jacobian's heading rows are read from B^T R, with B the
    transposed tangent basis that update passes."""
    rng = np.random.default_rng(23)
    for _ in range(200):
        R = random_rotation(rng, spread=1.0)
        rows = R.tolist()
        u = ControlInput(rng.uniform(0.0, 5.0), rng.uniform(-7.0, 7.0))
        eta, roll_new, move = mean_step(R, u)
        m = move[1]
        N = np.array([cross3(m, r) for r in rows])
        eta_new = unit3([dot3(r, m) for r in rows])
        D = rot_z(-roll_new) @ align_jacobian(eta_new) @ N
        g = align_jacobian(eta)[2]
        D[2] += (dot3(g, R[:, 1]), -dot3(g, R[:, 0]), 1.0)
        F = transition_jacobian(rows, eta, roll_new, move)
        assert F[3:, 3:].tobytes() == D.tobytes()

        B = tangent_basis(R[:, 2]).T
        (s00, s01, _), (s10, s11, _) = (B.T @ R).tolist()
        H = measurement_jacobian(R, B)
        assert H[3:, 3:].tolist() == [[-s01, s00, 0.0], [-s11, s10, 0.0]]


def test_predicted_mean_tracks_rigid_plant():
    """Exact init, zero noise: the filter mean must reproduce the rigid
    plant trajectory to 1e-9 over 100 steps. The rotation comparison is
    element-wise because the trace-based angle metric bottoms out at
    sqrt(machine eps) ~ 1.5e-8 and cannot resolve 1e-9."""
    medium = rigid_variant(GELATIN)
    rng = np.random.default_rng(3)
    plant = initial_state()
    filt = init_state()
    for _ in range(100):
        u = ControlInput(rng.uniform(0.0, 5.0), rng.uniform(-7.0, 7.0))
        plant = step(plant, u, medium, DT)
        filt = predict(filt, u, KAPPA, DT, NO_NOISE)
        assert np.abs(np.subtract(filt.position, plant.p)).max() < 1e-9
        assert np.abs(np.subtract(filt.rotation, plant.rows)).max() < 1e-9


def random_state(rng) -> EkfState:
    """A state off the identity with a dense covariance, bitwise symmetric
    as predict and update leave it."""
    A = rng.normal(size=(6, 6)) * 0.1
    C = A @ A.T + 1e-3 * np.eye(6)
    return EkfState(rng.normal(size=3) * 10.0, random_rotation(rng),
                    0.5 * (C + C.T))


def test_predict_covariance_uses_the_tested_jacobian_bitwise():
    """predict's covariance is 0.5 (C + C^T), C = F P F^T + Q dt, byte for
    byte, with F = transition_jacobian at the prior rotation's rows and
    heading and the mean's roll step: the filter runs the Jacobian the
    finite-difference test checks, not a copy of it."""
    rng = np.random.default_rng(20)
    q = default_process_noise()
    for _ in range(100):
        st = random_state(rng)
        u = ControlInput(rng.uniform(0.0, 5.0),
                         rng.choice([-2 * math.pi, 0.0, rng.uniform(-7.0, 7.0)]))
        rows = st.rotation
        F = transition_jacobian(rows, *mean_step(rows, u))
        C = F @ st.covariance @ F.T + q * DT
        expected = 0.5 * (C + C.T)
        assert predict(st, u, KAPPA, DT, q).covariance.tobytes() == \
            expected.tobytes()


def test_predict_inflates_covariance_with_process_noise():
    st = init_state()
    out = predict(st, ControlInput(5.0, 1.0), KAPPA, DT, default_process_noise())
    assert np.trace(out.covariance) > np.trace(st.covariance)


# ------------------------------------------------------------------- update

def test_update_at_predicted_mean_leaves_mean_fixed():
    rng = np.random.default_rng(4)
    R = random_rotation(rng)
    st = EkfState(rng.normal(size=3) * 10.0, R, 1e-2 * np.eye(6))
    meas = SensedTip(position=st.position, heading=tuple(R[:, 2].tolist()))
    noise = measurement_noise_for(0.3, 0.005)
    out = update(st, meas, noise)
    assert np.allclose(out.position, st.position, atol=1e-12)
    assert angular_error(out.rotation, R) < 1e-12
    assert np.trace(out.covariance) <= np.trace(st.covariance) + 1e-15


def test_measurement_jacobian_matches_central_differences():
    rng = np.random.default_rng(5)
    eps = 1e-6
    for _ in range(25):
        R = random_rotation(rng)
        p = rng.normal(size=3) * 10.0
        eta = R[:, 2]
        b1, b2 = tangent_basis(eta)
        B = np.column_stack([b1, b2])
        H = measurement_jacobian(R, B)

        def h(pp, RR):
            return np.concatenate([pp, B.T @ RR[:, 2]])

        for j in range(6):
            d = np.zeros(6)
            d[j] = eps
            hp = h(p + d[:3], R @ rotation(d[3:]))
            hm = h(p - d[:3], R @ rotation(-d[3:]))
            col = (hp - hm) / (2 * eps)
            assert np.abs(H[:, j] - col).max() < 1e-6


def test_update_uses_the_tested_jacobian_bitwise():
    """update's Joseph-form covariance reproduces byte for byte from
    H = measurement_jacobian(R, B), B the transposed (2, 3) tangent basis,
    and so does its mean. BLAS rounding of the heading residual depends on
    B's memory layout (a C-contiguous (3, 2) copy changes about a quarter of
    the residuals), so the mean's rotation pins that layout."""
    rng = np.random.default_rng(21)
    noise = measurement_noise_for(GELATIN.position_noise, GELATIN.heading_noise)
    for _ in range(100):
        st = random_state(rng)
        R, P = np.array(st.rotation), st.covariance
        position = np.array(st.position)
        meas = SensedTip(position=position + rng.normal(0.0, 0.3, size=3),
                         heading=_tilted(R[:, 2], rng, 0.01))
        B = tangent_basis(R[:, 2]).T
        H = measurement_jacobian(R, B)
        HP = H @ P
        gain = np.linalg.solve(HP @ H.T + noise, HP).T
        IKH = np.eye(6) - gain @ H
        C = IKH @ P @ IKH.T + gain @ noise @ gain.T
        residual = np.concatenate([meas.position - position,
                                   (meas.heading - R[:, 2]) @ B])
        correction = gain @ residual
        out = update(st, meas, noise)
        assert out.covariance.tobytes() == (0.5 * (C + C.T)).tobytes()
        assert np.array(out.position).tobytes() == \
            (position + correction[:3]).tobytes()
        assert np.array(out.rotation).tobytes() == \
            (R @ rotation(correction[3:])).tobytes()


def test_direct_gain_solve_is_np_linalg_solve_bitwise():
    """update's gesv gufunc call gives np.linalg.solve's bits on SPD 5x5
    innovation systems with a (5, 6) right-hand side, over scales from
    well to badly conditioned, and H keeps its C-contiguous layout."""
    rng = np.random.default_rng(22)
    for _ in range(500):
        A = rng.normal(size=(5, 5)) * 10.0 ** rng.integers(-4, 3)
        S = A @ A.T + np.diag(rng.uniform(1e-8, 1.0, size=5))
        HP = rng.normal(size=(5, 6)) * 10.0 ** rng.integers(-4, 3)
        got = ekf._solve(S, HP, signature="dd->d")
        assert got.tobytes() == np.linalg.solve(S, HP).tobytes()
    R = random_rotation(rng)
    H = measurement_jacobian(R, tangent_basis(R[:, 2]).T)
    assert H.shape == (5, 6) and H.flags.c_contiguous


def test_update_roll_direction_unobservable():
    # body-z error direction is in the null space of the measurement model
    rng = np.random.default_rng(6)
    for _ in range(20):
        R = random_rotation(rng)
        eta = R[:, 2]
        b1, b2 = tangent_basis(eta)
        H = measurement_jacobian(R, np.column_stack([b1, b2]))
        null_dir = np.concatenate([np.zeros(3), EZ])
        assert np.abs(H @ null_dir).max() < 1e-12


def test_joseph_update_keeps_covariance_psd():
    """10^4 alternating predict/update steps with random inputs: covariance
    stays symmetric with eigenvalues >= -1e-9."""
    rng = np.random.default_rng(7)
    st = init_state()
    q = default_process_noise()
    noise = measurement_noise_for(GELATIN.position_noise, GELATIN.heading_noise)
    for i in range(10_000):
        u = ControlInput(rng.uniform(0.0, 5.0), rng.uniform(-7.0, 7.0))
        st = predict(st, u, KAPPA, DT, q)
        meas = SensedTip(
            position=np.array(st.position) + rng.normal(0.0, 0.3, size=3),
            heading=_tilted(np.array(st.rotation)[:, 2], rng, 0.01),
        )
        st = update(st, meas, noise)
        if i % 100 == 0:
            assert np.allclose(st.covariance, st.covariance.T, atol=1e-12)
            assert np.linalg.eigvalsh(st.covariance).min() >= -1e-9
    assert np.linalg.eigvalsh(st.covariance).min() >= -1e-9


def _tilted(eta, rng, sigma):
    b1, b2 = tangent_basis(eta)
    ang = rng.normal(0.0, sigma)
    az = rng.uniform(0.0, 2 * math.pi)
    out = rotation((math.cos(az) * b1 + math.sin(az) * b2) * ang) @ eta
    return out / np.linalg.norm(out)


def test_singular_innovation_raises():
    st = EkfState(np.zeros(3), np.eye(3), np.zeros((6, 6)))
    meas = SensedTip(position=np.zeros(3), heading=EZ.copy())
    # the gesv gufunc returns NaN for a singular S, with numpy's warning
    with pytest.warns(RuntimeWarning, match="invalid value"), \
            pytest.raises(SingularInnovation, match="non-finite"):
        update(st, meas, np.zeros((5, 5)))


def test_measurement_noise_matches_sensor_statistics():
    # per-tangent-component variance of the tilt model is sigma^2/2
    rng = np.random.default_rng(8)
    eta = np.array([0.1, -0.2, 0.97])
    eta /= np.linalg.norm(eta)
    b1, b2 = tangent_basis(eta)
    sigma = 0.02
    coords = []
    for _ in range(20_000):
        h = _tilted(eta, rng, sigma)
        coords.append([np.dot(b1, h), np.dot(b2, h)])
    var = np.var(np.array(coords), axis=0)
    expect = measurement_noise_for(0.0, sigma)[3, 3]
    assert np.allclose(var, expect, rtol=0.05)
    assert expect == pytest.approx(sigma * sigma / 2.0)


# -------------------------------------------------------------- whole filter

def run_filter_episode(medium, controls, seed, q=None, exact_plant=None):
    plant = initial_state() if exact_plant is None else exact_plant
    rng = np.random.default_rng(seed)
    filt = init_state()
    q = default_process_noise() if q is None else q
    noise = measurement_noise_for(medium.position_noise, medium.heading_noise)
    omegas, roll_vars, depths = [], [], []
    for u in controls:
        plant = step(plant, u, medium, DT)
        filt = predict(filt, u, KAPPA, DT, q)
        meas = sense(plant, medium, rng)
        filt = update(filt, meas, noise)
        omegas.append(angular_error(filt.rotation, np.array(plant.rows)))
        roll_vars.append(roll_variance(filt))
        depths.append(plant.depth)
    return np.array(omegas), np.array(roll_vars), np.array(depths)


def test_rigid_plant_matched_noise_small_angular_error():
    medium = rigid_variant(GELATIN)
    rng = np.random.default_rng(9)
    controls = [ControlInput(5.0, rng.choice([-2 * math.pi, 0.0, 2 * math.pi]))
                for _ in range(400)]
    omegas, _, _ = run_filter_episode(medium, controls, seed=10)
    assert omegas.mean() < 3.0 * medium.heading_noise


def test_compliant_plant_angular_error_is_the_torsion_windup():
    """Roll is unobservable, so the filter's orientation error under a
    constant spin equals the wound-up base-to-tip lag (wrapped), up to the
    small heading-noise corrections the update applies."""
    controls = [ControlInput(5.0, 2.0 * math.pi)] * 560
    plant = initial_state()
    rng = np.random.default_rng(11)
    filt = init_state()
    q = default_process_noise()
    noise = measurement_noise_for(GELATIN.position_noise, GELATIN.heading_noise)
    omegas, windups = [], []
    for u in controls:
        plant = step(plant, u, GELATIN, DT)
        filt = predict(filt, u, KAPPA, DT, q)
        filt = update(filt, sense(plant, GELATIN, rng), noise)
        omegas.append(angular_error(filt.rotation, np.array(plant.rows)))
        windups.append(plant.base_angle - plant.tip_roll)
    omegas = np.array(omegas)
    expected = np.abs([wrap_angle(w) for w in windups])
    assert np.abs(omegas - expected).max() < 0.05
    assert windups[-1] > windups[0] + 2.0  # lag keeps winding up with depth


def test_roll_variance_never_drops_below_update_floor():
    """Roll error is unobservable, so across a predict+update cycle the
    (5, 5) body-z variance cannot decrease by more than the tiny amount the
    off-diagonal couplings allow; over an episode it grows steadily."""
    rng = np.random.default_rng(13)
    plant = initial_state()
    noise_rng = np.random.default_rng(14)
    filt = init_state()
    q = default_process_noise()
    noise = measurement_noise_for(GELATIN.position_noise, GELATIN.heading_noise)
    prev_cycle = roll_variance(filt)
    for i in range(400):
        u = ControlInput(5.0, rng.uniform(-7.0, 7.0))
        plant = step(plant, u, GELATIN, DT)
        filt = predict(filt, u, KAPPA, DT, q)
        after_predict = roll_variance(filt)
        filt = update(filt, sense(plant, GELATIN, noise_rng), noise)
        after_update = roll_variance(filt)
        # the update may shave only a sliver of what predict added
        assert after_update > after_predict - 0.5 * (after_predict - prev_cycle)
        assert after_update > prev_cycle - 1e-12
        prev_cycle = after_update
    assert prev_cycle > roll_variance(init_state()) * 10


# ------------------------------------------------------------ estimate pose

def test_estimate_pose_identity_and_roundtrip():
    """A noiseless reading at the entry pose leaves the tracker's estimate
    at the identity's rows and the origin; a mean's rows decompose and
    recompose to the same rotation."""
    tracker = EkfRollTracker(GELATIN)
    rows, p = tracker.estimate(SensedTip((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
                               0.0)
    assert rows == tuple(map(tuple, np.eye(3).tolist()))
    assert p == (0.0, 0.0, 0.0)
    rng = np.random.default_rng(15)
    R = random_rotation(rng)
    eta, roll = decompose_roll(R.tolist())
    assert np.allclose(recompose_roll(eta, roll), R, atol=1e-10)


def test_state_rotation_is_the_mean_itself():
    """A state holds its rotation as the float rows it is given, with the
    same bits, keeps a float covariance array as given, without freezing
    the caller's array, and predict's mean is advance_tip_pose's rows and
    position, bit for bit."""
    rng = np.random.default_rng(19)
    R = random_rotation(rng)
    C = np.eye(6)
    state = EkfState(np.zeros(3), R, C)
    assert np.array(state.rotation).tobytes() == R.tobytes()
    assert state.covariance is C and C.flags.writeable
    # a named tuple's field: FrozenInstanceError's base class
    with pytest.raises(AttributeError):
        state.rotation = np.eye(3)
    u = ControlInput(5.0, 2.0)
    out = predict(state, u, KAPPA, DT, NO_NOISE)
    _, roll_new, move = mean_step(R, u)
    rows, p = advance_tip_pose(R.tolist(), (0.0, 0.0, 0.0), move, roll_new)
    assert_float_rows(out.position, out.rotation)
    assert np.array(out.rotation).tobytes() == np.array(rows).tobytes()
    assert np.array(out.position).tobytes() == np.array(p).tobytes()


def test_predict_steps_mean_and_jacobian_by_one_roll_increment(monkeypatch):
    """F's translation block is built from the roll increment the mean steps
    by, roll_new - roll, at a prior roll and speed where that increment and
    speed * dt round apart and move the step's translation."""
    R = np.array(recompose_roll((0.0, 0.0, 1.0), 1.0))
    u = ControlInput(5.0, 2.0)
    _, roll_new, (m_p, _) = mean_step(R, u)
    assert roll_new - decompose_roll(R)[1] != u.rotation_speed * DT
    assert m_p != tip_step(u.insertion_speed, KAPPA,
                           u.rotation_speed * DT, DT)[0]

    built = []

    def spy(*args):
        built.append(transition_jacobian(*args))
        return built[-1]

    monkeypatch.setattr(ekf, "transition_jacobian", spy)
    predict(EkfState(np.zeros(3), R, np.eye(6)), u, KAPPA, DT, NO_NOISE)
    expected = np.array([cross3(m_p, r) for r in R.tolist()])
    assert len(built) == 1
    assert built[0][:3, 3:].tobytes() == expected.tobytes()


def test_estimate_pose_matches_propagated_mean():
    """Each tracker estimate is its filter mean after predict and update:
    the state's own float rows and floats."""
    tracker = EkfRollTracker(GELATIN)
    rng = np.random.default_rng(16)
    plant = initial_state()
    for _ in range(3):
        rows, p = tracker.estimate(sense(plant, GELATIN, rng),
                                   plant.base_angle)
        assert rows is tracker.state.rotation
        assert p is tracker.state.position
        assert_float_rows(p, rows)
        plant = step(plant, ControlInput(5.0, 2.0), GELATIN, DT)
