"""Shared test utilities: hypothesis strategies and independent oracles."""

import math

import numpy as np
from hypothesis import strategies as st

from ssmkit.errors import DegenerateInputError, NoSolutionError, UnreachableError
from ssmkit.kinematics import SINGULARITY_TOL, IkSolutionSet, JointState, probe_point_defaults
from ssmkit.screws import normalize_angle, rodrigues
from ssmkit.subproblems import _rotation_angle, _two_axis_points, subproblem3prime


def _spherical(cos_polar, azimuth):
    s = math.sqrt(max(0.0, 1.0 - cos_polar * cos_polar))
    return np.array([s * math.cos(azimuth), s * math.sin(azimuth), cos_polar])


unit_vectors = st.builds(
    _spherical, st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi)
)

angles = st.floats(-math.pi, math.pi)


def hat(w):
    x, y, z = w
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def expm_series(m, terms=40):
    """Plain truncated matrix-exponential series, independent of Rodrigues."""
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-math.pi, math.pi)
    return expm_series(hat(axis) * angle)


def line_scan_multiplicity(v, p, q, delta, n=20001):
    """
    Count line-sphere intersections by densely sampling the point-to-line
    distance. The sampled minimum overshoots the true one by at most half
    a grid step, so draws within that margin of tangency are reported as
    unclassifiable (None) instead of being guessed.
    """
    u = q - p
    center = float(u @ v)
    half_width = delta + float(np.linalg.norm(u)) + 1.0
    grid = center + np.linspace(-half_width, half_width, n)
    dist = np.sqrt(((u[None, :] - grid[:, None] * v[None, :]) ** 2).sum(axis=1))
    dmin = float(dist.min())
    margin = 2.0 * (2.0 * half_width / (n - 1))
    if abs(delta - dmin) < margin:
        return None
    return 2 if delta > dmin else 0


def segment_oracle(v, tol):
    """Greedy running-mean plateau split over numpy scalars."""
    segments = []
    start = 0
    total = v[0]
    for i in range(1, v.size):
        if abs(v[i] - total / (i - start)) > tol:
            segments.append((start, i))
            start = i
            total = v[i]
        else:
            total += v[i]
    segments.append((start, v.size))
    return segments


def breakaway_walk_oracle(t, v, tau, velocity_tolerance, min_duration_s,
                          rest_fraction=1e-3, min_rest_s=0.1):
    """
    Quadratic reference for `extract_breakaway_samples` on one joint: each
    plateau walks back over every earlier sample to find its rest. A rest
    gives at most one sample, to the first plateau after it.
    """
    used_rests = set()
    samples = []
    for i0, i1 in segment_oracle(v, velocity_tolerance):
        level = float(np.mean(v[i0:i1]))
        if abs(level) <= velocity_tolerance:
            continue
        if t[i1 - 1] - t[i0] < min_duration_s:
            continue
        threshold = rest_fraction * abs(level)
        j = i0
        while j > 0 and abs(v[j - 1]) > threshold:
            j -= 1
        if j == 0:
            continue
        rest_end = j - 1
        if rest_end in used_rests:
            continue
        rest_start = rest_end
        while rest_start > 0 and abs(v[rest_start - 1]) <= threshold:
            rest_start -= 1
        if t[rest_end] - t[rest_start] < min_rest_s:
            continue
        used_rests.add(rest_end)
        samples.append((1 if level > 0 else -1, float(tau[rest_end + 1])))
    return samples


def bisect_root(f, lo, hi):
    """
    Plain bisection on [lo, hi], which must bracket a sign change of f,
    down to adjacent floats. A zero at either end is returned as is.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    assert (f_lo < 0.0) != (f_hi < 0.0), "no sign change in the bracket"
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def reflection_sum_oracle(rho, lam):
    """1/eta_driving + eta_overhauling of an inclined plane at friction angle rho."""
    return (math.tan(lam + rho) + max(0.0, math.tan(lam - rho))) / math.tan(lam)


def mu_c_oracle(target, lam):
    """mu = tan(rho) with reflection_sum_oracle(rho, lam) == target, by bisection."""
    hi = math.pi / 2.0 - lam - 1e-9
    return math.tan(bisect_root(lambda r: reflection_sum_oracle(r, lam) - target, 0.0, hi))


def breakaway_gap_oracle(mu, torque, b_c, s, load, ratio, lam):
    """Static model torque at friction mu minus a breakaway torque."""
    rho = math.atan(mu)
    if load * s > 0.0:
        reflected = load * math.tan(lam + rho) / (ratio * math.tan(lam))
    else:
        reflected = load * max(0.0, math.tan(lam - rho)) / (ratio * math.tan(lam))
    return b_c * s + reflected - torque


def mu_s_oracle(torque, b_c, s, load, ratio, lam):
    """Root in mu of breakaway_gap_oracle on [0, tan(pi/2 - lam - 1e-9)]."""
    hi = math.tan(math.pi / 2.0 - lam - 1e-9)
    return bisect_root(
        lambda mu: breakaway_gap_oracle(mu, torque, b_c, s, load, ratio, lam), 0.0, hi
    )


def probe_point_ik_oracle(geom, target, tol=1e-9):
    """
    The probe-point IK reduction, as a reference for `inverse_kinematics`:
    theta4 from the distance of a transformed tool-axis probe point to the
    remote center (`subproblem3prime`), (theta1, theta2) from a two-axis
    solve on a second probe point, theta3 from a single-axis solve on a
    third, each root checked against forward kinematics. Returns an
    IkSolutionSet or raises UnreachableError.
    """
    p1, p2, p3 = probe_point_defaults(geom)
    r1g = target.rotation @ geom.r0.T
    t1g = target.position

    g1p1 = r1g @ p1 + t1g
    delta = math.sqrt(float(g1p1 @ g1p1))
    if delta <= 1e-12:
        theta4_candidates = (-1.0,)
    else:
        theta4_candidates = subproblem3prime(geom.v4, p1, np.zeros(3), delta).solutions

    singular = float(np.linalg.norm(np.cross(r1g @ geom.v4, geom.omega1))) <= SINGULARITY_TOL

    branches = []
    for theta4 in theta4_candidates:
        q2 = r1g @ (p2 - geom.v4 * theta4) + t1g
        pairs = []
        if singular:
            try:
                pairs.append((0.0, _rotation_angle(geom.omega2, p2, q2, tol)))
            except (NoSolutionError, DegenerateInputError):
                pass
        else:
            for c in _two_axis_points(geom.omega1, geom.omega2, p2, q2, tol):
                try:
                    pairs.append((_rotation_angle(geom.omega1, c, q2, tol),
                                  _rotation_angle(geom.omega2, p2, c, tol)))
                except (NoSolutionError, DegenerateInputError):
                    continue
        for theta1, theta2 in pairs:
            r1 = rodrigues(geom.omega1, theta1)
            r2 = rodrigues(geom.omega2, theta2)
            q3 = r2.T @ (r1.T @ (r1g @ (p3 - geom.v4 * theta4) + t1g))
            try:
                theta3 = _rotation_angle(geom.omega3, p3, q3, tol)
            except (NoSolutionError, DegenerateInputError):
                continue
            r12 = r1 @ r2
            dp = r12 @ (geom.v4 * theta4) - target.position
            dr = r12 @ rodrigues(geom.omega3, theta3) @ geom.r0 - target.rotation
            pos_err = math.sqrt(float(dp @ dp))
            rot_err = math.sqrt(float((dr * dr).sum()))
            if pos_err < tol and rot_err < tol:
                state = JointState(normalize_angle(theta1), normalize_angle(theta2),
                                   normalize_angle(theta3), theta4)
                branches.append((state, (pos_err, rot_err)))

    if not branches:
        raise UnreachableError("no joint-space branch reproduces the target pose")
    branches.sort(key=lambda b: (b[0].theta4, b[0].theta1, b[0].theta2, b[0].theta3))
    return IkSolutionSet(tuple(b[0] for b in branches), tuple(b[1] for b in branches),
                         singular)


def savetxt_writer_oracle(path, columns, data, precision):
    """The row-at-a-time `np.savetxt` writer, as a byte-level reference for
    `csvfile.write_numeric_csv`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        np.savetxt(fh, data, fmt="%.{}g".format(precision), delimiter=",")
