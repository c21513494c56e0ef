"""
Friction identification: build steady-state torque-velocity maps from
telemetry and fit the static-plus-kinetic friction model of the dynamics
module.

Fit structure
-------------
On a map with points in both rotation directions the kinetic model

    tau(w) = b_c sign(w) + b_v w + reflect(load, sign(w); mu_c)

is linear in the per-direction intercepts (A+, A-) and the slope b_v, so
those are solved by weighted least squares. The intercept sum
A+ + A- = (load / ratio) * (1/eta_driving + eta_overhauling) depends on
the load only through the transmission friction, and the bracketed factor
is strictly increasing in the friction angle and inverts in closed form
(`_solve_mu_c`) for mu_c, and b_c follows by back-substitution. mu_c is
therefore only identifiable when a nonzero, unidirectional test load was
applied; with no load the transmission term vanishes from the data and
mu_c is reported as zero with a flag.

mu_s comes from breakaway torque samples (motor torque at motion onset
after a rest), solved in closed form against the static branch of the
dynamics model; without such samples mu_s defaults to mu_c, flagged.

All fitted coefficients are motor-side referenced: b_c and b_v act on the
motor velocity and torques are at the motor shaft.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import configfile, csvfile, dynamics
from .dynamics import Direction, FrictionParams, TransmissionSpec, efficiency
from .errors import (
    DomainError,
    InsufficientDataError,
    InvalidLogError,
    RankDeficientError,
)

VALID_JOINT_IDS = (1, 2, 3, 4)

# Fewest samples a plateau keeps after its transient is discarded.
_MIN_SAMPLES = 5

# Standard-normal quantile of the two-sided 95% parameter intervals.
_Z95 = NormalDist().inv_cdf(0.975)


@dataclass(frozen=True, eq=False)
class TelemetryLog:
    """Motor velocity/torque records, one stream per joint id."""

    time: np.ndarray
    joint_id: np.ndarray
    velocity: np.ndarray
    torque: np.ndarray
    nominal_rate_hz: float = 200.0

    def __post_init__(self):
        t = np.asarray(self.time, dtype=float)
        jid = np.asarray(self.joint_id, dtype=int)
        v = np.asarray(self.velocity, dtype=float)
        tau = np.asarray(self.torque, dtype=float)
        if not (t.shape == jid.shape == v.shape == tau.shape) or t.ndim != 1:
            raise InvalidLogError("telemetry columns must be matching 1-d arrays")
        if t.size == 0:
            raise InvalidLogError("telemetry log is empty")
        for name, arr in (("time", t), ("velocity", v), ("torque", tau)):
            if not np.all(np.isfinite(arr)):
                raise InvalidLogError(f"telemetry {name} contains non-finite values")
        lo, hi = min(VALID_JOINT_IDS), max(VALID_JOINT_IDS)
        if jid.min() < lo or jid.max() > hi:
            bad = np.unique(jid[(jid < lo) | (jid > hi)]).tolist()
            raise InvalidLogError(f"joint_id values outside 1..4: {bad}")
        index = {}
        for j in np.flatnonzero(np.bincount(jid)).tolist():
            index[j] = np.flatnonzero(jid == j)
            tj = t[index[j]]
            if np.any(np.diff(tj) <= 0.0):
                raise InvalidLogError(f"joint {j}: timestamps not strictly increasing")
            if tj.size >= 2:
                rate = 1.0 / float(np.median(np.diff(tj)))
                if abs(rate - self.nominal_rate_hz) > 0.10 * self.nominal_rate_hz:
                    raise InvalidLogError(
                        f"joint {j}: sample rate {rate:.1f} Hz is more than 10% "
                        f"off the nominal {self.nominal_rate_hz:.1f} Hz"
                    )
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "joint_id", jid)
        object.__setattr__(self, "velocity", v)
        object.__setattr__(self, "torque", tau)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_runs", {})

    def joint_ids(self):
        return sorted(self._index)

    def joint(self, joint_id: int):
        idx = self._index.get(joint_id)
        if idx is None:
            raise InvalidLogError(f"log has no records for joint {joint_id}")
        return self.time[idx], self.velocity[idx], self.torque[idx]


def load_telemetry_csv(path, nominal_rate_hz: float = 200.0) -> TelemetryLog:
    """Read a `time_s,joint_id,velocity,torque` CSV into a TelemetryLog."""
    data = csvfile.read_numeric_csv(
        path, ("time_s", "joint_id", "velocity", "torque"), InvalidLogError,
        "telemetry", integer_columns=(1,),
    )
    ids = data[:, 1]
    outside = (ids < min(VALID_JOINT_IDS)) | (ids > max(VALID_JOINT_IDS))
    if outside.any():
        # Range-check the floats: astype(int) would wrap a value like 1e308.
        bad = [int(x) if abs(x) < 2.0**53 else x for x in np.unique(ids[outside]).tolist()]
        raise InvalidLogError(f"{path}: joint_id values outside 1..4: {bad}")
    return TelemetryLog(
        data[:, 0], data[:, 1].astype(int), data[:, 2], data[:, 3], nominal_rate_hz
    )


@dataclass(frozen=True)
class MapPoint:
    """One steady-state operating point (motor side)."""

    velocity: float
    torque_mean: float
    torque_std: float
    count: int


@dataclass(frozen=True)
class TorqueVelocityMap:
    """Steady-state map, points sorted by velocity ascending."""

    points: tuple[MapPoint, ...]

    def direction(self, sign: int):
        if sign > 0:
            return tuple(p for p in self.points if p.velocity > 0.0)
        return tuple(p for p in self.points if p.velocity < 0.0)


def _resolve_joint(log: TelemetryLog, joint_id):
    if joint_id is None:
        ids = log.joint_ids()
        if len(ids) != 1:
            raise DomainError(f"log holds joints {ids}; pass joint_id explicitly")
        return ids[0]
    return joint_id


def _segment_indices(v: np.ndarray, tol: float):
    """Greedy split into runs staying within tol of their running mean."""
    values = v.tolist()
    segments = []
    start = 0
    total = values[0]
    for i in range(1, len(values)):
        x = values[i]
        if abs(x - total / (i - start)) > tol:
            segments.append((start, i))
            start = i
            total = x
        else:
            total += x
    segments.append((start, len(values)))
    return segments


def _joint_runs(log: TelemetryLog, joint_id: int, tol: float):
    """
    (t, v, tau, runs) of one joint, with runs from _segment_indices. Kept on
    the log per joint and tolerance, so the steady-segment and breakaway
    extractions of one identify call segment the joint once.
    """
    key = (joint_id, tol)
    if key not in log._runs:
        t, v, tau = log.joint(joint_id)
        for shared in (t, v, tau):
            shared.flags.writeable = False
        log._runs[key] = (t, v, tau, _segment_indices(v, tol))
    return log._runs[key]


def extract_steady_segments(log: TelemetryLog, velocity_tolerance: float,
                            min_duration_s: float, *, joint_id=None,
                            discard_s: float = 0.25) -> TorqueVelocityMap:
    """
    Average constant-velocity plateaus into map points. A plateau is a
    contiguous run whose velocity stays within `velocity_tolerance` of its
    running mean; the first `discard_s` seconds of each run are dropped as
    transients, and runs shorter than `min_duration_s` (after trimming),
    with fewer than `_MIN_SAMPLES` samples, or centered within tolerance of
    zero velocity (rest periods) are discarded. Plateaus whose mean
    velocities agree within tolerance are merged count-weighted.
    """
    jid = _resolve_joint(log, joint_id)
    t, v, tau, runs = _joint_runs(log, jid, velocity_tolerance)

    raw_points = []
    # Torques near the float64 limit overflow the plateau sums to inf or nan
    # without a warning; fit_friction rejects such a map.
    with np.errstate(over="ignore", invalid="ignore"):
        for i0, i1 in runs:
            if i1 - i0 < _MIN_SAMPLES:
                continue  # cannot keep enough samples after trimming
            keep = i0 + int(np.searchsorted(t[i0:i1], t[i0] + discard_s, side="left"))
            if i1 - keep < _MIN_SAMPLES:
                continue
            if t[i1 - 1] - t[keep] < min_duration_s:
                continue
            v_mean = float(np.mean(v[keep:i1]))
            if abs(v_mean) <= velocity_tolerance:
                continue
            seg = tau[keep:i1]
            tm = float(np.mean(seg))
            ts = float(np.std(seg))
            if not math.isfinite(ts):
                # Overflowing squares: the rms about the mean, scaled as nrmsd does.
                ts = dynamics._range_rms(seg, np.full_like(seg, tm), 1.0)
            raw_points.append((v_mean, tm, ts, int(i1 - keep)))

    if not raw_points:
        raise InsufficientDataError("no steady segment satisfies the criteria")

    raw_points.sort()
    merged: list[list] = []
    for vm, tm, ts, n in raw_points:
        if merged and abs(vm - merged[-1][0]) <= velocity_tolerance:
            v0, t0, s0, n0 = merged[-1]
            nt = n0 + n
            vm_new = (v0 * n0 + vm * n) / nt
            tm_new = (t0 * n0 + tm * n) / nt
            merged[-1] = [vm_new, tm_new, _merged_std(t0, s0, n0, tm, ts, n, tm_new), nt]
        else:
            merged.append([vm, tm, ts, n])

    return TorqueVelocityMap(tuple(MapPoint(*m) for m in merged))


def _merged_std(t0, s0, n0, t1, s1, n1, mean):
    """
    Std of two plateaus given as (mean, std, count), about their joint
    `mean`. Squares that overflow are taken on values scaled into [-1, 1].
    """
    def var(scale):
        a0, b0, a1, b1, m = (x / scale for x in (t0, s0, t1, s1, mean))
        return (n0 * (b0 * b0 + a0 * a0) + n1 * (b1 * b1 + a1 * a1)) / (n0 + n1) - m * m

    scale = 1.0
    value = var(scale)
    if not math.isfinite(value):
        scale = max(abs(t0), s0, abs(t1), s1)
        value = var(scale)
    return scale * math.sqrt(max(0.0, value))


def extract_breakaway_samples(log: TelemetryLog, velocity_tolerance: float,
                              min_duration_s: float, *, joint_id=None,
                              rest_fraction: float = 1e-3,
                              min_rest_s: float = 0.1):
    """
    Breakaway torques: for each qualifying plateau preceded by a rest, the
    motor torque at the first sample whose speed exceeds `rest_fraction`
    of the plateau level. A rest gives at most one sample, to the first
    plateau after it. Returns a list of (direction, torque) pairs.
    """
    jid = _resolve_joint(log, joint_id)
    t, v, tau, runs = _joint_runs(log, jid, velocity_tolerance)
    times = t.tolist()
    speed = np.abs(v)

    # One forward sweep. low_idx holds every swept sample slower than all
    # later swept ones, with its speed in low_speed; both lists ascend, so
    # the last sample before a plateau at or under a threshold is a bisect.
    low_idx: list[int] = []
    low_speed: list[float] = []
    swept = 0
    used_rests = set()
    samples = []
    for i0, i1 in runs:
        if times[i1 - 1] - times[i0] < min_duration_s:
            continue
        level = float(np.mean(v[i0:i1]))
        if abs(level) <= velocity_tolerance:
            continue
        if swept < i0:
            # Sweep speed[swept:i0]: its own suffix minima replace every
            # stacked sample that is not slower than the block's minimum.
            block = speed[swept:i0]
            tail_min = np.minimum.accumulate(block[::-1])[::-1]
            keep = np.flatnonzero(np.append(block[:-1] < tail_min[1:], True))
            del low_speed[bisect.bisect_left(low_speed, tail_min[0]):]
            del low_idx[len(low_speed):]
            low_speed.extend(block[keep].tolist())
            low_idx.extend((keep + swept).tolist())
            swept = i0
        threshold = rest_fraction * abs(level)
        below = bisect.bisect_right(low_speed, threshold)
        if below == 0:
            continue
        rest_end = low_idx[below - 1]
        if rest_end in used_rests:
            continue
        # Walk back only as far as the rest must last.
        rest_start = rest_end
        while (rest_start > 0 and speed[rest_start - 1] <= threshold
               and times[rest_end] - times[rest_start] < min_rest_s):
            rest_start -= 1
        if times[rest_end] - times[rest_start] < min_rest_s:
            continue
        used_rests.add(rest_end)
        samples.append((1 if level > 0 else -1, float(tau[rest_end + 1])))
    return samples


@dataclass(frozen=True)
class FitReport:
    """Fitted friction parameters with fit quality metadata."""

    params: FrictionParams
    residual: float
    half_widths: dict
    residuals_by_direction: dict
    flags: tuple


def _reflection_sum(rho: float, lead_angle: float) -> float:
    """1/eta_driving + eta_overhauling as a function of the friction angle."""
    mu = math.tan(rho)
    return (
        1.0 / efficiency(lead_angle, mu, Direction.DRIVING)
        + efficiency(lead_angle, mu, Direction.OVERHAULING)
    )


def _solve_mu_c(intercept_sum, spec, test_load, flags):
    """
    Invert S(rho) = 1/eta_d + eta_o = target for mu = tan(rho). With
    t = tan(lam) and m = tan(rho), S = (tan(lam + rho) + tan(lam - rho)) / t
    = 2 (1 + m^2) / (1 - t^2 m^2) while rho < lam; from rho = lam on, eta_o
    is clamped to 0 and S = tan(lam + rho) / t.
    """
    target = intercept_sum * spec.ratio / test_load
    lam = spec.lead_angle
    lo = 0.0
    hi = math.pi / 2.0 - lam - 1e-9
    if target <= _reflection_sum(lo, lam):
        if target < _reflection_sum(lo, lam) - 1e-12:
            flags.append("non-physical mu_c estimate clamped to 0")
            warnings.warn("fitted mu_c was negative; clamped to 0", stacklevel=3)
        return 0.0
    if target >= _reflection_sum(hi, lam):
        flags.append("mu_c estimate clamped at the driving-domain limit")
        return math.tan(hi)
    if 2.0 * lam < math.pi / 2.0 and target >= math.tan(2.0 * lam) / math.tan(lam):
        return math.tan(math.atan(target * math.tan(lam)) - lam)
    c2 = math.cos(lam) ** 2
    return math.sqrt(c2 * (target - 2.0) / (target * math.sin(lam) ** 2 + 2.0 * c2))


def fit_friction(tv_map: TorqueVelocityMap, spec: TransmissionSpec,
                 test_load: float = 0.0, breakaway=None) -> FitReport:
    """
    Fit (mu_c, b_c, b_v) to a torque-velocity map recorded under a
    constant joint-side `test_load`, plus mu_s from optional breakaway
    samples [(direction, motor torque), ...]. Every present direction
    needs at least 3 distinct velocities.
    """
    pos = tv_map.direction(+1)
    neg = tv_map.direction(-1)
    if not pos and not neg:
        raise InsufficientDataError("map has no nonzero-velocity points")
    for pts, name in ((pos, "positive"), (neg, "negative")):
        if pts and len({p.velocity for p in pts}) < 3:
            raise RankDeficientError(
                f"{name} direction has fewer than 3 distinct velocities"
            )

    flags: list[str] = []
    pts = list(pos) + list(neg)
    w = np.array([p.velocity for p in pts])
    y = np.array([p.torque_mean for p in pts])
    wt = np.sqrt(np.array([p.count for p in pts], dtype=float))

    both = bool(pos) and bool(neg)
    if both:
        x = np.column_stack([(w > 0).astype(float), (w < 0).astype(float), w])
    else:
        x = np.column_stack([np.ones_like(w), w])
    with np.errstate(over="ignore", invalid="ignore"):
        xw = x * wt[:, None]
        yw = y * wt
        finite = bool(np.all(np.isfinite(xw.T @ xw)) and np.all(np.isfinite(xw.T @ yw)))
    if not finite:
        raise DomainError("map velocities or torques are too large to fit")
    coef, *_ = np.linalg.lstsq(xw, yw, rcond=None)

    if both:
        a_pos, a_neg, b_v = (float(c) for c in coef)
        if test_load == 0.0:
            mu_c = 0.0
            b_c = 0.5 * (a_pos - a_neg)
            flags.append("mu_c not identifiable without a test load; set to 0")
        else:
            mu_c = _solve_mu_c(a_pos + a_neg, spec, test_load, flags)
            b_c = a_pos - dynamics.reflect_load(spec, mu_c, test_load, +1.0)
    else:
        s = 1.0 if pos else -1.0
        intercept, b_v = (float(c) for c in coef)
        mu_c = 0.0
        b_c = s * (intercept - test_load / spec.ratio)
        flags.append(
            "one-direction fit: mu_c not identifiable, assumed 0; "
            "b_c uses a frictionless load reflection"
        )

    if b_c < 0.0:
        flags.append("non-physical b_c estimate clamped to 0")
        warnings.warn("fitted b_c was negative; clamped to 0", stacklevel=2)
        b_c = 0.0
    if b_v < 0.0:
        flags.append("non-physical b_v estimate clamped to 0")
        warnings.warn("fitted b_v was negative; clamped to 0", stacklevel=2)
        b_v = 0.0

    mu_s = _fit_mu_s(breakaway, spec, test_load, mu_c, b_c, flags)
    params = FrictionParams(mu_s=mu_s, mu_c=mu_c, b_c=b_c, b_v=b_v)

    predicted = _predict_map_torque(params, spec, test_load, w)
    residual = _range_nrmsd(predicted, y, flags)
    by_dir = {}
    for name, mask in (("positive", w > 0), ("negative", w < 0)):
        if mask.any():
            by_dir[name] = _range_nrmsd(predicted[mask], y[mask], flags)

    half_widths = _half_widths(xw, yw, coef, both, spec, test_load, flags)
    return FitReport(params, residual, half_widths, by_dir, tuple(flags))


def _predict_map_torque(params, spec, test_load, w):
    sgn = np.sign(w)
    reflected = dynamics.reflect_load(spec, params.mu_c, test_load, sgn)
    return params.b_c * sgn + params.b_v * w + reflected


def _range_nrmsd(predicted, observed, flags):
    spread = float(observed.max() - observed.min())
    if spread < 1e-12:
        if "degenerate torque range in residual" not in flags:
            flags.append("degenerate torque range in residual")
        return 0.0 if dynamics._range_rms(predicted, observed, 1.0) < 1e-12 else math.inf
    return dynamics._range_rms(predicted, observed, spread)


def _fit_mu_s(breakaway, spec, test_load, mu_c, b_c, flags):
    if not breakaway:
        flags.append("mu_s defaulted to mu_c (no breakaway samples)")
        return mu_c
    if test_load == 0.0:
        flags.append("mu_s not identifiable from breakaway without a test load")
        return mu_c
    lam = spec.lead_angle
    hi = math.tan(math.pi / 2.0 - lam - 1e-9)
    estimates = []
    for direction, torque in breakaway:
        s = 1.0 if direction > 0 else -1.0

        def gap(mu, s=s, torque=torque):
            return b_c * s + dynamics.reflect_load(spec, mu, test_load, s) - torque

        g_lo, g_hi = gap(0.0), gap(hi)
        if g_lo == 0.0:
            estimates.append(0.0)
        elif g_lo * g_hi > 0.0:
            flags.append("breakaway sample outside the representable mu_s range")
        elif g_hi == 0.0:
            # Flat self-locking zone: every mu from tan(lam) up fits; take hi.
            estimates.append(hi)
        else:
            # tan(lam + rho) driving, tan(lam - rho) overhauling, equals x.
            x = (torque - b_c * s) * spec.ratio * math.tan(lam) / test_load
            rho = math.atan(x) - lam if test_load * s > 0.0 else lam - math.atan(x)
            estimates.append(min(max(math.tan(rho), 0.0), hi))
    if not estimates:
        flags.append("mu_s defaulted to mu_c (no usable breakaway samples)")
        return mu_c
    mu_s = float(np.mean(estimates))
    if mu_s < mu_c:
        flags.append("mu_s estimate below mu_c; clamped to mu_c")
        return mu_c
    return mu_s


def _half_widths(xw, yw, coef, both, spec, test_load, flags):
    n, k = xw.shape
    dof = n - k
    if dof <= 0:
        flags.append("no degrees of freedom for confidence intervals")

    if both and test_load != 0.0:
        def transform(c):
            scratch: list[str] = []
            mu = _solve_mu_c(c[0] + c[1], spec, test_load, scratch)
            bc = c[0] - dynamics.reflect_load(spec, mu, test_load, +1.0)
            return np.array([mu, bc, c[2]])

        jac = np.zeros((3, 3))
        for j in range(3):
            step = max(1e-8, 1e-6 * abs(coef[j]))
            up = coef.copy()
            dn = coef.copy()
            up[j] += step
            dn[j] -= step
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                jac[:, j] = (transform(up) - transform(dn)) / (2.0 * step)
        names = ("mu_c", "b_c", "b_v")
    elif both:
        # test_load == 0: mu_c pinned at 0, b_c = (A+ - A-)/2, b_v direct.
        jac = np.array([[0.0, 0.0, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, 1.0]])
        names = ("mu_c", "b_c", "b_v")
    else:
        jac = np.array([[1.0, 0.0], [0.0, 1.0]])
        names = ("b_c", "b_v")

    with np.errstate(over="ignore", invalid="ignore"):
        resid = yw - xw @ coef
        scale = 1.0
        var = _param_variances(resid, dof, xw, jac)
        if not np.all(np.isfinite(var)):
            # Overflowing squares: the variances of resid / scale, rescaled below.
            scale = float(np.max(np.abs(resid)))
            var = _param_variances(resid / scale, dof, xw, jac)
    halves = {}
    for nm, v in zip(names, var.tolist()):
        # inf where the half-width itself exceeds the float range.
        halves[nm] = _Z95 * math.sqrt(max(0.0, v)) * scale if math.isfinite(v) else math.inf
    if "mu_c" not in halves:
        halves["mu_c"] = math.inf
    return halves


def _param_variances(resid, dof, xw, jac):
    """Diagonal of jac cov jac^T, cov the least-squares covariance of `resid`."""
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    cov_lin = sigma2 * np.linalg.inv(xw.T @ xw)
    return np.diag(jac @ cov_lin @ jac.T)


def evaluate_model(report: FitReport, spec: TransmissionSpec,
                   traj: dynamics.JointTrajectory,
                   measured: dynamics.TorqueTrace,
                   load_torque_fn=None) -> float:
    """NRMSD between the fitted model's torque prediction and a measured trace."""
    simulated = dynamics.inverse_dynamics(spec, report.params, load_torque_fn, traj)
    return dynamics.nrmsd(simulated, measured)


def save_fit_report(path, report: FitReport, spec: TransmissionSpec,
                    precision: int = configfile.DEFAULT_PRECISION) -> None:
    """
    Emit the fit as a transmission/friction config (feedable back to the
    dynamics loaders unchanged) with the fit diagnostics as comments.
    """
    ff = lambda x: configfile.format_float(x, precision)
    comments = [f"fit residual_nrmsd = {ff(report.residual)}"]
    for name, value in sorted(report.residuals_by_direction.items()):
        comments.append(f"fit residual_nrmsd_{name} = {ff(value)}")
    for name, value in sorted(report.half_widths.items()):
        comments.append(f"fit half_width_{name} = {ff(value)}")
    for flag in report.flags:
        comments.append(f"fit flag: {flag}")
    dynamics.save_transmission_config(
        path, spec, report.params, comments=comments, precision=precision
    )
