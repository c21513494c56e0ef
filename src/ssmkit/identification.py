"""
Friction identification: build steady-state torque-velocity maps from
telemetry and fit the static-plus-kinetic friction model of the dynamics
module.

Fit structure
-------------
On a map with points in both rotation directions the kinetic model

    tau(w) = b_c sign(w) + b_v w + reflect(load, sign(w); mu_c)

is linear in the per-direction intercepts (A+, A-) and the slope b_v, so
those are solved by weighted least squares in closed form. The intercept sum
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
from dataclasses import dataclass

import numpy as np

from . import configfile, csvfile, dynamics
from ._inputs import floats, real
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

# A breakaway's rest: at most this fraction of the plateau's speed, this long (s).
_REST_FRACTION = 1e-3
_MIN_REST_S = 0.1

# Relative band about S(lam) in which the kink at rho = lam is flagged. Over
# 151 lead angles in [0.005, 0.78], k came from the side of the kink the
# exact root does not lie on only within 3e-15 of S(lam); the band leaves
# some 300 times that for the rounding of the intercepts, ratio and load.
_KINK_BAND = 1e-12

# Standard-normal quantile of the two-sided 95% parameter intervals:
# `statistics.NormalDist().inv_cdf(0.975)`, written out so that importing
# this module does not load `statistics` (and `fractions`, `decimal`).
_Z95 = 1.9599639845400536


def _median(x: np.ndarray) -> float:
    """`np.median` of a non-empty 1-d float array, bit for bit, without the
    `numpy.ma` import its first call makes: the middle value of an odd size,
    and (a + b) / 2.0 of the two middle values of an even one. The partition
    also places the last element, as `np.median`'s does: with the middle
    index alone it runs several times slower on time steps that take two
    or three distinct values."""
    half = x.size // 2
    if x.size % 2:
        return float(np.partition(x, (half, -1))[half])
    part = np.partition(x, (half - 1, half, -1))
    return (float(part[half - 1]) + float(part[half])) / 2.0


@dataclass(frozen=True, eq=False)
class TelemetryLog:
    """Motor velocity/torque records, one stream per joint id."""

    time: np.ndarray
    joint_id: np.ndarray
    velocity: np.ndarray
    torque: np.ndarray
    nominal_rate_hz: float = 200.0

    def __post_init__(self):
        # Contiguous, so the per-joint gathers below read packed memory.
        t = np.ascontiguousarray(floats("telemetry time", self.time, (None,), InvalidLogError))
        ids = floats("telemetry joint_id", self.joint_id, (None,), InvalidLogError, finite=False)
        v = floats("telemetry velocity", self.velocity, (None,), InvalidLogError)
        tau = floats("telemetry torque", self.torque, (None,), InvalidLogError)
        nominal = real("nominal_rate_hz", self.nominal_rate_hz, InvalidLogError)
        if not t.shape == ids.shape == v.shape == tau.shape:
            raise InvalidLogError("telemetry columns must be matching 1-d arrays")
        if t.size == 0:
            raise InvalidLogError("telemetry log is empty")
        # Checked as floats: the int cast would pass 1.5 and wrap NaN or 1e308.
        outside = ~np.isin(ids, VALID_JOINT_IDS)
        if outside.any():
            bad = [int(x) if x.is_integer() and abs(x) < 2.0**53 else x
                   for x in np.unique(ids[outside]).tolist()]
            raise InvalidLogError(f"joint_id values outside 1..4: {bad}")
        jid = ids.astype(int)
        index = {}
        for j in np.flatnonzero(np.bincount(jid)).tolist():
            index[j] = np.flatnonzero(jid == j)
            tj = t[index[j]]
            if np.any(tj[1:] <= tj[:-1]):
                raise InvalidLogError(f"joint {j}: timestamps not strictly increasing")
            # A step past the float range is inf, so its rate is 0 Hz.
            with np.errstate(over="ignore"):
                dt = np.diff(tj)
            if dt.size:
                rate = 1.0 / _median(dt)
                if abs(rate - nominal) > 0.10 * nominal:
                    raise InvalidLogError(
                        f"joint {j}: sample rate {rate:.1f} Hz is more than 10% "
                        f"off the nominal {nominal:.1f} Hz"
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
    """Read a `time_s,joint_id,velocity,torque` CSV into a TelemetryLog;
    every error it raises, the log's own checks included, names the file."""
    data = csvfile.read_numeric_csv(
        path, ("time_s", "joint_id", "velocity", "torque"), InvalidLogError,
        "telemetry", integer_columns=(1,),
    )
    try:
        return TelemetryLog(data[:, 0], data[:, 1], data[:, 2], data[:, 3], nominal_rate_hz)
    except InvalidLogError as exc:
        raise InvalidLogError(f"{path}: {exc}") from None


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
    joint_id = real("joint_id", joint_id)
    return int(joint_id) if joint_id.is_integer() else joint_id


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
    zero velocity (rest periods) are discarded. In velocity order, a
    plateau joins the last point when it lies within tolerance both of that
    point's mean velocity and of its first plateau's, so a point's plateau
    velocities span at most the tolerance; a point's velocity is the
    count-weighted mean of its plateaus', and its torque mean and std are
    those of their kept samples taken together.
    """
    velocity_tolerance = real("velocity_tolerance", velocity_tolerance)
    min_duration_s = real("min_duration_s", min_duration_s)
    discard_s = real("discard_s", discard_s)
    jid = _resolve_joint(log, joint_id)
    t, v, tau, runs = _joint_runs(log, jid, velocity_tolerance)

    plateaus = []
    # Values near the float64 limit overflow the sums to inf or nan without
    # a warning; fit_friction rejects such a map.
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
            if abs(v_mean) > velocity_tolerance:
                plateaus.append((v_mean, keep, i1))
    if not plateaus:
        raise InsufficientDataError("no steady segment satisfies the criteria")

    plateaus.sort()  # by velocity, ties in time order
    merged: list[list] = []
    for vm, keep, i1 in plateaus:
        n = i1 - keep
        if (merged and abs(vm - merged[-1][0]) <= velocity_tolerance
                and abs(vm - merged[-1][3]) <= velocity_tolerance):
            v0, n0, parts, _ = merged[-1]
            merged[-1][:2] = (v0 * n0 + vm * n) / (n0 + n), n0 + n
            parts.append(tau[keep:i1])
        else:
            merged.append([vm, n, [tau[keep:i1]], vm])

    points = []
    with np.errstate(over="ignore", invalid="ignore"):
        for velocity, count, parts, _ in merged:
            samples = np.concatenate(parts)
            mean = float(np.mean(samples))
            std = float(np.std(samples))
            if not math.isfinite(std):
                # Overflowing squares: the rms about the mean, scaled as nrmsd does.
                std = dynamics._range_rms(samples, np.full_like(samples, mean), 1.0)
            points.append(MapPoint(velocity, mean, std, count))
    return TorqueVelocityMap(tuple(points))


def extract_breakaway_samples(log: TelemetryLog, velocity_tolerance: float,
                              min_duration_s: float, *, joint_id=None):
    """
    Breakaway torques: for each qualifying plateau preceded by a rest (a
    speed at or under `_REST_FRACTION` of the plateau's for `_MIN_REST_S`
    seconds), the motor torque at the first sample faster than that. A rest
    gives at most one sample, to the first plateau after it. Returns a list
    of (direction, torque) pairs.
    """
    velocity_tolerance = real("velocity_tolerance", velocity_tolerance)
    min_duration_s = real("min_duration_s", min_duration_s)
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
        threshold = _REST_FRACTION * abs(level)
        below = bisect.bisect_right(low_speed, threshold)
        if below == 0:
            continue
        rest_end = low_idx[below - 1]
        if rest_end in used_rests:
            continue
        # Walk back only as far as the rest must last.
        rest_start = rest_end
        while (rest_start > 0 and speed[rest_start - 1] <= threshold
               and times[rest_end] - times[rest_start] < _MIN_REST_S):
            rest_start -= 1
        if times[rest_end] - times[rest_start] < _MIN_REST_S:
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


def _mu_limit(lam: float) -> float:
    """Largest mu the fit reports: rho stops 1e-9 short of lam + rho = pi/2."""
    return math.tan(math.pi / 2.0 - lam - 1e-9)


def _solve_mu_c(intercept_sum, spec, test_load, flags):
    """
    Invert S(rho) = 1/eta_d + eta_o = target for mu = tan(rho). With
    t = tan(lam) and m = tan(rho), S = (tan(lam + rho) + tan(lam - rho)) / t
    = 2 (1 + m^2) / (1 - t^2 m^2) while rho < lam; from rho = lam on, eta_o
    is clamped to 0 and S = tan(lam + rho) / t. Returns (mu, k, f), k = d mu
    / d A_d and f = d reflect(load, +1; mu) / d A_d for either intercept A_d
    by the inverse function theorem, and k = f = 0 where mu is clamped.
    A target within `_KINK_BAND` of S(lam) = tan(2 lam) / tan(lam) is
    flagged: rounding picks the side of the kink, and so the slopes.
    """
    target = intercept_sum * spec.ratio / test_load
    lam = spec.lead_angle
    if target <= 2.0:
        if target < 2.0 - 1e-12:
            flags.append("non-physical mu_c estimate clamped to 0")
        return 0.0, 0.0, 0.0
    hi = _mu_limit(lam)
    if target >= (1.0 / efficiency(lam, hi, Direction.DRIVING)
                  + efficiency(lam, hi, Direction.OVERHAULING)):
        flags.append("mu_c estimate clamped at the driving-domain limit")
        return hi, 0.0, 0.0
    # S at the kink rho = lam, inside the driving domain only if 2 lam < pi/2.
    kink = math.tan(2.0 * lam) / math.tan(lam) if 2.0 * lam < math.pi / 2.0 else None
    if kink is not None and target >= kink:
        mu = math.tan(math.atan(target * math.tan(lam)) - lam)
    else:
        c2 = math.cos(lam) ** 2
        mu = math.sqrt(c2 * (target - 2.0) / (target * math.sin(lam) ** 2 + 2.0 * c2))
    if kink is not None and abs(target - kink) <= _KINK_BAND * kink:
        flags.append("mu_c at the self-locking kink; half-widths are one-sided")
    rho = math.atan(mu)
    d = 1.0 + math.tan(lam + rho) ** 2
    o = 1.0 + math.tan(lam - rho) ** 2 if rho < lam else 0.0
    k = spec.ratio * math.tan(lam) * (1.0 + mu * mu) / (d - o) / test_load
    f = (d if test_load > 0.0 else -o) / (d - o)
    return mu, k, f


def fit_friction(tv_map: TorqueVelocityMap, spec: TransmissionSpec,
                 test_load: float = 0.0, breakaway=None) -> FitReport:
    """
    Fit (mu_c, b_c, b_v) to a torque-velocity map recorded under a
    constant joint-side `test_load`, plus mu_s from optional breakaway
    samples [(direction, motor torque), ...], a list or an (n, 2) array
    (empty or None: none). Every map point's count must be a positive whole
    number, and every present direction needs at least 3 distinct velocities.
    A clamped or defaulted estimate is reported in the report's flags, never
    as a Python warning.
    """
    test_load = real("test_load", test_load)
    breakaway = [] if breakaway is None else floats("breakaway", breakaway, (None, 2)).tolist()
    pos = tv_map.direction(+1)
    neg = tv_map.direction(-1)
    if not pos and not neg:
        raise InsufficientDataError("map has no nonzero-velocity points")
    for p in tv_map.points:
        name = f"map point at velocity {float(p.velocity)!r}: count"
        count = real(name, p.count)
        if count < 1.0 or not count.is_integer():
            raise DomainError(f"{name} must be a positive whole number, got {p.count!r}")
    for pts, name in ((pos, "positive"), (neg, "negative")):
        if pts and len({p.velocity for p in pts}) < 3:
            raise RankDeficientError(
                f"{name} direction has fewer than 3 distinct velocities"
            )

    # Weighted least squares from centered sums (Bjorck, Numerical Methods
    # for Least Squares Problems, 1996, sec. 2.2), in Python floats added in
    # a fixed order, so the fit has the same bits on every host.
    groups = [pts for pts in (pos, neg) if pts]
    means = []
    sxx = sxy = 0.0
    for pts in groups:
        n_d = sum_w = sum_y = 0.0
        for p in pts:
            n_d += p.count
            sum_w += p.count * p.velocity
            sum_y += p.count * p.torque_mean
        w_bar, y_bar = sum_w / n_d, sum_y / n_d
        means.append((n_d, w_bar, y_bar))
        for p in pts:
            dw = p.velocity - w_bar
            sxx += p.count * dw * dw
            sxy += p.count * dw * (p.torque_mean - y_bar)
    if sxx == 0.0:
        raise RankDeficientError("map velocities are too close together to fit a slope")
    b_v = sxy / sxx
    coef = tuple(y_bar - b_v * w_bar for _, w_bar, y_bar in means) + (b_v,)
    if not all(map(math.isfinite, (sxx, sxy) + coef)):
        raise DomainError("map velocities or torques are too large to fit")
    resid = [(p.count, (p.torque_mean - y_bar) - b_v * (p.velocity - w_bar))
             for pts, (_, w_bar, y_bar) in zip(groups, means) for p in pts]

    # jac: each reported coefficient's derivatives in (A_d..., b_v), 0 if clamped.
    flags: list[str] = []
    if pos and neg:
        a_pos, a_neg, _ = coef
        if test_load == 0.0:
            mu_c = 0.0
            b_c = 0.5 * (a_pos - a_neg)
            flags.append("mu_c not identifiable without a test load; set to 0")
            jac = {"mu_c": (0.0, 0.0, 0.0), "b_c": (0.5, -0.5, 0.0)}
        else:
            # A+ + A- from the means: b_v drops out where the mean velocities are opposite.
            (_, w_pos, y_pos), (_, w_neg, y_neg) = means
            mu_c, k, f = _solve_mu_c(y_pos + y_neg - b_v * (w_pos + w_neg), spec, test_load, flags)
            b_c = a_pos - dynamics.reflect_load(spec, mu_c, test_load, +1.0)
            jac = {"mu_c": (k, k, 0.0), "b_c": (1.0 - f, -f, 0.0)}
    else:
        s = 1.0 if pos else -1.0
        mu_c = 0.0
        b_c = s * (coef[0] - test_load / spec.ratio)
        flags.append(
            "one-direction fit: mu_c not identifiable, assumed 0; "
            "b_c uses a frictionless load reflection"
        )
        jac = {"b_c": (1.0, 0.0)}
    jac["b_v"] = (0.0,) * len(means) + (1.0,)

    if b_c < 0.0:
        flags.append("non-physical b_c estimate clamped to 0")
        b_c = 0.0
        jac["b_c"] = (0.0,) * len(coef)
    if b_v < 0.0:
        flags.append("non-physical b_v estimate clamped to 0")
        b_v = 0.0
        jac["b_v"] = (0.0,) * len(coef)

    mu_s = _fit_mu_s(breakaway, spec, test_load, mu_c, b_c, flags)
    params = FrictionParams(mu_s=mu_s, mu_c=mu_c, b_c=b_c, b_v=b_v)

    pts = pos + neg
    w = np.array([p.velocity for p in pts])
    y = np.array([p.torque_mean for p in pts])
    sgn = np.sign(w)
    predicted = b_c * sgn + b_v * w + dynamics.reflect_load(spec, mu_c, test_load, sgn)
    residual = _range_nrmsd(predicted, y, flags)
    by_dir = {}
    for name, mask in (("positive", w > 0), ("negative", w < 0)):
        if mask.any():
            by_dir[name] = _range_nrmsd(predicted[mask], y[mask], flags)

    half_widths = _half_widths(jac, means, sxx, resid)
    return FitReport(params, residual, half_widths, by_dir, tuple(flags))


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
    hi = _mu_limit(lam)
    # The static model torque at mu = 0 and at the limit, per direction.
    ends = {s: [b_c * s + dynamics.reflect_load(spec, mu, test_load, s) for mu in (0.0, hi)]
            for s in (1.0, -1.0)}
    estimates = []
    for direction, torque in breakaway:
        s = 1.0 if direction > 0 else -1.0
        g_lo, g_hi = (end - torque for end in ends[s])
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


def _half_widths(jac, means, sxx, resid):
    """
    95% half-widths of the reported coefficients, one per named row j of
    their Jacobian in (A_d..., b_v): sqrt(j C j^T), where C = sigma^2
    (diag(1/N_d..., 0) + u u^T / Sxx), u = (wbar_d..., -1), is the
    covariance of the fitted intercepts and slope. A clamped one's j is 0.
    """
    # fit_friction needs 3 distinct velocities per direction present, so
    # the n points outnumber the k coefficients: n >= 3 > 2, or n >= 6 > 3.
    dof = len(resid) - len(means) - 1
    # The residuals over the power of two at their largest, an exact scaling:
    # squares past the float range stay finite, and no other bit moves.
    scale = math.ldexp(1.0, math.frexp(max(abs(r) for _, r in resid))[1])
    sigma2 = 0.0
    for n, r in resid:
        sigma2 += n * (r / scale) * (r / scale)
    # A one-direction map has no mu_c row: its half-width is inf.
    halves = {"mu_c": math.inf}
    for name, row in jac.items():
        diag, ju = 0.0, -row[-1]
        for j_d, (n_d, w_d, _) in zip(row, means):
            diag += j_d * j_d / n_d
            ju += j_d * w_d
        var = sigma2 / dof * (diag + ju * ju / sxx)
        # inf where the half-width itself exceeds the float range.
        halves[name] = _Z95 * math.sqrt(max(0.0, var)) * scale if math.isfinite(var) else math.inf
    return halves


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
