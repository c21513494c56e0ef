"""
The input contract of the exported surface (README, "Library use"): every
exported function and record raises an `SsmKitError`, and no warning, on a
numeric input that is not a finite real number, or not an array of such
numbers in the shape it needs. `TABLE` maps each name in `ssmkit._EXPORTS`
to a call template with one slot per numeric input and a valid value for
each slot; each hostile value goes into one slot, the others keep their
valid values. A callable export in neither `TABLE` nor `NO_SLOTS` fails
the test, so a new export joins the table.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import ssmkit
from ssmkit.errors import SsmKitError
from ssmkit.identification import MapPoint

NAN, INF = math.nan, math.inf
X, Y, Z = np.eye(3)

# Scalar slots get each of these.
SCALARS = ("a", 1 + 0j, np.complex64(1 + 2j), None, [1.0], NAN, INF, -INF)


class Real:
    """A scalar slot."""

    def __init__(self, name, good):
        self.name, self.good = name, good

    def hostile(self):
        return SCALARS


class Array:
    """An array slot: ragged, text, complex and None-holding entries, NaN and
    inf entries, text and complex numpy arrays, and `wrong`, an
    array of the wrong shape or length (None where any shape is valid)."""

    def __init__(self, name, good, wrong=None):
        self.name, self.good, self.wrong = name, good, wrong

    def _first(self, value):
        """`good` as nested lists with its first entry replaced by `value`."""
        rows = np.asarray(self.good, dtype=object).tolist()
        inner = rows
        while isinstance(inner[0], list):
            inner = inner[0]
        inner[0] = value
        return rows

    def hostile(self):
        first = np.asarray(self.good).flat[0]
        values = [self._first([first]), self._first("a"), self._first(1 + 0j),
                  self._first(None), self._first(NAN), self._first(INF), self._first(-INF)]
        values += [np.asarray(self.good).astype(str), np.asarray(self.good, dtype=complex)]
        if self.wrong is not None:
            values.append(self.wrong)
        return values


class Reals(Array):
    """A slot that takes a scalar or an array of any shape: the array
    slot's values but a wrong shape, and the scalars but a 1-list."""

    def hostile(self):
        return super().hostile() + [x for x in SCALARS if not isinstance(x, list)]


# Valid records and inputs that the templates share.
GEOM = ssmkit.build_geometry(math.radians(30), math.radians(110))
POSE = ssmkit.forward_kinematics(GEOM, ssmkit.JointState(0.4, -1.1, 0.3, 0.05))
SPEC = ssmkit.TransmissionSpec(ssmkit.TransmissionKind.WORM_GEAR, 120.0, math.radians(5), 1e-5)
PARAMS = ssmkit.FrictionParams(0.15, 0.13, 3.82e-3, 7.18e-5)
T = np.linspace(0.0, 0.04, 5)
TRAJ = ssmkit.JointTrajectory(T, np.full(5, 0.2))
TW_X, TW_Z = ssmkit.revolute_twist(X), ssmkit.revolute_twist(Z)
SP2_Q = ssmkit.rodrigues(X, 0.7) @ (ssmkit.rodrigues(Z, 0.4) @ Y)
MAP = ssmkit.TorqueVelocityMap(tuple(
    MapPoint(w, 0.024 * math.copysign(1.0, w) + 7e-5 * w, 0.0, 50)
    for w in (-30.0, -20.0, -10.0, 10.0, 20.0, 30.0)))

# A 200 Hz joint-1 log: half a second at rest, then 1 s each at 10 and 20 rad/s.
LOG_T = np.arange(500) / 200.0
LOG_IDS = np.ones(500)
LOG_V = np.concatenate([np.zeros(100), np.full(200, 10.0), np.full(200, 20.0)])
LOG_TAU = 0.004 + 1e-4 * LOG_V
LOG = ssmkit.TelemetryLog(LOG_T, LOG_IDS, LOG_V, LOG_TAU)


def _load_csv(rate):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "telemetry.csv"
        rows = "".join(f"{t!r},1,0.5,0.01\n" for t in LOG_T[:20].tolist())
        path.write_text("time_s,joint_id,velocity,torque\n" + rows, encoding="utf-8")
        return ssmkit.load_telemetry_csv(path, rate)


def _fk(t1, t2, t3, t4):
    return ssmkit.forward_kinematics(GEOM, ssmkit.JointState(t1, t2, t3, t4))


def _ik(rotation, position):
    return ssmkit.inverse_kinematics(GEOM, ssmkit.Pose(rotation, position))


_FK_SLOTS = [Real(f"theta{i + 1}", v) for i, v in enumerate((0.4, -1.1, 0.3, 0.05))]
_IK_SLOTS = [Array("rotation", POSE.rotation, POSE.rotation[:2]),
             Array("position", POSE.position, POSE.position[:2])]
_GEOMETRY_SLOTS = [Real("alpha", math.radians(30)), Real("beta", math.radians(110)),
                   Array("r0", np.eye(3), np.eye(2))]
_LOAD_SLOT = [Array("load", np.full(5, 0.1), np.full(4, 0.1))]

# Name -> (call template, its slots in argument order).
TABLE = {
    "FrictionParams": (ssmkit.FrictionParams,
                       [Real("mu_s", 0.15), Real("mu_c", 0.13), Real("b_c", 4e-3),
                        Real("b_v", 7e-5)]),
    "TransmissionSpec": (lambda r, lam, j: ssmkit.TransmissionSpec(
        ssmkit.TransmissionKind.WORM_GEAR, r, lam, j),
        [Real("ratio", 120.0), Real("lead_angle", 0.1), Real("reflected_inertia", 1e-5)]),
    "JointTrajectory": (ssmkit.JointTrajectory,
                        [Array("time", T, T[:4]), Array("velocity", np.full(5, 0.2), np.ones(4)),
                         Array("acceleration", np.zeros(5), np.zeros(4))]),
    "TorqueTrace": (ssmkit.TorqueTrace,
                    [Array("time", T, T[:4]), Array("torque", np.zeros(5), np.zeros(4))]),
    "inverse_dynamics": (lambda load: ssmkit.inverse_dynamics(
        SPEC, PARAMS, lambda t: load, TRAJ), _LOAD_SLOT),
    "payload_curve": (lambda load, grid: ssmkit.payload_curve(SPEC, PARAMS, load, grid),
                      [Real("load_torque", 0.1),
                       Array("velocity_grid", [1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]])]),
    "TelemetryLog": (ssmkit.TelemetryLog,
                     [Array("time", LOG_T, LOG_T[:-1]), Array("joint_id", LOG_IDS, LOG_IDS[:-1]),
                      Array("velocity", LOG_V, LOG_V[:-1]), Array("torque", LOG_TAU, LOG_TAU[:-1]),
                      Real("nominal_rate_hz", 200.0)]),
    "load_telemetry_csv": (_load_csv, [Real("nominal_rate_hz", 200.0)]),
    "extract_steady_segments": (lambda tol, duration, discard: ssmkit.extract_steady_segments(
        LOG, tol, duration, discard_s=discard),
        [Real("velocity_tolerance", 0.5), Real("min_duration_s", 0.5), Real("discard_s", 0.25)]),
    # The breakaway samples: (direction, torque) pairs, here as an (n, 2) array.
    "fit_friction": (lambda load, breakaway: ssmkit.fit_friction(MAP, SPEC, load, breakaway),
                     [Real("test_load", 0.2),
                      Array("breakaway", np.array([[1.0, 0.05], [-1.0, -0.05]]),
                            [[1.0, 0.05, 0.0]])]),
    # Records are checked where they are read: a JointState by FK, a Pose by IK.
    "JointState": (_fk, _FK_SLOTS),
    "forward_kinematics": (_fk, _FK_SLOTS),
    "Pose": (_ik, _IK_SLOTS),
    "inverse_kinematics": (_ik, _IK_SLOTS),
    "MechanismGeometry": (ssmkit.MechanismGeometry, _GEOMETRY_SLOTS),
    "build_geometry": (ssmkit.build_geometry, _GEOMETRY_SLOTS),
    "Twist": (ssmkit.Twist, [Array("linear", np.zeros(3), np.zeros(2)),
                             Array("angular", Z, Z[:2])]),
    "normalize_angle": (ssmkit.normalize_angle, [Real("theta", 0.5)]),
    "revolute_twist": (ssmkit.revolute_twist, [Array("omega", Z, Z[:2])]),
    "rodrigues": (ssmkit.rodrigues, [Array("axis", Z, Z[:2]), Real("angle", 0.3)]),
    "subproblem1": (lambda p, q: ssmkit.subproblem1(TW_Z, p, q),
                    [Array("p", X, X[:2]), Array("q", Y, Y[:2])]),
    "subproblem2": (lambda p, q: ssmkit.subproblem2(TW_X, TW_Z, p, q),
                    [Array("p", Y, Y[:2]), Array("q", SP2_Q, SP2_Q[:2])]),
    "subproblem3prime": (ssmkit.subproblem3prime,
                         [Array("v", X, X[:2]), Array("p", 5.0 * X, X[:2]),
                          Array("q", np.zeros(3), np.zeros(2)), Real("delta", 2.0)]),
    "tilt_extremes": (ssmkit.tilt_extremes,
                      [Real("alpha", math.radians(30)), Real("beta", math.radians(110))]),
    "dot_profile": (lambda theta2: ssmkit.dot_profile(GEOM, theta2),
                    [Reals("theta2", [0.1, 0.2])]),
}

# Callable exports without a numeric slot of their own, and why.
NO_SLOTS = {
    "Direction": "an enum: its values are names",
    "TransmissionKind": "an enum: its values are names",
    "is_self_locking": "takes only checked records",
    "nrmsd": "takes only checked records",
    "probe_point_defaults": "takes only a checked geometry",
    "FitReport": "result-only record, built by fit_friction from checked values",
    "IkSolutionSet": "result-only record, built by inverse_kinematics",
    "SubproblemSolutions": "result-only record, built by the subproblems",
    "TiltExtremes": "result-only record, built by tilt_extremes",
    "TorqueVelocityMap": "a record built by extract_steady_segments; fit_friction checks "
                         "its point counts",
}

CASES = [pytest.param(name, i, id=f"{name}-{slot.name}")
         for name, (_, slots) in TABLE.items() for i, slot in enumerate(slots)]


def test_every_callable_export_is_in_the_table():
    callables = {name for name in ssmkit._EXPORTS if callable(getattr(ssmkit, name))}
    assert callables - set(TABLE) - set(NO_SLOTS) == set()
    assert set(TABLE) | set(NO_SLOTS) <= set(ssmkit._EXPORTS)
    assert not set(TABLE) & set(NO_SLOTS)


@pytest.mark.parametrize("name", TABLE)
def test_template_accepts_its_valid_values(name):
    call, slots = TABLE[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(*(slot.good for slot in slots))


@pytest.mark.parametrize("name, index", CASES)
def test_hostile_value_raises_a_toolkit_error_without_a_warning(name, index):
    call, slots = TABLE[name]
    for value in slots[index].hostile():
        args = [slot.good for slot in slots]
        args[index] = value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                call(*args)
            except SsmKitError:
                pass
            except Exception as exc:
                pytest.fail(f"{name}({slots[index].name}={value!r:.60}) raised "
                            f"{type(exc).__name__}: {exc}")
            else:
                pytest.fail(f"{name}({slots[index].name}={value!r:.60}) returned")
        assert not caught, f"{name}({slots[index].name}={value!r:.60}): {caught[0].message}"


def test_a_bool_is_a_number():
    # By Python's rule, True == 1 and False == 0.
    assert ssmkit.normalize_angle(True) == 1.0
    assert ssmkit.revolute_twist([False, False, True]).angular.tolist() == [0.0, 0.0, 1.0]
    bools = _fk(True, False, False, True)
    floats = _fk(1.0, 0.0, 0.0, 1.0)
    assert np.array_equal(bools.rotation, floats.rotation)
    assert np.array_equal(bools.position, floats.position)


def test_a_target_of_lists_solves_as_its_arrays():
    listed = _ik(POSE.rotation.tolist(), POSE.position.tolist())
    assert listed == ssmkit.inverse_kinematics(GEOM, POSE)
