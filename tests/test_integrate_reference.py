"""`cylinder.integrate` against the numpy integrator it replaced.

`integrate` steps a Python-float state (a, b) through the module-level
`cylinder._dp_step`.  Before that it stepped a numpy 2-vector inside two
closures, under `np.errstate`, with its tolerances as keyword arguments.
That implementation, its Newton projection and its coefficient tables
are copied below as the reference; both call `reduced_rhs` through the
module, so a patched right-hand side reaches both.  Every profile, the
nodes, the pre-projection drift, the step count and the singularity flag
must agree bit for bit, and a run that raises must raise the same
exception with the same message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchys3 import cylinder as cyl
from cauchys3.cylinder import (
    S_MIN,
    CylinderProfile,
    CylinderState,
    SingularityReached,
    conserved_quantity,
)

# ---------------------------------------------------------------------------
# the numpy integrator, as it was
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4) coefficients
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _ref_project_conserved(y):
    """Orthogonal Newton projection onto 2 a^2 b - a - b = 0."""
    y = y.copy()
    for _ in range(3):
        a, b = y
        F = 2 * a * a * b - a - b
        g = np.array([4 * a * b - 1.0, 2 * a * a - 1.0])
        y = y - F * g / (g @ g)
    return y


# a forward run that overflows ends in the OverflowError below, not in warnings
@np.errstate(over="ignore", invalid="ignore")
def _ref_integrate(
    t_end: float | None = None,
    s_end: float | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    s_stop: float = S_MIN + 1e-6,
    max_steps: int = 200_000,
) -> CylinderProfile:
    """Integrate the reduced system from (t, a, b) = (0, 1, 1).

    Exactly one of t_end (signed) / s_end must be given; s_end < 1 runs
    backward.  Every accepted step is projected back onto the conserved
    level set.  A backward run that would cross s = s_stop terminates
    with `singularity` set, holding the boundary state as its last node.
    A forward run whose state overflows floating point raises OverflowError.
    """
    if (t_end is None) == (s_end is None):
        raise ValueError("give exactly one of t_end / s_end")
    if s_end is not None:
        if s_end <= S_MIN:
            raise ValueError("s_end must exceed 1/2")
        backward = s_end < 1.0
    else:
        backward = t_end < 0.0
    direction = -1.0 if backward else 1.0

    t, y = 0.0, np.array([1.0, 1.0])
    ts, as_, bs, ads, bds = [0.0], [1.0], [1.0], [-1.0], [3.0]
    h = 1e-3 * direction
    max_drift = 0.0
    singular = False
    nsteps = 0

    def done(t, y):
        if t_end is not None:
            return (t_end - t) * direction <= 1e-15
        return (s_end - y[0] * y[1]) * direction <= 1e-15

    def dp_step(y, h):
        k = []
        for i in range(7):
            yi = y + h * sum(_DP_A[i][j] * k[j] for j in range(i)) if i else y
            k.append(np.array(cyl.reduced_rhs(*yi)))
        y5 = y + h * sum(_DP_B5[i] * k[i] for i in range(7))
        y4 = y + h * sum(_DP_B4[i] * k[i] for i in range(7))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.max(np.abs(y5 - y4) / scale))
        return y5, err

    while not done(t, y) and nsteps < max_steps:
        if abs(h) < 1e-15:
            # step-size underflow: a backward run drove into the boundary faster
            # than the s-event caught it; a forward run meets no singularity, so
            # its state has left floating-point range
            if not backward:
                raise OverflowError(f"the state overflowed near t = {t:.6g}")
            raise SingularityReached(CylinderState(t, float(y[0]), float(y[1])))
        if t_end is not None and abs(h) > abs(t_end - t):
            h = t_end - t
        try:
            y5, err = dp_step(y, h)
        except ValueError:  # stepped past positivity; shrink
            h *= 0.25
            continue
        if err <= 1.0:
            crossed_stop = backward and (y5[0] * y5[1] < s_stop)
            crossed_end = s_end is not None and (s_end - y5[0] * y5[1]) * direction <= 0
            if crossed_stop or crossed_end:
                target = s_stop if crossed_stop else s_end
                # secant refinement of h so the step lands on s = target
                for _ in range(80):
                    s0 = y[0] * y[1]
                    s1 = y5[0] * y5[1]
                    if abs(s1 - target) < 1e-13 or s1 == s0:
                        break
                    h *= (target - s0) / (s1 - s0)
                    y5, err = dp_step(y, h)
            t += h
            max_drift = max(max_drift, abs(conserved_quantity(*y5) - 2.0))
            y = _ref_project_conserved(y5)
            ad, bd = cyl.reduced_rhs(*y)
            ts.append(t)
            as_.append(y[0])
            bs.append(y[1])
            ads.append(ad)
            bds.append(bd)
            nsteps += 1
            if crossed_stop or crossed_end:
                singular = bool(crossed_stop)
                break
        h *= min(5.0, max(0.2, 0.9 * (1.0 / max(err, 1e-12)) ** 0.2))

    profile = CylinderProfile(
        t=np.array(ts),
        a=np.array(as_),
        b=np.array(bs),
        adot=np.array(ads),
        bdot=np.array(bds),
        max_drift=max_drift,
        singularity=singular,
        steps=nsteps,
    )
    return profile


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def _outcome(integrator, **kwargs):
    """A profile's fields as dtypes and bytes, or the exception's type and message."""
    try:
        p = integrator(**kwargs)
    except (ValueError, OverflowError, SingularityReached) as exc:
        return type(exc), str(exc)
    columns = tuple((c.dtype.str, c.tobytes()) for c in (p.t, p.a, p.b, p.adot, p.bdot))
    return columns, np.float64(p.max_drift).tobytes(), p.steps, p.singularity


@pytest.mark.parametrize(
    "kwargs",
    [{"t_end": t} for t in (3.0, -1.0, -10.0, 50.0)] + [{"s_end": s} for s in (0.6, 0.8, 2.0, 1e6)],
    ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()),
)
def test_integrate_matches_the_numpy_integrator_bit_for_bit(kwargs):
    got = _outcome(cyl.integrate, **kwargs)
    assert got == _outcome(_ref_integrate, **kwargs)
    # a profile, singular exactly for the backward times (the boundary is at t = -0.188)
    assert len(got) == 4 and got[3] is (kwargs.get("t_end", 0.0) < 0)


@given(
    kwargs=st.one_of(
        st.floats(-12.0, 60.0).map(lambda t: {"t_end": t}),
        st.floats(0.5, 1e6, exclude_min=True).map(lambda s: {"s_end": s}),
    )
)
@settings(max_examples=20, deadline=None)
def test_drawn_ends_match_the_numpy_integrator(kwargs):
    assert _outcome(cyl.integrate, **kwargs) == _outcome(_ref_integrate, **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [{"t_end": 1e200}, {"s_end": 1e300}, {"s_end": 0.5}, {}, {"t_end": 1.0, "s_end": 2.0}],
    ids=repr,
)
def test_failing_runs_raise_what_the_numpy_integrator_raised(kwargs):
    got, want = _outcome(cyl.integrate, **kwargs), _outcome(_ref_integrate, **kwargs)
    assert got == want
    assert got[0] in (OverflowError, ValueError), got


def test_overflowing_forward_run_raises_overflow_error():
    with pytest.raises(OverflowError, match=r"^the state overflowed near t = "):
        cyl.integrate(t_end=1e200)


_REDUCED_RHS = cyl.reduced_rhs


def _nan_on_call(call: int, component: int):
    """`reduced_rhs` that returns NaN in one component on its `call`-th call."""
    calls = []

    def rhs(a, b):
        calls.append(1)
        out = list(_REDUCED_RHS(a, b))
        if len(calls) == call:
            out[component] = math.nan
        return tuple(out)

    return rhs


@pytest.mark.parametrize("call", [2, 7, 60])
@pytest.mark.parametrize("component", [0, 1], ids=["adot", "bdot"])
def test_a_nan_slope_rejects_the_step_as_np_max_did(monkeypatch, call, component):
    # a NaN in either component's error estimate rejects the step.  Call 7 is
    # the first step's last stage, whose slope feeds no other stage: a NaN
    # there reaches its own component's error only, and Python's
    # max(finite, nan), the finite value, would accept the step
    monkeypatch.setattr(cyl, "reduced_rhs", _nan_on_call(call, component))
    want = _ref_integrate(t_end=3.0)
    monkeypatch.setattr(cyl, "reduced_rhs", _nan_on_call(call, component))
    got = cyl.integrate(t_end=3.0)
    assert not np.isnan(got.a).any() and not np.isnan(got.b).any()  # the NaN step was not taken
    assert _outcome(lambda: got) == _outcome(lambda: want)


def test_the_state_is_python_floats():
    # the step returns plain floats, and the profile's arrays are contiguous
    a5, b5, err = cyl._dp_step(1.0, 1.0, 1e-3)
    assert all(type(v) is float for v in (a5, b5, err))
    assert all(type(v) is float for v in cyl._project_conserved(a5, b5))
    p = cyl.integrate(t_end=-1.0)
    assert all(getattr(p, c).flags.c_contiguous for c in ("t", "a", "b", "adot", "bdot"))
