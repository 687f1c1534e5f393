"""One-parameter flows of polynomial fields on C^2 and the scalar
characteristic ODE gamma' = b gamma^l (1 + g0(gamma)), plus the
u(t) = log|P(gamma(t))|/2 diagnostic."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .fields import VectorFieldPoly
from .germs import DEFAULT_RADIUS, SmoothGerm
from .models import ModelSpec, rho

UNDERFLOW_FLOOR = 1e-290
ORIGIN_RADIUS = 1e-12
# Right-hand-side evaluations one integration may make.  Without a budget
# the run time grows with the size of the right-hand side.
MAX_RHS_EVALS = 200_000
# Samples per trajectory, equispaced over the time span.
N_SAMPLES = 257
# Below this tol the error estimate is mostly roundoff.
TOL_MIN = 100 * np.finfo(float).eps
# A state and right-hand side whose absolute values sum to more than this
# many atol end the integration: the step-size and error norms square
# them over atol, which must not overflow.
OVERFLOW_LIMIT = 1e150

STATUS_OK = "ok"
STATUS_LEFT_DOMAIN = "left-domain"
STATUS_REACHED_ORIGIN = "reached-origin"


@dataclass
class FlowTrajectory:
    times: np.ndarray
    states: np.ndarray  # complex, shape (n,) for scalar or (n, 2) for C^2
    status: str = STATUS_OK
    # Outputs: rho along an integrate_field flow given a model, and the
    # log_p_diagnostic values.
    rho_residuals: np.ndarray | None = field(default=None, init=False)
    u_values: np.ndarray | None = field(default=None, init=False)
    # Integrator statistics, filled in by the integration.
    nfev: int = field(default=0, init=False)
    accepted_steps: int = field(default=0, init=False)

    @property
    def final_state(self):
        return self.states[-1]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "re_z1", "im_z1", "re_z2", "im_z2", "rho", "u"])
            for i, t in enumerate(self.times):
                if self.states.ndim == 1:
                    z1s, z2s = ["", ""], self.states[i]
                else:
                    z1s = [self.states[i, 0].real, self.states[i, 0].imag]
                    z2s = self.states[i, 1]
                r = "" if self.rho_residuals is None else self.rho_residuals[i]
                u = ""
                if self.u_values is not None and np.isfinite(self.u_values[i]):
                    u = self.u_values[i]
                w.writerow([t, *z1s, z2s.real, z2s.imag, r, u])


def _circle_event(i: int, radius: float, direction: int, status: str):
    """Terminal event: the modulus of the complex number (y[i], y[i+1])
    crosses ``radius`` in ``direction``; the trajectory then ends with
    ``status``."""

    def event(t, y):
        return math.hypot(y[i], y[i + 1]) - radius

    event.direction = direction
    event.status = status
    return event


# Dormand-Prince 5(4) (Dormand & Prince 1980): nodes C, stage rows A, the
# fifth-order weights B (b2 = 0), the error weights E = B - B* of the
# embedded fourth-order solution (e2 = 0) and, for dense output, Shampine's
# quartic coefficients P (1986), one tuple per stage (stage 2's are 0).
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40
)
P1 = (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432)
P3 = (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
      87487479700 / 32700410799)
P4 = (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072)
P5 = (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
      701980252875 / 199316789632)
P6 = (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844)
P7 = (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423)

# Step-size controller (Hairer-Norsett-Wanner I, II.4).
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 5
# Event times are located on the interpolant to this tolerance.
EVENT_XTOL = 4 * np.finfo(float).eps


def _rms(v) -> float:
    """Root mean square.  Like every sum in the integrator it adds left to
    right: ``sum()`` over floats is compensated from Python 3.12 on, and
    the step sequence must not depend on the Python version."""
    acc = 0.0
    for x in v:
        acc = acc + x * x
    return math.sqrt(acc) / len(v) ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol) -> float:
    """The first step size from the scaled norms of y0, f0 and the change
    in f over a trial Euler step (Hairer-Norsett-Wanner I, II.4); one
    more evaluation."""
    interval = abs(t_bound - t0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([a / s for a, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0 * direction, [v + h0 * direction * a for v, a in zip(y0, f0)])
    d2 = _rms([(b - a) / s for b, a, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _dense(t_old, h, y_old, k):
    """Shampine's quartic interpolant on the step [t_old, t_old + h] with
    stage derivatives k, as a function of t."""
    k1, _, k3, k4, k5, k6, k7 = k
    q = [
        [a * p1 + c * p3 + d * p4 + e * p5 + f * p6 + g * p7
         for p1, p3, p4, p5, p6, p7 in zip(P1, P3, P4, P5, P6, P7)]
        for a, c, d, e, f, g in zip(k1, k3, k4, k5, k6, k7)
    ]

    def at(t):
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return [v + h * (q0 * x + q1 * x2 + q2 * x3 + q3 * x4)
                for v, (q0, q1, q2, q3) in zip(y_old, q)]

    return at


def _bisect(g, a, b) -> float:
    """Where g changes sign on [a, b], by bisection to EVENT_XTOL in
    absolute and relative terms: the end of the last bracket on b's side
    (b itself if g(a) and g(b) have the same sign)."""
    ga = g(a)
    if ga == 0:
        return a
    while abs(b - a) > EVENT_XTOL * (1 + abs(b)):
        m = a + (b - a) / 2
        gm = g(m)
        if (gm < 0) == (ga < 0):
            a, ga = m, gm
        else:
            b = m
    return b


def _dormand_prince(fun, t0, t_bound, y0, rtol, atol, t_eval, events):
    """Integrate y' = fun(t, y) from t0 towards t_bound with Dormand-Prince
    5(4) on Python floats.  States in and out are lists of floats.

    Every event is terminal: after each step, an event whose value crossed
    zero in its ``direction`` is located on the interpolant and the
    earliest one ends the integration.  Returns the states at the
    ``t_eval`` times passed, the event that fired (or None), the end time
    and the number of accepted steps.
    """
    direction = 1.0 if t_bound > t0 else -1.0
    t, y = t0, y0
    k1 = fun(t, y)
    h_abs = _initial_step(fun, t, y, k1, t_bound, direction, rtol, atol)
    g = [event(t, y) for event in events]
    samples = []
    fired = None
    accepted = 0
    while fired is None and t != t_bound:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise ParameterError(
                    "integration failed: Required step size is less than "
                    "spacing between numbers."
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            k2 = fun(t + C2 * h, [v + (A21 * a) * h for v, a in zip(y, k1)])
            k3 = fun(t + C3 * h, [v + (A31 * a + A32 * b) * h
                                  for v, a, b in zip(y, k1, k2)])
            k4 = fun(t + C4 * h, [v + (A41 * a + A42 * b + A43 * c) * h
                                  for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = fun(t + C5 * h, [v + (A51 * a + A52 * b + A53 * c + A54 * d) * h
                                  for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = fun(t + h, [v + (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e) * h
                             for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * f)
                     for v, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
            k7 = fun(t_new, y_new)
            error_norm = _rms([
                (E1 * a + E3 * c + E4 * d + E5 * e + E6 * f + E7 * g) * h
                / (atol + max(abs(v), abs(w)) * rtol)
                for v, w, a, c, d, e, f, g in zip(y, y_new, k1, k3, k4, k5, k6, k7)
            ])
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        accepted += 1
        interpolant = None
        t_end = t_new
        if events:
            g_new = [event(t_new, y_new) for event in events]
            crossed = [
                i for i, event in enumerate(events)
                if (event.direction > 0 and g[i] <= 0 <= g_new[i])
                or (event.direction < 0 and g[i] >= 0 >= g_new[i])
            ]
            if crossed:
                interpolant = _dense(t, h, y, (k1, k2, k3, k4, k5, k6, k7))
                roots = [
                    (_bisect(lambda s, e=events[i]: e(s, interpolant(s)), t, t_new), i)
                    for i in crossed
                ]
                t_end, fired = min(roots, key=lambda r: direction * r[0])
            g = g_new
        n = len(samples)
        while n < len(t_eval) and direction * (t_eval[n] - t_end) <= 0:
            if interpolant is None:
                interpolant = _dense(t, h, y, (k1, k2, k3, k4, k5, k6, k7))
            samples.append(interpolant(t_eval[n]))
            n += 1
        t, y, k1 = t_new, y_new, k7
    return samples, fired, t_end, accepted


def _solve(rhs, t_span, y0, tol, events) -> FlowTrajectory:
    """Dormand-Prince 5(4) on ``t_span`` sampled at ``N_SAMPLES``
    equispaced times.  ``y0`` and ``rhs``'s values are lists of floats, the
    real and imaginary parts of the complex state.  The integration ends at
    ``t_span[1]`` or where the first terminal event fires, whose ``status``
    the trajectory gets.
    """
    if not (TOL_MIN <= tol < 1e-2):
        raise ParameterError(f"tol must lie in [{TOL_MIN:.3g}, 1e-2)")
    if not np.all(np.isfinite(t_span)):
        raise ParameterError("t_span must be finite")
    t_eval = np.linspace(t_span[0], t_span[1], N_SAMPLES)
    steps = np.diff(t_eval)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ParameterError(f"t_span is too short for {N_SAMPLES} distinct sample times")
    atol = tol * 1e-2
    limit = OVERFLOW_LIMIT * atol
    nfev = 0

    def checked_rhs(t, y):
        nonlocal nfev
        nfev += 1
        if nfev > MAX_RHS_EVALS:
            raise ParameterError(
                f"integration needs more than {MAX_RHS_EVALS} right-hand-side "
                "evaluations; the field is too large for t_span and tol"
            )
        try:
            dy = rhs(t, y)
        except OverflowError:  # a Python complex power past the float range
            dy = [math.inf]
        # sum, unlike max, passes a NaN on; a NaN or overflowing first step
        # size would never reach t_span's end.
        if not sum(map(abs, y + dy)) <= limit:
            where = "the initial state" if nfev == 1 else f"t = {t:.6g}"
            raise ParameterError(f"the state or right-hand side overflows at {where}")
        return dy

    t0, t1 = float(t_span[0]), float(t_span[1])
    samples, fired, _, accepted = _dormand_prince(
        checked_rhs, t0, t1, y0, tol, atol, t_eval.tolist(), events
    )
    y = np.array(samples)
    states = y[:, 0::2] + 1j * y[:, 1::2]
    traj = FlowTrajectory(
        times=t_eval[: len(samples)],
        states=states[:, 0] if states.shape[1] == 1 else states,
        status=STATUS_OK if fired is None else events[fired].status,
    )
    traj.nfev, traj.accepted_steps = nfev, accepted
    return traj


def integrate_field(
    f: VectorFieldPoly,
    z0,
    t_span,
    tol: float = 1e-10,
    model: ModelSpec | None = None,
) -> FlowTrajectory:
    """Adaptive embedded RK45 integration of (z1, z2)' = (h1, h2).

    The complex state is carried as four reals.  If ``model`` is given, rho
    is evaluated along the trajectory and the z2 component is confined to
    the germ's domain disk (early exit -> status "left-domain").
    """
    z10, z20 = complex(z0[0]), complex(z0[1])
    y0 = [z10.real, z10.imag, z20.real, z20.imag]

    def rhs(t, y):
        h1, h2 = f.eval(complex(y[0], y[1]), complex(y[2], y[3]))
        return [h1.real, h1.imag, h2.real, h2.imag]

    events = [] if model is None else [
        _circle_event(2, model.germ.radius, 1, STATUS_LEFT_DOMAIN)
    ]
    traj = _solve(rhs, t_span, y0, tol, events)
    if model is not None:
        states = traj.states
        # (Re z1)^m overflows for a large m long before the state does.
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.asarray(rho(model, states[:, 0], states[:, 1]), dtype=float)
        bad = ~np.isfinite(r)
        if bad.any():
            raise ParameterError(
                f"rho is not finite along the flow from t = {traj.times[bad.argmax()]:.6g}"
            )
        traj.rho_residuals = r
    return traj


def characteristic_flow(
    b: complex,
    l: int,
    g0,
    z0: complex,
    t_span,
    tol: float = 1e-10,
) -> FlowTrajectory:
    """Scalar characteristic ODE gamma' = b gamma^l (1 + g0(gamma)).

    Stops with status "reached-origin" when |gamma| falls below
    max(ORIGIN_RADIUS, tol), and "left-domain" when |gamma| > DEFAULT_RADIUS,
    the catalog germs' disk.  The origin radius is at least 100 atol
    (atol = tol/100): nearer the origin the error control no longer
    resolves gamma and the event may never fire.
    """
    if l < 0:
        raise ParameterError("l must be a non-negative integer")
    z0 = complex(z0)
    if z0 == 0:
        raise ParameterError("z0 must be nonzero (punctured disk)")
    if g0 is None:
        g0 = lambda z: 0.0
    elif not callable(g0):
        c0 = complex(g0)
        g0 = lambda z: c0
    b = complex(b)

    def rhs(t, y):
        g = complex(y[0], y[1])
        d = b * g**l * (1.0 + g0(g))
        return [d.real, d.imag]

    events = [
        _circle_event(0, max(ORIGIN_RADIUS, tol), -1, STATUS_REACHED_ORIGIN),
        _circle_event(0, DEFAULT_RADIUS, 1, STATUS_LEFT_DOMAIN),
    ]
    return _solve(rhs, t_span, [z0.real, z0.imag], tol, events)


def log_p_diagnostic(germ: SmoothGerm, traj: FlowTrajectory):
    """u(t) = log|P(gamma(t))|/2 with a least-squares slope fit.

    Returns (u_values, (delta_hat, fit_residual, linear)).  Samples with
    |P| below the underflow floor are excluded from the fit; fewer than 10
    valid samples raises InsufficientDataError.
    """
    z = traj.states if traj.states.ndim == 1 else traj.states[:, 1]
    p = np.abs(np.asarray(germ(z), dtype=float))
    valid = p > UNDERFLOW_FLOOR
    u = np.full(len(z), np.nan)
    u[valid] = 0.5 * np.log(p[valid])
    if valid.sum() < 10:
        raise InsufficientDataError(
            f"only {int(valid.sum())} samples with |P| above the underflow floor"
        )
    t = traj.times[valid]
    uv = u[valid]
    A = np.column_stack([t, np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(A, uv, rcond=None)
    delta_hat = float(coef[0])
    resid = uv - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    u_range = float(uv.max() - uv.min())
    linear = rms <= 1e-8 + 1e-3 * u_range
    traj.u_values = u
    return u, (delta_hat, rms, linear)


def blowup_time_estimate(traj: FlowTrajectory, b: complex, l: int) -> float:
    """Closed-form remaining time to blow-up for gamma' = b gamma^l, l >= 2,
    appended to the last computed sample."""
    if l < 2:
        raise ParameterError("blow-up estimate requires l >= 2")
    g_end = complex(traj.final_state)
    remaining = abs(g_end) ** (1 - l) / ((l - 1) * abs(b))
    return float(traj.times[-1] + remaining)
