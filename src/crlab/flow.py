"""One-parameter flows of polynomial fields on C^2 and the scalar
characteristic ODE gamma' = b gamma^l (1 + g0(gamma)), plus the
u(t) = log|P(gamma(t))|/2 diagnostic."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .fields import VectorFieldPoly
from .germs import SmoothGerm
from .models import ModelSpec, rho

UNDERFLOW_FLOOR = 1e-290
ORIGIN_RADIUS = 1e-12
# Right-hand-side evaluations one integration may make.  solve_ivp has no
# step budget, and its run time grows with the size of the right-hand side.
MAX_RHS_EVALS = 200_000

STATUS_OK = "ok"
STATUS_LEFT_DOMAIN = "left-domain"
STATUS_REACHED_ORIGIN = "reached-origin"


@dataclass
class FlowTrajectory:
    times: np.ndarray
    states: np.ndarray  # complex, shape (n,) for scalar or (n, 2) for C^2
    status: str = STATUS_OK
    rho_residuals: np.ndarray | None = None
    u_values: np.ndarray | None = None

    @property
    def final_state(self):
        return self.states[-1]

    def z2_component(self) -> np.ndarray:
        if self.states.ndim == 1:
            return self.states
        return self.states[:, 1]

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


def _circle_event(i: int, radius: float, direction: int):
    """Terminal event: the modulus of the complex number (y[i], y[i+1])
    crosses ``radius`` in ``direction``."""

    def event(t, y):
        return np.hypot(y[i], y[i + 1]) - radius

    event.terminal = True
    event.direction = direction
    return event


def _solve(rhs, t_span, y0, tol, n_samples, events):
    """RK45 on ``t_span`` sampled at ``n_samples`` equispaced times."""
    # Imported here: scipy.integrate is most of `import crlab`'s cost.
    from scipy.integrate import solve_ivp

    if not (1e-14 < tol < 1e-2):
        raise ParameterError("tol must lie in (1e-14, 1e-2)")
    if not np.all(np.isfinite(t_span)):
        raise ParameterError("t_span must be finite")
    atol = tol * 1e-2
    # solve_ivp never returns when the first step size comes out NaN: its
    # step heuristic takes the norm of the right-hand side over a scale of at
    # least atol, which must not overflow.
    with np.errstate(over="ignore"):
        scaled = np.asarray(rhs(t_span[0], y0)) / atol
        if not np.isfinite(np.dot(scaled, scaled)):
            raise ParameterError(
                "the right-hand side at the initial state is not finite or too large"
            )
    evals = itertools.count(1)

    def budgeted_rhs(t, y):
        if next(evals) > MAX_RHS_EVALS:
            raise ParameterError(
                f"integration needs more than {MAX_RHS_EVALS} right-hand-side "
                "evaluations; the field is too large for t_span and tol"
            )
        return rhs(t, y)

    t_eval = np.linspace(t_span[0], t_span[1], n_samples)
    sol = solve_ivp(
        budgeted_rhs, t_span, y0, method="RK45", rtol=tol, atol=atol,
        t_eval=t_eval, events=events,
    )
    if sol.status == -1:
        raise ParameterError(f"integration failed: {sol.message}")
    return sol


def integrate_field(
    f: VectorFieldPoly,
    z0,
    t_span,
    tol: float = 1e-10,
    model: ModelSpec | None = None,
    n_samples: int = 257,
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

    events = None if model is None else [_circle_event(2, model.germ.radius, 1)]
    sol = _solve(rhs, t_span, y0, tol, n_samples, events)
    states = sol.y[0] + 1j * sol.y[1]
    states = np.column_stack([states, sol.y[2] + 1j * sol.y[3]])
    times = sol.t
    status = STATUS_LEFT_DOMAIN if sol.status == 1 else STATUS_OK
    rr = None
    if model is not None and len(times):
        rr = np.asarray(rho(model, states[:, 0], states[:, 1]), dtype=float)
    return FlowTrajectory(times=times, states=states, status=status, rho_residuals=rr)


def characteristic_flow(
    b: complex,
    l: int,
    g0,
    z0: complex,
    t_span,
    tol: float = 1e-10,
    domain_radius: float = 0.75,
    n_samples: int = 257,
) -> FlowTrajectory:
    """Scalar characteristic ODE gamma' = b gamma^l (1 + g0(gamma)).

    Stops with status "reached-origin" when |gamma| < 1e-12 and
    "left-domain" when |gamma| > domain_radius.
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

    events = [_circle_event(0, ORIGIN_RADIUS, -1), _circle_event(0, domain_radius, 1)]
    sol = _solve(rhs, t_span, [z0.real, z0.imag], tol, n_samples, events)
    status = STATUS_OK
    if sol.status == 1:
        hit_origin = len(sol.t_events[0]) > 0
        status = STATUS_REACHED_ORIGIN if hit_origin else STATUS_LEFT_DOMAIN
    states = sol.y[0] + 1j * sol.y[1]
    return FlowTrajectory(times=sol.t, states=states, status=status)


def trajectory_from_samples(times, states) -> FlowTrajectory:
    """Wrap externally computed (e.g. closed-form) samples as a trajectory."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=complex)
    if np.any(np.diff(times) <= 0):
        raise ParameterError("times must be strictly increasing")
    return FlowTrajectory(times=times, states=states)


def log_p_diagnostic(germ: SmoothGerm, traj: FlowTrajectory):
    """u(t) = log|P(gamma(t))|/2 with a least-squares slope fit.

    Returns (u_values, (delta_hat, fit_residual, linear)).  Samples with
    |P| below the underflow floor are excluded from the fit; fewer than 10
    valid samples raises InsufficientDataError.
    """
    z = traj.z2_component()
    germ.check_inside(z)
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
