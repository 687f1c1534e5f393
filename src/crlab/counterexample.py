"""Cut-off germ whose model carries an infinite-type surface point over a
finite-order base point, certifying strict inclusion of the product set in
the infinite-type locus."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .germs import DEFAULT_RADIUS, SmoothGerm, _p1_eval, _p1_wirt, make_bump
from .models import ModelSpec, ONE_NONMINIMAL, rho
from .vtype import vanishing_order


@dataclass(frozen=True)
class CounterexampleParams:
    z20: complex = 0.5 + 0.0j
    C: float = 0.3
    t0: float = 0.5
    r: float = 0.1

    def __post_init__(self):
        if not np.all(np.isfinite([self.z20, self.C, self.t0, self.r])):
            raise ParameterError("z20, C, t0 and r must be finite")
        if self.z20 == 0:
            raise ParameterError("z20 must be nonzero")
        # The certificate's bounds grow with |z20| and |C| (``certificate``),
        # and the increments it samples (|t| >= 1e-3) shrink as 1 / |t0|:
        # past 1e8 the bounds would no longer sit far below them.
        if max(1.0, abs(self.z20), abs(self.C)) * max(1.0, abs(self.t0)) > 1e8:
            raise ParameterError("max(1, |z20|, |C|) max(1, |t0|) must be at most 1e8")
        if self.t0 == 0:
            raise ParameterError("t0 must be nonzero real")
        if not (0 < self.r < abs(self.z20) / 4):
            raise ParameterError("need 0 < r < |z20|/4 (support separation)")
        if 2 * self.r >= abs(self.t0):
            raise ParameterError("need 2r < |t0| (denominator never vanishes)")


def build(params: CounterexampleParams) -> SmoothGerm:
    """The germ chi(z) exp(-1/|z|^2) + chi(z - z20) (C - (Re w + C Im w)/(t0 + Im w))."""
    z20, C, t0, r = params.z20, params.C, params.t0, params.r
    chi = make_bump(r)

    def q(w):
        num = np.real(w) + C * np.imag(w)
        den = t0 + np.imag(w)
        return C - num / den

    def q_wirt(w):
        # d/dz of Re w is 1/2, of Im w is -i/2 (Wirtinger).
        num = np.real(w) + C * np.imag(w)
        den = t0 + np.imag(w)
        dnum = 0.5 * (1.0 - 1j * C)
        dden = -0.5j
        return -(dnum * den - num * dden) / den**2

    def eval_fn(z):
        z = np.asarray(z, dtype=complex)
        w = z - z20
        first = chi(z) * _p1_eval(z, 2.0)
        inside = np.abs(w) < 2 * r
        second = np.where(inside, chi(w) * q(np.where(inside, w, 0.0)), 0.0)
        return np.real(first + second)

    def wirt_fn(z):
        z = np.asarray(z, dtype=complex)
        w = z - z20
        first = chi.wirt(z) * _p1_eval(z, 2.0) + chi(z) * _p1_wirt(z, 2.0)
        inside = np.abs(w) < 2 * r
        second = np.where(inside, chi.wirt(w) * q(np.where(inside, w, 0.0))
                          + chi(w) * q_wirt(np.where(inside, w, 0.0)), 0.0)
        return first + second

    return SmoothGerm(
        id="counterexample",
        radius=max(DEFAULT_RADIUS, abs(z20) + 2 * r + 0.1),
        eval_fn=eval_fn,
        wirt_fn=wirt_fn,
    )


def verify_increment_identity(germ: SmoothGerm, params: CounterexampleParams, t_samples) -> float:
    """max deviation of P(z20+t) - P(z20) from -(Re t + Im t P(z20))/(t0 + Im t)."""
    t = np.asarray(list(t_samples), dtype=complex)
    if np.any(np.abs(t) >= params.r):
        raise ParameterError("increment samples must satisfy |t| < r")
    p0 = germ(complex(params.z20))
    lhs = np.asarray(germ(params.z20 + t), dtype=float) - p0
    rhs = -(np.real(t) + np.imag(t) * p0) / (params.t0 + np.imag(t))
    return float(np.max(np.abs(lhs - rhs)))


DISC_CHOICES = {
    "t": lambda t: t,
    "t^2": lambda t: t**2,
}


def verify_disc(model: ModelSpec, params: CounterexampleParams, z1_of_t, t_grid) -> float:
    """max |rho(gamma(t))| for gamma(t) = (i t0 - t0 P(z20) + z1(t), z20 + z1(t))."""
    if model.family != ONE_NONMINIMAL:
        raise ParameterError("the disc construction lives on the one-nonminimal model")
    t = np.asarray(list(t_grid), dtype=complex)
    z1t = np.asarray(z1_of_t(t), dtype=complex)
    if np.any(np.abs(z1t) >= params.r):
        raise ParameterError("disc escapes the cut-off plateau |z1(t)| < r")
    p0 = model.germ(complex(params.z20))
    g1 = 1j * params.t0 - params.t0 * p0 + z1t
    g2 = params.z20 + z1t
    return float(np.max(np.abs(rho(model, g1, g2))))


def certificate(params: CounterexampleParams) -> dict:
    """JSON-ready certificate for the strict-inclusion witness."""
    germ = build(params)
    model = ModelSpec(family=ONE_NONMINIMAL, germ=germ)

    rng = np.random.default_rng(20230817)
    t = (0.95 * params.r) * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, 100)
    )
    inc_dev = verify_increment_identity(germ, params, t)

    s = np.linspace(-0.45 * params.r, 0.45 * params.r, 64)
    tgrid = s + 0.3j * s
    disc = {
        name: verify_disc(model, params, fn, tgrid) for name, fn in DISC_CHOICES.items()
    }

    est = vanishing_order(
        germ, params.z20,
        radii=np.logspace(-3, np.log10(params.r / 2), 10),
    )
    # The roundoff in both checks grows with |z20| and P(z20) = C, and in
    # the discs also with their z1 = i t0 - t0 C + z1(t).
    inc_size = max(1.0, abs(params.z20), abs(params.C))
    disc_size = max(inc_size, abs(params.t0) * max(1.0, abs(params.C)))
    ok = (
        inc_dev <= 1e-14 * inc_size
        and all(v <= 1e-13 * disc_size for v in disc.values())
        and est.finite
    )
    return {
        "params": {
            "z20": [params.z20.real, params.z20.imag],
            "C": params.C,
            "t0": params.t0,
            "r": params.r,
        },
        "increment_max_dev": inc_dev,
        "disc_residuals": disc,
        "order_at_z20": est.order,
        "order_slope": est.slope if np.isfinite(est.slope) else None,
        "verdict": "pass" if ok else "fail",
    }
