"""Smooth real-valued germs P on a disk, with analytic Wirtinger derivatives.

The catalog contains the flat germs

    p1:  exp(-1/|z|^a)            (rotationally symmetric)
    p2:  exp(-1/|z|^a + Re z)     (breaks rotational symmetry)
    p3:  exp(-1/|Re z|^a)         (tubular: depends on Re z only)

plus a zero germ, a non-flat control germ |z|^2, and the cut-off-based
counterexample germ (built in :mod:`crlab.counterexample`).

All evaluations accept complex scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError

DEFAULT_RADIUS = 0.75

_quiet = dict(divide="ignore", over="ignore", under="ignore", invalid="ignore")


@dataclass(frozen=True)
class SmoothGerm:
    """A real-valued C^infinity germ on the disk |z| <= radius."""

    id: str
    radius: float
    eval_fn: Callable = field(repr=False)
    wirt_fn: Callable = field(repr=False)

    def __call__(self, z):
        return self.eval_fn(np.asarray(z, dtype=complex)) if np.ndim(z) else float(
            self.eval_fn(complex(z))
        )

    def wirt(self, z):
        """Analytic Wirtinger derivative dP/dz = (P_x - i P_y)/2."""
        if np.ndim(z):
            return self.wirt_fn(np.asarray(z, dtype=complex))
        return complex(self.wirt_fn(complex(z)))

    def check_inside(self, z):
        if np.any(np.abs(z) > self.radius * (1 + 1e-12)):
            raise DomainError(
                f"point outside the domain disk of germ '{self.id}' "
                f"(radius {self.radius})"
            )


@dataclass(frozen=True)
class BumpFunction:
    """C^infinity cut-off: 1 on |z| < r, 0 on |z| > 2r, in [0,1] between."""

    inner: float

    def __call__(self, z):
        return self.radial(np.abs(z))

    def radial(self, s):
        a = _phi(2.0 * self.inner - np.asarray(s, dtype=float))
        b = _phi(np.asarray(s, dtype=float) - self.inner)
        out = a / (a + b)
        return out if np.ndim(s) else float(out)

    def radial_derivative(self, s):
        """d chi / d s."""
        s = np.asarray(s, dtype=float)
        a = _phi(2.0 * self.inner - s)
        b = _phi(s - self.inner)
        da = -_phi_prime(2.0 * self.inner - s)
        db = _phi_prime(s - self.inner)
        out = (da * b - a * db) / (a + b) ** 2
        return out if out.ndim else float(out)

    def wirt(self, z):
        """Wirtinger derivative of z -> chi(|z|)."""
        z = np.asarray(z, dtype=complex)
        s = np.abs(z)
        with np.errstate(**_quiet):
            out = np.where(s > 0, self.radial_derivative(s) * np.conj(z) / (2.0 * s), 0.0)
        return out if out.ndim else complex(out)


def _phi(s):
    """exp(-1/s) for s > 0, 0 otherwise (the standard mollifier leg)."""
    s = np.asarray(s, dtype=float)
    with np.errstate(**_quiet):
        out = np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
    return out


def _phi_prime(s):
    s = np.asarray(s, dtype=float)
    with np.errstate(**_quiet):
        safe = np.where(s > 0, s, 1.0)
        out = np.where(s > 0, np.exp(-1.0 / safe) / safe**2, 0.0)
    return out


def make_bump(r: float) -> BumpFunction:
    # At |z| = 1.5 r both mollifier legs are exp(-2/r); once that underflows
    # the cut-off is 0/0 there.
    if not (r > 0 and math.exp(-2.0 / r) > 0.0):
        raise ParameterError(
            "bump inner radius must exceed 0.0026841, where exp(-2/r) underflows to 0"
        )
    return BumpFunction(inner=float(r))


def _flat_radial(s, a):
    """exp(-1/s^a) with exact 0 at s = 0; underflow maps to 0."""
    with np.errstate(**_quiet):
        safe = np.where(s > 0, s, 1.0)
        return np.where(s > 0, np.exp(-safe ** (-a)), 0.0)


def _p1_eval(z, a):
    return _flat_radial(np.abs(z), a)


def _p1_wirt(z, a):
    s = np.abs(z)
    with np.errstate(**_quiet):
        safe = np.where(s > 0, s, 1.0)
        val = np.exp(-safe ** (-a)) * (a / 2.0) * safe ** (-a - 2.0) * np.conj(z)
        return np.where(s > 0, val, 0.0)


def _p2_eval(z, a):
    s = np.abs(z)
    with np.errstate(**_quiet):
        safe = np.where(s > 0, s, 1.0)
        return np.where(s > 0, np.exp(-safe ** (-a) + np.real(z)), 0.0)


def _p2_wirt(z, a):
    s = np.abs(z)
    with np.errstate(**_quiet):
        safe = np.where(s > 0, s, 1.0)
        p = np.exp(-safe ** (-a) + np.real(z))
        val = p * ((a / 2.0) * safe ** (-a - 2.0) * np.conj(z) + 0.5)
        return np.where(s > 0, val, 0.0)


def _p3_eval(z, a):
    return _flat_radial(np.abs(np.real(z)), a)


def _p3_wirt(z, a):
    # P3(x+iy) = Ptilde(x), so dP/dz = Ptilde'(x)/2, a real number.
    x = np.real(z)
    s = np.abs(x)
    with np.errstate(**_quiet):
        safe = np.where(s > 0, s, 1.0)
        deriv = np.exp(-safe ** (-a)) * a * safe ** (-a - 1.0) * np.sign(x)
        return np.where(s > 0, deriv / 2.0, 0.0) + 0.0j


def _zero_eval(z, a):
    return np.zeros_like(np.real(z))


def _zero_wirt(z, a):
    return np.zeros_like(np.asarray(z, dtype=complex))


def _control_eval(z, a):
    return np.abs(z) ** 2


def _control_wirt(z, a):
    return np.conj(np.asarray(z, dtype=complex))


# id -> (P(z, a), dP/dz(z, a)); zero and control ignore a.
_CATALOG = {
    "p1": (_p1_eval, _p1_wirt),
    "p2": (_p2_eval, _p2_wirt),
    "p3": (_p3_eval, _p3_wirt),
    "zero": (_zero_eval, _zero_wirt),
    "control": (_control_eval, _control_wirt),
}

CATALOG_IDS = (*_CATALOG, "counterexample")


def get_germ(germ_id: str, a: float = 1.0) -> SmoothGerm:
    """Catalog germ by id.  ``a`` is the flatness exponent."""
    if germ_id not in CATALOG_IDS:
        raise ParameterError(f"unknown germ id {germ_id!r}; known: {CATALOG_IDS}")
    if not (math.isfinite(a) and a > 0):
        raise ParameterError("exponent a must be finite and positive")
    if germ_id == "counterexample":
        from .counterexample import CounterexampleParams, build

        return build(CounterexampleParams())
    ev, wirt = _CATALOG[germ_id]
    return SmoothGerm(
        id=germ_id, radius=DEFAULT_RADIUS,
        eval_fn=lambda z: ev(z, a), wirt_fn=lambda z: wirt(z, a),
    )


def wirtinger_fd(germ: SmoothGerm, z: complex, h: float = 1e-5) -> complex:
    """Central finite-difference Wirtinger derivative, the oracle for wirt."""
    z = complex(z)
    if abs(z) + h > germ.radius * (1 + 1e-12):
        raise DomainError("finite-difference stencil leaves the domain disk")
    dx = (germ(z + h) - germ(z - h)) / (2.0 * h)
    dy = (germ(z + 1j * h) - germ(z - 1j * h)) / (2.0 * h)
    return 0.5 * (dx - 1j * dy)
