"""Hypersurface model families in C^2 and their defining functions.

Families:

    one-nonminimal:  Re z1 + (Im z1) P(z2) = 0
    m-nonminimal:    Im z1 - (Re z1)^m P(z2) = 0   (integer m >= 2)
    rigid:           Re z1 + P(z2) = 0

Each family carries an exact on-surface parametrization (t, z2) -> (z1, z2)
and the Wirtinger gradient of its defining function.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .germs import SmoothGerm

ONE_NONMINIMAL = "one-nonminimal"
M_NONMINIMAL = "m-nonminimal"
RIGID = "rigid"

FAMILIES = (ONE_NONMINIMAL, M_NONMINIMAL, RIGID)

DEFAULT_T_BOUND = 0.3


@dataclass(frozen=True)
class ModelSpec:
    family: str
    germ: SmoothGerm
    m: int = 1
    t_bound: float = DEFAULT_T_BOUND

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}; known: {FAMILIES}")
        if self.family == M_NONMINIMAL:
            # t**m and m * P take m as a float.
            if not (isinstance(self.m, int) and 2 <= self.m <= sys.float_info.max):
                raise ParameterError(
                    "m-nonminimal models require integer m >= 2 within the float range"
                )
        if not (np.isfinite(self.t_bound) and self.t_bound > 0):
            raise ParameterError("t_bound must be finite and positive")

    def describe(self) -> dict:
        d = {"family": self.family, "germ": self.germ.id, "t_bound": self.t_bound}
        if self.family == M_NONMINIMAL:
            d["m"] = self.m
        return d


def rho(model: ModelSpec, z1, z2):
    """Defining function value; real."""
    p = model.germ(z2)
    if model.family == ONE_NONMINIMAL:
        return np.real(z1) + np.imag(z1) * p
    if model.family == M_NONMINIMAL:
        return np.imag(z1) - np.real(z1) ** model.m * p
    return np.real(z1) + p


def surface_point(model: ModelSpec, t, z2):
    """Exact parametrization of the hypersurface; rho vanishes to roundoff."""
    _check_t(model, t)
    t = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
    p = model.germ(z2)
    if model.family == ONE_NONMINIMAL:
        z1 = 1j * t - t * p
    elif model.family == M_NONMINIMAL:
        z1 = t + 1j * t**model.m * p
    else:
        z1 = -p + 1j * t
    z2c = np.asarray(z2, dtype=complex) if np.ndim(z2) else complex(z2)
    return z1, z2c


def rho_gradient(model: ModelSpec, z1, z2):
    """(d rho/d z1, d rho/d z2) as Wirtinger derivatives."""
    p = model.germ(z2)
    pw = model.germ.wirt(z2)
    if model.family == ONE_NONMINIMAL:
        g1 = 0.5 + p / 2j
        g2 = np.imag(z1) * pw
    elif model.family == M_NONMINIMAL:
        m = model.m
        re1 = np.real(z1)
        g1 = 1 / 2j - m * re1 ** (m - 1) * p / 2.0
        g2 = -(re1**m) * pw
    else:
        g1 = 0.5 * np.ones_like(np.real(z1)) + 0j if np.ndim(z1) else 0.5 + 0j
        g2 = pw
    return g1, g2


def surface_frame(model: ModelSpec, t, z2):
    """Surface points (z1, z2) at (t, z2) and the rho gradient (g1, g2) there."""
    z1, z2c = surface_point(model, t, z2)
    g1, g2 = rho_gradient(model, z1, z2c)
    return z1, z2c, g1, g2


def surface_polys(model: ModelSpec, z2):
    """z1, g1 and g2 of ``surface_frame`` as polynomials in t: each is a dict
    {t-degree: coefficient at the points z2}.  t is real and P is real, so
    the residual Re[g1 h1 + g2 h2] of a polynomial field is a polynomial in t
    whose coefficients are the real parts of those of g1 h1 + g2 h2."""
    z2 = np.asarray(z2, dtype=complex)
    return _surface_polys(model.family, model.m, model.germ(z2), model.germ.wirt(z2))


def _surface_polys(family: str, m: int, p, pw):
    """``surface_polys`` from P and dP/dz at the points."""
    one = np.ones(np.shape(p), complex)
    if family == ONE_NONMINIMAL:  # z1 = t (i - P)
        return {1: 1j - p}, {0: 0.5 + p / 2j}, {1: pw}
    if family == M_NONMINIMAL:  # z1 = t + i t^m P
        return {1: one, m: 1j * p}, {0: one / 2j, m - 1: -m * p / 2.0}, {m: -pw}
    return {0: -p + 0j, 1: 1j * one}, {0: 0.5 * one}, {0: pw}  # z1 = -P + i t


def _check_t(model: ModelSpec, t):
    if not np.all(np.abs(t) <= model.t_bound * (1 + 1e-12)):  # NaN fails too
        raise DomainError(f"t must be finite with |t| <= the sample bound {model.t_bound}")
