"""Vanishing-order estimation nu_z(P), the S_infinity scan, and the
product-set inner approximation of the infinite-type locus."""

from __future__ import annotations

import cmath
import csv
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .germs import SmoothGerm
from .models import ModelSpec, surface_point

DEFAULT_K_MAX = 20
DEFAULT_N_ANGLES = 16
R2_ACCEPT = 0.999
DEFAULT_RADII = tuple(np.logspace(-3, -1, 10))


def _window(radii, n_angles, K_max):
    """What a scan fixes before its point: the sorted radii, the ring of
    offsets radii x exp(i angles), the fit matrix [log r, 1] and r^K_max."""
    radii = np.asarray(sorted(radii), dtype=float)
    if len(radii) < 8:
        raise ParameterError("need at least 8 radii for a stable fit")
    if not (np.all(np.isfinite(radii)) and radii[0] > 0):
        raise ParameterError("radii must be finite and positive")
    angles = 2 * np.pi * np.arange(n_angles) / n_angles
    log_r = np.log(radii)
    fit = np.column_stack([log_r, np.ones_like(log_r)])
    return radii, radii[:, None] * np.exp(1j * angles), fit, radii**K_max


_DEFAULT_WINDOW = _window(DEFAULT_RADII, DEFAULT_N_ANGLES, DEFAULT_K_MAX)
for _array in _DEFAULT_WINDOW:
    _array.flags.writeable = False
del _array


@dataclass(frozen=True)
class VanishingOrderEstimate:
    point: complex
    order: int | None          # None when infinite or fit rejected
    infinite: bool
    slope: float
    r2: float                  # fit confidence; nan when no fit possible
    note: str = ""

    @property
    def finite(self) -> bool:
        return self.order is not None and not self.infinite


def vanishing_order(
    germ: SmoothGerm,
    z: complex,
    K_max: int = DEFAULT_K_MAX,
    radii=None,
    n_angles: int = DEFAULT_N_ANGLES,
) -> VanishingOrderEstimate:
    """Log-log slope estimate of the vanishing order of P(z+zeta)-P(z).

    INFINITE is an estimator verdict, not a certificate: it fires when the
    max directional increment decays faster than |zeta|^K_max across the
    whole radius window (or is exactly 0 at all radii but at most one).
    """
    if not 1 <= K_max <= sys.float_info.max:  # NaN, inf and ints beyond floats fail
        raise ParameterError("K_max must be finite and >= 1")
    if not (isinstance(n_angles, (int, np.integer)) and n_angles >= 1):
        raise ParameterError("n_angles must be an integer >= 1")
    if radii is None and n_angles == DEFAULT_N_ANGLES and K_max == DEFAULT_K_MAX:
        window = _DEFAULT_WINDOW
    else:
        window = _window(DEFAULT_RADII if radii is None else radii, n_angles, K_max)
    radii, ring, fit, radii_k = window
    z = complex(z)
    if not cmath.isfinite(z):
        raise ParameterError("z must be finite")
    if abs(z) + radii[-1] > germ.radius * (1 + 1e-12):
        raise ParameterError("radius window leaves the germ's domain disk")

    # One germ call: the centre z first, then the radius x angle ring.
    pts = np.empty(1 + ring.size, dtype=complex)
    pts[0] = z
    np.add(z, ring, out=pts[1:].reshape(ring.shape))
    vals = germ(pts)
    diffs = np.abs(vals[1:].reshape(ring.shape) - vals[0]).max(axis=1)

    positive = diffs > 0.0
    if np.count_nonzero(positive) < 2:
        return VanishingOrderEstimate(
            point=z, order=None, infinite=True, slope=float("inf"),
            r2=float("nan"), note="by-underflow",
        )

    A, y = (fit, np.log(diffs)) if positive.all() else (fit[positive], np.log(diffs[positive]))
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    resid = y - A @ coef
    ss_tot = float(((y - y.sum() / len(y)) ** 2).sum())  # y.mean(), bit for bit
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0

    flat_window = bool((diffs <= radii_k).all())
    if slope >= K_max or flat_window:
        note = "slope-exceeds-window" if slope >= K_max else "sub-power-window"
        return VanishingOrderEstimate(
            point=z, order=None, infinite=True, slope=slope, r2=r2, note=note
        )
    if r2 >= R2_ACCEPT:
        return VanishingOrderEstimate(
            point=z, order=int(round(slope)), infinite=False, slope=slope, r2=r2
        )
    return VanishingOrderEstimate(
        point=z, order=None, infinite=False, slope=slope, r2=r2, note="poor-fit"
    )


def scan_s_infinity(germ: SmoothGerm, grid):
    """Points of the grid flagged infinite-order (candidate S_infinity)."""
    estimates = (vanishing_order(germ, z) for z in grid)
    return [est.point for est in estimates if est.infinite]


def p_infinity_candidates(model: ModelSpec, s_inf, t_values):
    """Inner approximation {surface_point(t, z2): z2 in S_inf}.

    The containment can be strict: the counterexample construction exhibits
    an infinite-type surface point over a finite-order z2.
    """
    pts = []
    for z2 in s_inf:
        for t in t_values:
            pts.append(surface_point(model, t, z2))
    return pts


def write_scan_csv(path, germ: SmoothGerm, grid, K_max: int = DEFAULT_K_MAX):
    rows = [vanishing_order(germ, z, K_max=K_max) for z in grid]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re", "im", "slope", "order_or_inf", "r2", "note"])
        for est in rows:
            order = "inf" if est.infinite else ("" if est.order is None else est.order)
            w.writerow(
                [est.point.real, est.point.imag, est.slope, order, est.r2, est.note]
            )
    return rows
