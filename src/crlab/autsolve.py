"""Sampled tangency system and numerical null-space extraction.

The tangency identity is linear over R in the real and imaginary parts of
the field coefficients.  Sampling it on a (t, z2) grid gives a rectangular
matrix whose numerical null space is the space of infinitesimal CR
automorphisms at the chosen jet order.  Every reported basis vector is
re-validated by direct residual evaluation on an independent grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ParameterError
from .fields import VectorFieldPoly, monomial_field, residual_on_frame
from .models import ModelSpec, surface_frame

Column = tuple[int, int, int]  # (component, j, k): vector entries 2i (re), 2i+1 (im)

GAP_CONFIDENT = 1e3
GAP_AMBIGUOUS = 10.0
CERT_TOL = 1e-8
LABEL_TOL = 1e-4
SPAN_TOL = 1e-8


@dataclass(frozen=True)
class SampleGrid:
    """Cartesian product of real t values and complex z2 values."""

    t_values: tuple
    z2_values: tuple

    def __post_init__(self):
        # Tuples keep the frozen grid immutable and hashable.
        object.__setattr__(self, "t_values", tuple(self.t_values))
        object.__setattr__(self, "z2_values", tuple(self.z2_values))
        if not (np.all(np.isfinite(self.t_values)) and np.all(np.isfinite(self.z2_values))):
            raise ParameterError("grid values must be finite")
        if any(abs(z) == 0 for z in self.z2_values):
            raise ParameterError("z2 grid must avoid the origin exactly")

    @property
    def n(self) -> int:
        return len(self.t_values) * len(self.z2_values)

    def samples(self):
        t = np.asarray(self.t_values, dtype=float)
        z = np.asarray(self.z2_values, dtype=complex)
        T, Z = np.meshgrid(t, z, indexing="ij")
        return T.ravel(), Z.ravel()

    def describe(self) -> dict:
        return {"n_t": len(self.t_values), "n_z2": len(self.z2_values), "n": self.n}


def shell_points(radii, n_angles, phase=0.0):
    pts = []
    for r in radii:
        for q in range(n_angles):
            pts.append(r * np.exp(1j * (phase + 2 * np.pi * q / n_angles)))
    return tuple(pts)


def default_grid() -> SampleGrid:
    t = (0.0,) + tuple(s * v for v in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3) for s in (1, -1))
    z2 = shell_points((0.15, 0.25, 0.35, 0.45, 0.55), 24)
    return SampleGrid(t_values=t, z2_values=z2)


def validation_grid() -> SampleGrid:
    # Deliberately disjoint from default_grid: different t values, shell
    # radii and angular phase.
    t = tuple(s * v for v in (0.04, 0.11, 0.19, 0.28) for s in (1, -1))
    z2 = shell_points((0.2, 0.3, 0.4, 0.5), 17, phase=0.11)
    return SampleGrid(t_values=t, z2_values=z2)


@dataclass(frozen=True)
class TangencySystem:
    matrix: np.ndarray = field(repr=False)
    columns: tuple
    model: ModelSpec
    grid: SampleGrid

    @property
    def n_unknowns(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]


@dataclass
class AutBasis:
    singular_values: np.ndarray
    basis: list
    labels: list
    gap: float
    status: str
    validation_residuals: list
    projection_residuals: list = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def confident(self) -> bool:
        return self.status == "confident"


def _monomials(N: int, include_origin: bool):
    return [
        (j, k)
        for d in range(0, N + 1)
        for j in range(d, -1, -1)
        for k in [d - j]
        if include_origin or (j, k) != (0, 0)
    ]


def assemble(
    model: ModelSpec,
    N: int,
    grid: SampleGrid | None = None,
    vanish_at_origin: bool = True,
) -> TangencySystem:
    """Rows = residual functionals at grid samples, columns = unit basis
    fields (re/im part of each monomial coefficient, both components)."""
    if N < 1:
        raise ParameterError("jet order N must be >= 1")
    if grid is None:
        grid = default_grid()

    monos = _monomials(N, include_origin=not vanish_at_origin)
    columns: tuple[Column, ...] = tuple((comp, j, k) for comp in (1, 2) for (j, k) in monos)
    n_unknowns = 2 * len(columns)
    if grid.n < 4 * n_unknowns:
        raise ConfigurationError(
            f"grid has {grid.n} samples for {n_unknowns} unknowns; "
            "need at least a 4x oversampling"
        )

    z1, z2, g1, g2 = surface_frame(model, *grid.samples())

    # Complex response of each monomial column: g_comp * z1^j z2^k.
    powers1 = {j: z1**j for j in {j for j, _ in monos}}
    powers2 = {k: z2**k for k in {k for _, k in monos}}
    mat = np.empty((grid.n, n_unknowns))
    for ci, (comp, j, k) in enumerate(columns):
        base = (g1 if comp == 1 else g2) * powers1[j] * powers2[k]
        mat[:, 2 * ci] = np.real(base)         # coefficient 1
        mat[:, 2 * ci + 1] = -np.imag(base)    # coefficient i

    weights = np.max(np.abs(mat), axis=1)
    weights[weights == 0.0] = 1.0
    mat = mat / weights[:, None]

    return TangencySystem(matrix=mat, columns=columns, model=model, grid=grid)


def field_from_vector(x: np.ndarray, columns) -> VectorFieldPoly:
    """Field whose coefficient of monomial ``columns[i]`` is x[2i] + i x[2i+1]."""
    c1: dict = {}
    c2: dict = {}
    for (comp, j, k), re, im in zip(columns, x[0::2].tolist(), x[1::2].tolist()):
        if re == 0.0 and im == 0.0:
            continue
        # + 0.0 turns a -0.0 part into 0.0, so reports never print "-0.0".
        (c1 if comp == 1 else c2)[(j, k)] = complex(re + 0.0, im + 0.0)
    return VectorFieldPoly(c1, c2)


def vector_from_field(f: VectorFieldPoly, columns) -> np.ndarray | None:
    """Coefficient vector of f over the monomial ``columns`` (re, im of
    monomial i at entries 2i, 2i+1), or None if f uses a monomial outside
    the columns."""
    idx = {key: i for i, key in enumerate(columns)}
    x = np.zeros(2 * len(columns))
    for comp, coeffs in ((1, f.coeffs1), (2, f.coeffs2)):
        for (j, k), v in coeffs.items():
            if v == 0:
                continue
            i = idx.get((comp, j, k))
            if i is None:
                return None
            x[2 * i] = v.real
            x[2 * i + 1] = v.imag
    return x


@functools.lru_cache(maxsize=1)
def _validation_frame(model: ModelSpec):
    """Surface points and rho gradient on the validation grid, shared by every
    field validated on ``model``; read-only because they are cached."""
    frame = surface_frame(model, *validation_grid().samples())
    for a in frame:
        a.flags.writeable = False
    return frame


def validation_residual(model: ModelSpec, f: VectorFieldPoly) -> float:
    """Sup of |tangency residual| on the validation grid."""
    return float(np.max(np.abs(residual_on_frame(f, *_validation_frame(model)))))


def nullspace(system: TangencySystem, tau: float = 1e-8) -> AutBasis:
    """Right singular vectors below the relative threshold tau, certified on
    an independent validation grid.

    tau must lie in [max(m, n) * eps, 1) for an m x n system: below that
    roundoff floor (numpy's ``matrix_rank`` tolerance) no singular value
    can be told from zero.
    """
    floor = max(system.matrix.shape) * np.finfo(float).eps
    if not (floor <= tau < 1):
        raise ParameterError(f"tau must be in [{floor:.3g}, 1) for this system")
    if system.n_samples < system.n_unknowns:
        # The thin SVD would return fewer right singular vectors than unknowns.
        raise ConfigurationError("the system needs at least as many samples as unknowns")
    # assemble's m >= 4n is past dgesdd's m >> n crossover, where it factors A = QR
    # and takes the SVD of R too; R's SVD gives the same bits without forming U.
    _, s, vt = np.linalg.svd(np.linalg.qr(system.matrix, mode="r"), full_matrices=False)
    cutoff = tau * (s[0] if s[0] > 0 else 1.0)
    null_mask = s <= cutoff
    s_above = s[~null_mask]
    s_below = s[null_mask]
    if len(s_above) == 0 or len(s_below) == 0:
        gap = float("inf")
    else:
        gap = float(s_above.min() / max(s_below.max(), np.finfo(float).tiny))

    basis = [field_from_vector(vt[i], system.columns) for i in np.nonzero(null_mask)[0]]
    resids = [validation_residual(system.model, f) for f in basis]
    certified = [
        r <= CERT_TOL * max(f.max_coefficient(), np.finfo(float).tiny)
        for r, f in zip(resids, basis)
    ]

    if gap < GAP_AMBIGUOUS:
        status = "ambiguous"
    elif gap >= GAP_CONFIDENT and all(certified):
        status = "confident"
    else:
        status = "unconfirmed"

    return AutBasis(
        singular_values=s,
        basis=basis,
        labels=[None] * len(basis),
        gap=gap,
        status=status,
        validation_residuals=resids,
    )


# Candidate canonical fields with labels.  Each is one monomial with a unit
# coefficient, so each is a unit coordinate vector of the coefficient space.
DICTIONARY = (
    ("z1 dz1", monomial_field(1, 1, 0, 1.0)),
    ("i z1 dz1", monomial_field(1, 1, 0, 1j)),
    ("i z2 dz2", monomial_field(2, 0, 1, 1j)),
    ("z2 dz2", monomial_field(2, 0, 1, 1.0)),
    ("i dz2", monomial_field(2, 0, 0, 1j)),
    ("dz2", monomial_field(2, 0, 0, 1.0)),
    ("i dz1", monomial_field(1, 0, 0, 1j)),
    ("dz1", monomial_field(1, 0, 0, 1.0)),
)


def _union_keys(fields_):
    keys = set()
    for f in fields_:
        for comp, coeffs in ((1, f.coeffs1), (2, f.coeffs2)):
            for (j, k), v in coeffs.items():
                if v != 0:
                    keys.add((comp, j, k))
    return sorted(keys)


def canonicalize(basis: AutBasis) -> AutBasis:
    """Label basis vectors by best-matching ``DICTIONARY`` entries.

    If the matched entries span the same space (to ``SPAN_TOL``), they
    replace the raw SVD vectors; otherwise unmatched directions are labeled
    "unidentified" and the raw vectors are kept.
    """
    dim = basis.dimension
    if dim == 0:
        return basis

    keys = _union_keys(basis.basis + [f for _, f in DICTIONARY])
    B = np.array([vector_from_field(f, keys) for f in basis.basis])
    B = B / np.linalg.norm(B, axis=1)[:, None]
    # Orthonormalize (SVD vectors already are; QR guards roundoff).
    q, _ = np.linalg.qr(B.T)
    Bo = q.T[:dim]

    matched = []
    proj_residuals = []
    for label, f in DICTIONARY:
        v = vector_from_field(f, keys)
        resid = float(np.linalg.norm(v - Bo.T @ (Bo @ v)))
        if resid <= LABEL_TOL:
            matched.append((label, f, np.flatnonzero(v)[0]))
            proj_residuals.append(resid)

    if len(matched) == dim:
        # The matched entries span the coordinates they sit on, so Bo lies in
        # their span when its rows vanish on every other coordinate.
        outside = np.ones(len(keys) * 2, dtype=bool)
        outside[[i for _, _, i in matched]] = False
        if np.linalg.norm(Bo[:, outside], axis=1).max() <= SPAN_TOL:
            return replace(
                basis,
                basis=[VectorFieldPoly(dict(f.coeffs1), dict(f.coeffs2)) for _, f, _ in matched],
                labels=[label for label, _, _ in matched],
                projection_residuals=proj_residuals,
            )

    labels = [label for label, _, _ in matched][:dim]
    labels += ["unidentified"] * (dim - len(labels))
    return replace(basis, labels=labels, projection_residuals=proj_residuals)


def solve_model(
    model: ModelSpec,
    N: int = 5,
    tau: float = 1e-8,
    vanish_at_origin: bool = True,
) -> tuple[AutBasis, dict]:
    """Assemble, solve, canonicalize; return the basis and a JSON-ready report."""
    system = assemble(model, N, vanish_at_origin=vanish_at_origin)
    raw = nullspace(system, tau=tau)
    labeled = canonicalize(raw)
    report = {
        "model": model.describe(),
        "jet_order": N,
        "tau": tau,
        "vanish_at_origin": vanish_at_origin,
        "n_samples": system.n_samples,
        "n_unknowns": system.n_unknowns,
        "grid": system.grid.describe(),
        "singular_values": [float(x) for x in labeled.singular_values],
        "dimension": labeled.dimension,
        "gap": labeled.gap if np.isfinite(labeled.gap) else None,
        "confident": labeled.confident,
        "status": labeled.status,
        "basis": [f.to_records() for f in labeled.basis],
        "labels": labeled.labels,
        "validation_residuals": [float(r) for r in labeled.validation_residuals],
        "projection_residuals": [float(r) for r in labeled.projection_residuals],
    }
    return labeled, report
