"""Sampled tangency system and numerical null-space extraction.

The tangency identity is linear over R in the real and imaginary parts of
the field coefficients.  Sampling it on a (t, z2) grid gives a rectangular
matrix whose numerical null space is the space of infinitesimal CR
automorphisms at the chosen jet order.  Every reported basis vector is
re-validated by direct residual evaluation on an independent grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ParameterError
from .fields import VectorFieldPoly, monomial_field, tangency_residual
from .models import ModelSpec, rho_gradient, surface_point

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

    T, Z2 = grid.samples()
    z1, z2 = surface_point(model, T, Z2)
    g1, g2 = rho_gradient(model, z1, z2)

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
    for (comp, j, k), re, im in zip(columns, x[0::2], x[1::2]):
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


def validation_residual(model: ModelSpec, f: VectorFieldPoly, grid: SampleGrid | None = None) -> float:
    """Sup of |tangency residual| on a validation grid."""
    if grid is None:
        grid = validation_grid()
    T, Z2 = grid.samples()
    return float(np.max(np.abs(tangency_residual(model, f, T, Z2))))


def nullspace(
    system: TangencySystem,
    tau: float = 1e-8,
    val_grid: SampleGrid | None = None,
) -> AutBasis:
    """Right singular vectors below the relative threshold tau, certified on
    an independent validation grid."""
    if not (0 < tau < 1):
        raise ParameterError("tau must be in (0, 1)")
    _, s, vt = np.linalg.svd(system.matrix, full_matrices=True)
    n = system.n_unknowns
    # full_matrices gives all n right singular vectors; sigma of the missing
    # ones is exactly 0.
    s_full = np.zeros(n)
    s_full[: len(s)] = s
    cutoff = tau * (s_full[0] if s_full[0] > 0 else 1.0)
    null_mask = s_full <= cutoff
    s_above = s_full[~null_mask]
    s_below = s_full[null_mask]
    if len(s_above) == 0 or len(s_below) == 0:
        gap = float("inf")
    else:
        gap = float(s_above.min() / max(s_below.max(), np.finfo(float).tiny))

    basis = [field_from_vector(vt[i], system.columns) for i in np.nonzero(null_mask)[0]]
    resids = [validation_residual(system.model, f, val_grid) for f in basis]
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
        singular_values=s_full,
        basis=basis,
        labels=[None] * len(basis),
        gap=gap,
        status=status,
        validation_residuals=resids,
    )


def default_dictionary():
    """Candidate canonical fields, unit coefficient norm, with labels."""
    entries = [
        ("z1 dz1", monomial_field(1, 1, 0, 1.0)),
        ("i z1 dz1", monomial_field(1, 1, 0, 1j)),
        ("i z2 dz2", monomial_field(2, 0, 1, 1j)),
        ("z2 dz2", monomial_field(2, 0, 1, 1.0)),
        ("i dz2", monomial_field(2, 0, 0, 1j)),
        ("dz2", monomial_field(2, 0, 0, 1.0)),
        ("i dz1", monomial_field(1, 0, 0, 1j)),
        ("dz1", monomial_field(1, 0, 0, 1.0)),
    ]
    return entries


def _union_keys(fields_):
    keys = set()
    for f in fields_:
        for comp, coeffs in ((1, f.coeffs1), (2, f.coeffs2)):
            for (j, k), v in coeffs.items():
                if v != 0:
                    keys.add((comp, j, k))
    return sorted(keys)


def canonicalize(basis: AutBasis, dictionary=None) -> AutBasis:
    """Label basis vectors by best-matching dictionary spans.

    If the matched dictionary fields span the same space (to 1e-10), they
    replace the raw SVD vectors; otherwise unmatched directions are labeled
    "unidentified" and the raw vectors are kept.
    """
    if dictionary is None:
        dictionary = default_dictionary()
    dim = basis.dimension
    if dim == 0:
        return basis

    keys = _union_keys(basis.basis + [f for _, f in dictionary])
    B = np.array([vector_from_field(f, keys) for f in basis.basis])
    B = B / np.linalg.norm(B, axis=1)[:, None]
    # Orthonormalize (SVD vectors already are; QR guards roundoff).
    q, _ = np.linalg.qr(B.T)
    Bo = q.T[:dim]

    matched = []
    proj_residuals = []
    for label, f in dictionary:
        v = vector_from_field(f, keys)
        v = v / np.linalg.norm(v)
        resid = float(np.linalg.norm(v - Bo.T @ (Bo @ v)))
        if resid <= LABEL_TOL:
            matched.append((label, f, resid))
            proj_residuals.append(resid)

    if len(matched) == dim:
        D = np.array([vector_from_field(f, keys) for _, f, _ in matched])
        D = D / np.linalg.norm(D, axis=1)[:, None]
        qd, _ = np.linalg.qr(D.T)
        Do = qd.T[:dim]
        span_defect = max(
            float(np.linalg.norm(b - Do.T @ (Do @ b))) for b in Bo
        )
        if span_defect <= SPAN_TOL:
            new_fields = [
                (1.0 / f.coefficient_norm()) * f for _, f, _ in matched
            ]
            return replace(
                basis,
                basis=new_fields,
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
    grid: SampleGrid | None = None,
    val_grid: SampleGrid | None = None,
    dictionary=None,
) -> tuple[AutBasis, dict]:
    """Assemble, solve, canonicalize; return the basis and a JSON-ready report."""
    system = assemble(model, N, grid=grid, vanish_at_origin=vanish_at_origin)
    raw = nullspace(system, tau=tau, val_grid=val_grid)
    labeled = canonicalize(raw, dictionary)
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
        "gap": labeled.gap,
        "confident": labeled.confident,
        "status": labeled.status,
        "basis": [f.to_records() for f in labeled.basis],
        "labels": labeled.labels,
        "validation_residuals": [float(r) for r in labeled.validation_residuals],
        "projection_residuals": [float(r) for r in labeled.projection_residuals],
    }
    return labeled, report
