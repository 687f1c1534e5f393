"""Exact-in-t tangency system and numerical null-space extraction.

On the model surface the tangency residual of a polynomial field is a real
polynomial in the surface parameter t whose coefficients depend on z2 only,
and it is linear over R in the real and imaginary parts of the field
coefficients.  One row per (t-degree, z2 point) gives a rectangular matrix
whose numerical null space is the space of infinitesimal CR automorphisms at
the chosen jet order.  Columns that share no t-degree share no row, so the
matrix is block diagonal, and each block is factored on its own.  A block of
several t-degrees that is not graded (below) is factored one degree at a
time: an unknown whose last degree is passed leaves the factorization.  Every
other block takes one SVD.
Where an antiholomorphic involution fixes the model, each block splits again
into its even and odd halves, with rows at one point of each conjugate pair.
A radial germ (P depends on |z2| only) makes the rigid and m-nonminimal
systems U(1)-equivariant: a monomial column carries one angular frequency
f, columns of frequency +-f meet only the residual's frequency-f Fourier
rows, and each block is graded into one small block per |f|, whose rows
come from the real point of each shell.  The null space is reported in
reduced row echelon form, and each of those rows is re-validated, exactly in
t, at independent z2 points (``VALIDATION_POINTS``, on other shells), so a
germ wrongly declared radial fails certification.  Neither step samples t:
the solver's one sampling setting is its z2 point set, ``solver_points(N)``
by default.  The blocks depend on a solve's structure, never on P, so their
layout is built once per structure (``_layout``) and holds no germ value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ParameterError
from .fields import VectorFieldPoly
from .models import M_NONMINIMAL, ONE_NONMINIMAL, RIGID, ModelSpec, _surface_polys

Column = tuple[int, int, int]  # (component, j, k): vector entries 2i (re), 2i+1 (im)

GAP_CONFIDENT = 1e3
GAP_AMBIGUOUS = 10.0
CERT_TOL = 1e-8
# Entries of the packed system above which assemble refuses a jet order.
MAX_ENTRIES = 1 << 23


def shell_points(radii, n_angles, phase=0.0):
    return tuple(r * np.exp(1j * (phase + 2 * np.pi * q / n_angles))
                 for r in radii for q in range(n_angles))


# The z2 points every basis field is validated at, on shells apart from the
# solver's (``SOLVER_SHELLS``).
VALIDATION_POINTS = np.asarray(shell_points((0.2, 0.3, 0.4, 0.5), 17, phase=0.11))
VALIDATION_POINTS.flags.writeable = False

SOLVER_SHELLS = (0.15, 0.25, 0.35, 0.45, 0.55)


def solver_points(N: int) -> tuple:
    """The solver's z2 points at jet order N: the N + 4 angles
    pi (2q + 1) / (2N + 8) on each shell, then their exact conjugates.  The
    2N + 8 angles resolve every angular frequency up to N + 1 that a
    residual row holds, and none lies on the real axis."""
    angles = np.pi * (2 * np.arange(N + 4) + 1) / (2 * N + 8)
    upper = (np.array(SOLVER_SHELLS)[:, None] * np.exp(1j * angles)).ravel()
    return tuple(np.concatenate((upper, np.conj(upper))).tolist())


@dataclass(frozen=True)
class Block:
    """The rows of the t-degrees ``degrees`` (degree-major, then z2 point):
    ``matrix[rows, :len(unknowns)]`` against the real ``unknowns``.  Unknown
    u first and last appears in the rows of ``degrees[first[u]]`` and
    ``degrees[last[u]]``; the unknowns are ordered by (last, first).  A
    block split by its conjugation (see ``_sigma``) is two of these, the
    sigma-even and the sigma-odd unknowns, each with rows at the first half
    of the points only.  A block of a graded system holds the columns of
    one rotation frequency |f|, ``frequency``; it is None elsewhere.
    ``nullspace`` factors an ungraded block of more than one degree along
    its staircase (``_r_factor``), and every other block by one SVD."""

    degrees: tuple
    rows: slice
    unknowns: np.ndarray
    first: np.ndarray
    last: np.ndarray
    frequency: int | None


@dataclass(frozen=True)
class TangencySystem:
    """The block-diagonal system, packed: row r of block b holds its entries
    on b's unknowns only, left-aligned.  Its null space is the tangency
    system's at ``points``.  ``p_max`` is max |P| over the z2 points the
    rows were written at (``_require_curved``)."""

    matrix: np.ndarray = field(repr=False)
    columns: tuple
    model: ModelSpec
    points: tuple
    blocks: tuple
    p_max: float

    @property
    def scale(self) -> np.ndarray:
        """Unknown i of the matrix is the field coefficient entry i divided by
        scale[i] = 1 / max|z2|^k: column (j, k) holds (z2 / max|z2|)^k."""
        r = np.max(np.abs(np.asarray(self.points)))
        return np.repeat([r ** -k for _, _, k in self.columns], 2)

    @property
    def n_unknowns(self) -> int:
        return 2 * len(self.columns)

    @property
    def graded(self) -> bool:
        """Whether the blocks are graded by rotation frequency (``assemble``)."""
        return self.blocks[0].frequency is not None

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    def describe(self) -> dict:
        n_t = len({d for b in self.blocks for d in b.degrees})
        return {"n_t": n_t, "n_z2": len(self.points), "n": self.n_samples}


@dataclass
class AutBasis:
    """The null space as one block of coefficient rows, in reduced row
    echelon form (``_rref``): ``coefficients[i, c]`` is basis vector i's
    coefficient on the monomial ``columns[c]``, in echelon order (``_columns``).  ``labels[i]`` writes row i
    as a field (``canonicalize``).  For a graded system ``frequencies[i]``
    is row i's rotation frequency |f|; it is None otherwise."""

    singular_values: np.ndarray
    columns: tuple
    coefficients: np.ndarray  # complex, one row per null vector
    labels: list
    gap: float
    status: str
    validation_residuals: list
    frequencies: list | None

    @property
    def basis(self) -> list:
        return _fields_from_rows(self.coefficients, self.columns)

    @property
    def dimension(self) -> int:
        return len(self.coefficients)

    @property
    def confident(self) -> bool:
        return self.status == "confident"


def _require_curved(model: ModelSpec, p_max: float, bound: float) -> None:
    """Reject a model whose rows cannot tell it from the Levi-flat P = 0,
    whose algebra is infinite-dimensional: p_max, max |P| over the z2 points
    that ``assemble`` writes rows at, is at most ``bound`` (0 in assemble,
    tau in nullspace)."""
    if p_max <= bound:
        raise ParameterError(
            "the solver requires P not identically zero on a neighborhood of 0; "
            f"germ '{model.germ.id}' gives max |P| = {p_max:.3g} over the z2 points, "
            f"not above {bound:.3g}: they cannot tell the model from the Levi-flat one"
        )


def _sigma(family: str, m: int) -> int | None:
    """The antiholomorphic involution sigma that fixes the family's models
    when P is conjugation-even, as a parity rule w: entry e (0 for the real
    part, 1 for the imaginary part) of column (comp, j, k) is sigma-even when
    e + w (comp + j) is even.  sigma is (z1, z2) -> (conj z1, conj z2) for
    rigid (w = 0) and (-conj z1, conj z2) for m-nonminimal with even m
    (w = 1); it maps t to -t.  None for the families that it does not fix.

    Then a residual row of t-degree d at conj(z) is (-1)^d times the row at
    z on the sigma-even unknowns and -(-1)^d times it on the sigma-odd ones,
    so the rows at z alone, split by parity, have the same null space."""
    if family == RIGID:
        return 0
    if family == M_NONMINIMAL and m % 2 == 0:
        return 1
    return None


def _conjugation_even(z: np.ndarray, p: np.ndarray, pw: np.ndarray) -> bool:
    """Whether the points z come as z, then conj(z) (``solver_points``), with
    P(conj z) = P(z) and dP/dz(conj z) = conj(dP/dz(z)) bit for bit, for P
    and dP/dz at z, p and pw."""
    h = len(z) // 2
    if len(z) % 2 or not np.array_equal(z[h:], np.conj(z[:h])):
        return False
    return np.array_equal(p[h:], p[:h]) and np.array_equal(pw[h:], np.conj(pw[:h]))


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for da, va in a.items():
        for db, vb in b.items():
            d = da + db
            out[d] = out[d] + va * vb if d in out else va * vb
    return out


def _column_polys(frame, pairs) -> dict:
    """g_comp z1^j as a polynomial in t, for each (comp, j), from z1, g1 and
    g2 at some points (``surface_polys``)."""
    z1, g1, g2 = frame
    powers = [{0: np.ones_like(g1[0])}]
    for _ in range(max((j for _, j in pairs), default=0)):
        powers.append(_poly_mul(powers[-1], z1))
    return {(comp, j): _poly_mul(g1 if comp == 1 else g2, powers[j]) for comp, j in pairs}


def _weight_blocks(polys: dict, columns) -> list:
    """Columns joined when their t-degree supports meet, as (sorted degrees,
    column indices) in order of the smallest degree.  The supports are the
    polynomials' keys, so a coefficient that is 0 at some point splits no
    block; they depend on (comp, j) only, so the pairs are joined."""
    blocks: list = []  # [degree set, (comp, j) pairs]
    for pair, poly in polys.items():
        support = set(poly)
        meet = [b for b in blocks if b[0] & support]
        blocks = [b for b in blocks if not b[0] & support]
        blocks.append([support.union(*(b[0] for b in meet)), {pair}.union(*(b[1] for b in meet))])
    owner = {pair: b for b, (_, pairs) in enumerate(blocks) for pair in pairs}
    cols: list = [[] for _ in blocks]
    for i, (comp, j, _) in enumerate(columns):
        cols[owner[(comp, j)]].append(i)
    return sorted((sorted(degrees), c) for (degrees, _), c in zip(blocks, cols))


def _frequency(column: Column) -> int:
    """The angular frequency f of column (comp, j, k) on a radial model: at
    z2 = r e^{i phi} its residual terms carry e^{i f phi}, f = k for comp 1
    and k - 1 for comp 2, because dP/dz carries e^{-i phi}."""
    comp, _, k = column
    return k if comp == 1 else k - 1


# Structures whose layout (``_layout``) is kept: a solve-sweep pass has 32.
_LAYOUTS = 64


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=_LAYOUTS)
def _columns(N: int, vanish_at_origin: bool) -> tuple[Column, ...]:
    """The monomial columns in echelon order: total degree, then component,
    then j descending.  One tuple for the layouts that share them."""
    return tuple((comp, j, d - j) for d in range(1 if vanish_at_origin else 0, N + 1)
                 for comp in (1, 2) for j in range(d, -1, -1))


@functools.lru_cache(maxsize=_LAYOUTS)
def _layout(family: str, m: int, N: int, vanish_at_origin: bool, graded: bool,
            halves: int, n_z: int, n_points: int) -> tuple:
    """What ``assemble`` writes for one structure (``n_z`` points per row
    group, a t-degree's rows; sigma ``halves`` 2 or 1), with no germ value:
    columns, (comp, j) pairs, blocks, shape, and read-only terms, src,
    groups, starts, plus_i and cols.  ``assemble`` reads each pair's
    polynomials (``_column_polys``) in order after a zero one: value i is
    polynomial ``terms[0, i]`` times (z2 / max|z2|)^``terms[1, i]``, then a
    graded system's values turned by i^(sign f), +i where ``plus_i``.  A
    strip is a column's entries on a row group: strip s is entry ``src[s] %
    2`` (Re or -Im) of value ``src[s] // 2`` in column ``cols[s]``, and those
    from ``starts[i]`` on are in row group ``groups[i]``.  Raises
    ConfigurationError for a system beyond its size limit or without a 2x
    oversampling (an error is not cached)."""
    w = _sigma(family, m)
    columns = _columns(N, vanish_at_origin)
    pairs = tuple(sorted({(comp, j) for comp, j, _ in columns}))
    # The supports alone, from the polynomials at no point.
    supports = _column_polys(_surface_polys(family, m, np.empty(0), np.empty(0, complex)), pairs)
    layout = []  # per block: degrees, columns, first, last, parts
    for degrees, cols in _weight_blocks(supports, columns):
        pos = {d: p for p, d in enumerate(degrees)}
        # Where each column first and last appears, and the columns in
        # (last, first) order; sorted() is stable, so a one-degree block
        # keeps the column order.
        span = {pair: (pos[max(supports[pair])], pos[min(supports[pair])])
                for pair in {columns[i][:2] for i in cols}}
        cols = sorted(cols, key=lambda i: span[columns[i][:2]])
        last, first = np.array([span[columns[i][:2]] for i in cols]).T
        # The block's parts: (frequency, sigma half or None for both entries,
        # positions of its columns, angles per degree, positions of the
        # degrees where one of those columns is in play: its other rows are 0).
        if graded:
            freq = np.array([abs(_frequency(columns[i])) for i in cols])
            groups = [(f, np.flatnonzero(freq == f)) for f in np.unique(freq).tolist()]
        else:
            groups = [(None, np.arange(len(cols)))]
        parts = []
        for f, c in groups:
            d = np.arange(len(degrees))
            kept = np.flatnonzero(((first[c, None] <= d) & (d <= last[c, None])).any(axis=0))
            if halves == 2 and f != 0:
                parts += [(f, half, c, 1, kept) for half in (0, 1)]
            else:  # both entries, and both angles for a graded f >= 1
                parts.append((f, None, c, 2 if f else 1, kept))
        layout.append((degrees, cols, first, last, parts))
    n_rows = n_z * sum(len(kept) * angles for *_, parts in layout for *_, angles, kept in parts)
    width = max(len(c) * (1 if half is not None else 2)
                for *_, parts in layout for _, half, c, _, _ in parts)
    if n_rows * width > MAX_ENTRIES:
        raise ConfigurationError(
            f"jet order {N} gives a {n_rows} x {width} system, above {MAX_ENTRIES} entries"
        )
    for degrees, cols, *_ in layout:
        if len(degrees) * n_points < 4 * len(cols):
            raise ConfigurationError(
                f"the block of t-degrees {degrees} has {len(degrees) * n_points} rows "
                f"for {2 * len(cols)} unknowns; need at least a 2x oversampling"
            )

    # Polynomial 0 is 0, then those of each pair in order, as assemble reads
    # them; a value is a polynomial's times z2^k, coded key (N + 1) + k.
    key_of = {key: i for i, key in enumerate(
        ((pair, d) for pair in pairs for d in supports[pair]), 1)}
    strips = []  # per part: row group, column, value code, turned, entry
    packed, start = [], 0
    for degrees, cols, first, last, parts in layout:
        comp, j, k = np.array([columns[i] for i in cols]).T
        # Each column's key at each degree, 0 where it has no term.
        keys = np.array([[key_of.get((columns[i][:2], d), 0) for d in degrees] for i in cols])
        for f, half, c, angles, kept in parts:
            # Over (degree, angle, column, entry): entry e of a value is Re
            # (e = 0, coefficient 1) or -Im (e = 1, coefficient i).  At pi /
            # (2f), or at the angle (half + d) mod 2 of a half, a graded value
            # is turned by i^(sign f).
            key = keys[c][:, kept].T[:, None, :, None]
            g = (start // n_z + np.arange(len(kept) * angles).reshape(-1, angles))[..., None, None]
            if half is None:  # unknown 2c + e
                e = np.arange(2)
                col = 2 * np.arange(len(c))[:, None] + e
                turned = np.arange(angles)[:, None, None]
            else:  # entry (half + w (comp + j)) mod 2, unknown c
                e = ((half + w * (comp[c] + j[c])) % 2)[:, None]
                col = np.arange(len(c))[:, None]
                turned = ((half + np.array(degrees)[kept]) % 2)[:, None, None, None]
            # A graded part writes its columns' values at d, and 0 (Re 0 and
            # -Im 0 = -0.0) where a column has none: only -0.0 needs a strip.
            code = key * (N + 1) + (key > 0) * k[c][:, None]
            written = (key > 0) | (graded & (e == 1))
            grid = np.broadcast_arrays(g, col, code, graded * turned, e, written)
            strips.append([x[grid[-1]] for x in grid[:-1]])
            if half is None:
                unknowns = np.ravel([(2 * cols[i], 2 * cols[i] + 1) for i in c])
            else:  # entry (half + w (comp + j)) mod 2 of each column
                unknowns = 2 * np.array(cols)[c] + e[:, 0]
            first_, last_ = (np.repeat(np.searchsorted(kept, x[c]), len(unknowns) // len(c))
                             for x in (first, last))
            block_rows = slice(start, start + len(kept) * n_z * angles)
            packed.append(Block(tuple(np.array(degrees)[kept].tolist()), block_rows,
                                *_read_only(unknowns, first_, last_), f))
            start = block_rows.stop
    rows, cols, code, turned, e = map(np.concatenate, zip(*strips))
    codes, value = np.unique(code, return_inverse=True)
    poly, power = divmod(codes, N + 1)
    # A graded value turns by +i where its frequency (``_frequency``) is positive.
    plus_i = (power - (np.array([0] + [pair[0] for pair, _ in key_of])[poly] == 2) > 0) & graded
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    src = 2 * (turned * len(codes) + value) + e
    return (columns, pairs, tuple(packed), (n_rows, width)) + _read_only(
        *(x.astype(np.int32) for x in (np.array([poly, power]), src, rows[starts], starts)),
        plus_i, cols.astype(np.min_scalar_type(width)))


def assemble(
    model: ModelSpec,
    N: int,
    points=None,
    vanish_at_origin: bool = True,
) -> TangencySystem:
    """Rows = real parts of the residual's t-coefficients at the z2 points
    (``solver_points(N)`` by default), columns = unit basis fields (re/im
    part of each monomial coefficient, both components), z2^k scaled by
    1 / max|z2|^k.  Where sigma fixes the model at the points (``_sigma``),
    each block is its sigma-even and sigma-odd halves, with rows at the
    first half of the points.

    A rigid or m-nonminimal model with a radial germ, at the default points,
    is graded by rotation frequency instead: each block splits into one
    block per |f| (``_frequency``), whose rows are the frequency-f Fourier
    components of the residual along each shell.  They are the rows at
    phi = 0 and pi / (2f) on the frequency +-f columns, or at phi = 0 alone
    for f = 0, and both come from the shell's real point r: the column's
    value at r e^{i pi / (2f)} is its value at r times i^(sign f).  Where
    sigma fixes the model, the frequency-f rows of degree d at phi = 0 meet
    only the unknowns of parity d, those at pi / (2f) only the others, so
    each f >= 1 block is two halves, one angle per degree each."""
    if N < 1:
        raise ParameterError("jet order N must be >= 1")
    if points is not None:
        points = tuple(complex(z) for z in points)
    # Each block has a row per z2 point for each of its t-degrees, so the
    # packed system has at least (points) x (2 x 2 x monomials) entries, half
    # that where sigma can split the blocks, and a graded block has at least
    # a row per shell: check that before building anything that grows with N.
    w = _sigma(model.family, model.m)
    graded = points is None and model.germ.radial and model.family != ONE_NONMINIMAL
    n_points = len(SOLVER_SHELLS) * (2 * N + 8) if points is None else len(points)
    per_column = 2 * len(SOLVER_SHELLS) if graded else n_points * (1 if w is not None else 2)
    least = per_column * ((N + 1) * (N + 2) - 2 * vanish_at_origin)
    if least > MAX_ENTRIES:
        raise ConfigurationError(
            f"jet order {N} gives a system of at least {least} entries, above {MAX_ENTRIES}"
        )
    points = solver_points(N) if points is None else points
    z = np.asarray(points)
    if not np.all(np.isfinite(z)) or np.any(z == 0):
        raise ParameterError("z2 points must be finite and avoid the origin exactly")
    r = np.max(np.abs(z))
    if graded:  # rows at each shell's real point, which is its own conjugate
        z = np.array(SOLVER_SHELLS, complex)
    p = model.germ(z)
    p_max = float(np.max(np.abs(p)))
    _require_curved(model, p_max, 0.0)
    pw = model.germ.wirt(z)
    if graded:
        halves = 2 if w is not None and _conjugation_even(
            *(np.tile(x, 2) for x in (z, p, pw))) else 1
    else:
        halves = 2 if w is not None and _conjugation_even(z, p, pw) else 1
        z, p, pw = (x[: len(z) // halves] for x in (z, p, pw))

    columns, pairs, blocks, shape, terms, src, groups, starts, plus_i, cols = _layout(
        model.family, model.m, N, vanish_at_origin, graded, halves, len(z), n_points)
    polys = _column_polys(_surface_polys(model.family, model.m, p, pw), pairs)
    values = np.array([np.zeros_like(z), *(v for pair in pairs for v in polys[pair].values())])
    x = values[terms[0]]
    x *= np.array([(z / r) ** k for k in range(N + 1)])[terms[1]]
    if graded:  # and the values turned by i^(sign f)
        x = np.concatenate((x, x * np.where(plus_i, 1j, -1j)[:, None]))
    # Entry e of a value: Re (e = 0, coefficient 1) or -Im (e = 1, coefficient i).
    e = src & 1
    strips = x.view(float).reshape(len(x), len(z), 2)[src >> 1, :, e]
    del x
    np.negative(strips, out=strips, where=e[:, None] == 1)
    # Each row divided by its max |entry|: the entries off its strips are 0.
    weights = np.maximum.reduceat(np.abs(strips), starts)
    weights[weights == 0.0] = 1.0
    counts = np.diff(starts, append=len(strips))
    strips /= np.repeat(weights, counts, axis=0)
    mat = np.zeros(shape)
    mat.reshape(-1, len(z), shape[1]).transpose(0, 2, 1)[np.repeat(groups, counts), cols] = strips
    return TangencySystem(matrix=mat, columns=columns, model=model, points=points,
                          blocks=blocks, p_max=p_max)


def _fields_from_rows(C: np.ndarray, columns) -> list:
    """A field per row of C, coefficient C[r, i] on ``columns[i]``, exact 0s left out."""
    parts = [[(i, (j, k)) for i, (c, j, k) in enumerate(columns) if c == comp] for comp in (1, 2)]
    return [
        VectorFieldPoly(*({key: row[i] for i, key in part if row[i]} for part in parts))
        for row in C.tolist()
    ]


def validation_residual(model: ModelSpec, f: VectorFieldPoly) -> float:
    """Max |t-coefficient| of f's tangency residual at the validation z2 points."""
    terms = [((comp, *key), v) for comp, c in enumerate((f.coeffs1, f.coeffs2), 1)
             for key, v in c.items()]
    C = np.array([[v for _, v in terms]], complex)
    p, pw = model.germ(VALIDATION_POINTS), model.germ.wirt(VALIDATION_POINTS)
    return float(_validation_residuals(model, C, [column for column, _ in terms], p, pw)[0])


def _validation_residuals(model: ModelSpec, C: np.ndarray, columns, p, pw) -> np.ndarray:
    """validation_residual of each row's field (``_fields_from_rows``) at once,
    for P and dP/dz at the validation points, p and pw.

    Terms are added per t-degree in sorted (component, j, k) order, so a
    field's bits do not depend on the zero columns stacked beside it."""
    # A column that no row uses adds exactly 0 to every term: skip it.
    used = sorted(np.flatnonzero(C.any(axis=0)), key=columns.__getitem__)
    z = VALIDATION_POINTS
    polys = _column_polys(_surface_polys(model.family, model.m, p, pw),
                          {columns[i][:2] for i in used})
    zk = {k: z**k for k in {columns[i][2] for i in used}}
    totals: dict = {}
    for i in used:
        comp, j, k = columns[i]
        a, b = C[:, i, None].real, C[:, i, None].imag
        for d, v in polys[(comp, j)].items():
            B = v * zk[k]
            term = a * B.real - b * B.imag
            totals[d] = totals[d] + term if d in totals else term
    out = np.zeros(len(C))
    for term in totals.values():
        out = np.maximum(out, np.max(np.abs(term), axis=1))
    return out


def _r_factor(A: np.ndarray, block: Block) -> np.ndarray:
    """The n x n R of A = QR, for the rows A of a block with n unknowns.

    The block's degrees are taken in order.  Each stacks the R so far, on
    the unknowns in play (first <= degree <= last), on the degree's rows,
    in chunks of at most 4 x (unknowns in play) rows.  When a degree is
    done, the R rows of the unknowns whose last degree it is are final, and
    R shrinks to the others.  The unknowns come in (last, first) order, so
    the final rows are R's leading ones.  ``nullspace`` calls this for the
    ungraded blocks of more than one degree only: there it costs less than
    one SVD of A."""
    n = A.shape[1]
    h = len(A) // len(block.degrees)  # rows per degree
    out = np.zeros((n, n))
    R, play, done = np.zeros((0, 0)), np.arange(0), 0
    for d in range(len(block.degrees)):
        # Unknowns before ``done`` have their last degree behind them.
        now = done + np.flatnonzero(block.first[done:] <= d)
        grown = np.zeros((len(R), len(now)))
        grown[:, np.searchsorted(now, play)] = R
        R, rows = grown, A[d * h : (d + 1) * h, now]
        i = 0
        while i < len(rows):
            chunk = 4 * len(now) - len(R)
            R = np.linalg.qr(np.vstack((R, rows[i : i + chunk])), mode="r")
            i += chunk
        k = np.count_nonzero(block.last[now] <= d)  # now[:k] = done, ..., done + k - 1
        out[done : done + min(k, len(R)), now] = R[:k]
        R, play, done = R[k:, k:], now[k:], done + k
    return out


def _rref(R: np.ndarray, tol: float) -> list:
    """Reduce the rows of R in place to reduced row echelon form, and return
    each row's pivot column.  Each step scales the rows not yet reduced to
    a largest entry of 1, and the first column, not yet a pivot, where one
    of them is above tol is the next pivot: the rows are independent and 0
    on the pivots so far, so there is one.  Entries at most tol are 0."""
    free = np.ones(R.shape[1], bool)
    pivots = []
    for k in range(len(R)):
        size = np.abs(R[k:])
        top = size.max(axis=1, keepdims=True)
        R[k:] /= top
        size /= top
        c = int(np.argmax(free & (size.max(axis=0) > tol)))
        r = k + int(np.argmax(size[:, c]))
        R[[k, r]] = R[[r, k]]
        R[k] /= R[k, c]
        factor = R[:, c].copy()
        factor[k] = 0.0
        R -= factor[:, None] * R[k]
        free[c] = False
        pivots.append(c)
    R[np.abs(R) <= tol] = 0.0
    return pivots


def nullspace(system: TangencySystem, tau: float = 1e-8) -> AutBasis:
    """Right singular vectors below the relative threshold tau, block by
    block, in reduced row echelon form and certified exactly in t at
    independent z2 points.

    tau must lie in [max(m, n) * eps, 1) for an m x n system: below that
    roundoff floor (numpy's ``matrix_rank`` tolerance) no singular value
    can be told from zero.  ``confident`` also needs every null singular
    value at or below that floor.  A model whose P is at most tau at every
    z2 point its rows were written at (``p_max``) is rejected (see
    ``_require_curved``).
    """
    floor = max(system.n_samples, system.n_unknowns) * np.finfo(float).eps
    if not (floor <= tau < 1):
        raise ParameterError(f"tau must be in [{floor:.3g}, 1) for this system")
    _require_curved(system.model, system.p_max, tau)
    factors = []
    for block in system.blocks:
        A = system.matrix[block.rows, : len(block.unknowns)]
        if A.shape[0] < A.shape[1]:
            # The thin SVD would return fewer right singular vectors than unknowns.
            raise ConfigurationError("each block needs at least as many samples as unknowns")
        if block.frequency is None and len(block.degrees) > 1:
            # R's SVD gives the singular values and right vectors of A without forming U.
            A = _r_factor(A, block)
        factors.append(np.linalg.svd(A, full_matrices=False)[1:])
    s = np.sort(np.concatenate([sb for sb, _ in factors]))[::-1]
    cutoff = tau * (s[0] if s[0] > 0 else 1.0)
    s_above = s[s > cutoff]
    s_below = s[s <= cutoff]
    if len(s_above) == 0 or s_below.max(initial=0.0) == 0.0:
        # An empty or full null space, or null values that are exactly 0.
        gap = float("inf")
    else:
        gap = float(s_above.min() / max(s_below.max(), np.finfo(float).tiny))

    # The null vectors are known to noise: the roundoff floor or the largest
    # null value, over the smallest value above the cutoff (Wedin's bound).
    # A pivot above sqrt(noise) amplifies that by at most 1 / sqrt(noise),
    # so the echelon rows are known to sqrt(noise).  They are formed on the
    # matrix's unknowns, whose scales are alike, block by block (blocks share
    # no unknown), and merged in the order of their pivots.
    noise = max(floor * s[0], s_below.max(initial=0.0)) / s_above.min() if len(s_above) else floor
    rows, pivots = [], []
    for block, (sb, vt) in zip(system.blocks, factors):
        ech = np.argsort(block.unknowns)  # unknowns are numbered in echelon order
        R = vt[sb <= cutoff][:, ech]
        pivots += block.unknowns[ech][_rref(R, np.sqrt(noise))].tolist()
        row = np.zeros((len(R), system.n_unknowns))
        row[:, block.unknowns[ech]] = R
        rows.append(row)
    rank = np.argsort(pivots)
    V, pivots = np.concatenate(rows)[rank], np.array(pivots, int)[rank]
    scale = system.scale
    # + 0.0 turns a -0.0 part into 0.0, so reports never print "-0.0".
    C = (V * scale / scale[pivots][:, None] + 0.0).view(complex)
    z, germ = VALIDATION_POINTS, system.model.germ
    p, pw = germ(z), germ.wirt(z)
    resids = _validation_residuals(system.model, C, system.columns, p, pw)
    # |C| row maxima are the basis fields' max_coefficient().  A field tangent
    # only to a Levi-flat model leaves a residual of the order of P where P
    # is small, and of the order of P's variation (z dP/dz) where P is
    # nearly constant, so the bound scales with both.
    level = min(1.0, np.max(np.abs(p)), np.max(np.abs(z * pw)))
    bound = np.maximum(np.abs(C).max(axis=1, initial=0.0), np.finfo(float).tiny)
    certified = resids <= CERT_TOL * level * bound
    at_roundoff = s_below.max(initial=0.0) <= floor * s[0]

    if gap < GAP_AMBIGUOUS:
        status = "ambiguous"
    elif gap >= GAP_CONFIDENT and all(certified) and at_roundoff:
        status = "confident"
    else:
        status = "unconfirmed"

    return AutBasis(
        singular_values=s,
        columns=system.columns,
        coefficients=C,
        labels=[None] * len(C),
        gap=gap,
        status=status,
        validation_residuals=resids.tolist(),
        frequencies=[abs(_frequency(system.columns[p // 2])) for p in pivots]
        if system.graded else None,
    )


def _monomial(comp: int, j: int, k: int) -> str:
    powers = [f"z{v}" + (f"^{e}" if e > 1 else "") for v, e in ((1, j), (2, k)) if e]
    return " ".join([*powers, f"dz{comp}"])


def canonicalize(basis: AutBasis) -> AutBasis:
    """Label each basis row as its field: a sum of monomial terms in echelon
    order, the pivot first, with coefficients to 6 significant digits
    (``i z2 dz2``, ``dz2 - 2 z2 dz1``, ``(1 + 2i) z1 dz1``)."""
    C = basis.coefficients
    labels = [""] * len(C)
    rows, cols = np.nonzero(C)  # row by row, each in echelon order
    for r, i, c in zip(rows.tolist(), cols.tolist(), C[rows, cols].tolist()):
        if c.real and c.imag:
            sign, coef = "+", f"({c.real:.6g} {'-' if c.imag < 0 else '+'} {abs(c.imag):.6g}i)"
        else:
            x = c.real or c.imag
            sign, coef = "-" if x < 0 else "+", f"{abs(x):.6g}"
            coef = ("" if coef == "1" else coef) + ("i" if c.imag else "")
        term = " ".join(filter(None, [coef, _monomial(*basis.columns[i])]))
        labels[r] += f" {sign} {term}" if labels[r] else ("-" if sign == "-" else "") + term
    return replace(basis, labels=labels)


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
        "grid": system.describe(),
        "singular_values": [float(x) for x in labeled.singular_values],
        "dimension": labeled.dimension,
        "gap": labeled.gap if np.isfinite(labeled.gap) else None,
        "confident": labeled.confident,
        "status": labeled.status,
        "basis": [f.to_records() for f in labeled.basis],
        "labels": labeled.labels,
        "frequencies": labeled.frequencies,
        "validation_residuals": [float(r) for r in labeled.validation_residuals],
    }
    return labeled, report
