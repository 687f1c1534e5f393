"""Compute the infinitesimal CR automorphism algebras of the catalog models.

Each model is a real hypersurface in C^2 built from a smooth germ P that
vanishes to infinite order at the origin.  The solver expands the tangency
identity exactly in the surface parameter t at sampled z2 points, extracts
the numerical null space one t-degree block at a time (for a radial germ in
the rigid and m-nonminimal families, one rotation frequency at a time), and
writes the basis in reduced row echelon form, each row labelled as its field.
"""

from crlab import (
    M_NONMINIMAL,
    ModelSpec,
    ONE_NONMINIMAL,
    RIGID,
    get_germ,
    solve_model,
)


def show(title, basis, report):
    # A radial germ's rigid and m-nonminimal systems are graded by rotation
    # frequency: each basis field then carries the |f| of its monomials.
    print(f"\n{title}")
    print(f"  dimension      : {basis.dimension}  ({basis.status})")
    print(f"  spectral gap   : {basis.gap:.2e}")
    print(f"  validation sup : {max(report['validation_residuals'], default=0.0):.2e}")
    frequencies = basis.frequencies or [None] * basis.dimension
    for label, f in zip(basis.labels, frequencies):
        print(f"  basis          : {label}" + ("" if f is None else f"  (|f| = {f})"))


def main():
    # Rotationally symmetric flat germ: rotation in z2 survives alongside
    # the scaling field z1 d/dz1 that every model in this family carries.
    m = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
    show("exp(-1/|z|) model", *solve_model(m))

    # Breaking the rotational symmetry removes the rotation field.
    m = ModelSpec(ONE_NONMINIMAL, get_germ("p2"))
    show("exp(-1/|z| + Re z) model", *solve_model(m))

    # A tubular germ (depends on Re z2 only) admits imaginary translation,
    # but that field does not vanish at the origin: compare the stability
    # algebra with and without the origin constraint.
    m = ModelSpec(ONE_NONMINIMAL, get_germ("p3"))
    show("tubular model, fields free at 0", *solve_model(m, vanish_at_origin=False))
    show("tubular model, fields vanishing at 0", *solve_model(m, vanish_at_origin=True))

    # On the order-2 family even z1 d/dz1 stops being tangent; only the
    # rotation coming from the symmetric germ remains.
    m = ModelSpec(M_NONMINIMAL, get_germ("p1"), m=2)
    show("order-2 family, exp(-1/|z|) germ", *solve_model(m))

    # The hyperquadric Re z1 + |z2|^2 = 0 is not flat: its algebra is
    # su(2,1), of dimension 8 (Chern-Moser), printed in reduced row echelon
    # form.
    m = ModelSpec(RIGID, get_germ("control"))
    show("hyperquadric, fields free at 0", *solve_model(m, vanish_at_origin=False))


if __name__ == "__main__":
    main()
