"""Inside the quasi-split special unitary model SU(3,1) over Q(i)[t, 1/t].

Shows the Gram matrix, the pinning of a single root group with its quadratic
corner correction, the failure of additivity measured by q2, a Weyl
representative, and the coroot shift of levels.

Run with:  python3 demos/03_unitary_model.py
"""

from fractions import Fraction as Q

from rgdcheck import (
    LaurentPoly,
    RootGroupCoords,
    affine_root,
    special_unitary,
)
from rgdcheck import slots
from rgdcheck.roots import vec


def show(name, matrix):
    print(f"{name}:")
    for line in str(matrix).splitlines():
        print("  " + line)
    print()


def main():
    su = special_unitary(3, 1)
    show("Gram matrix of the skew-hermitian form", su.gram)

    eps = vec(1)
    alpha = affine_root(eps, 0)
    x = su.relative_pinning(RootGroupCoords(alpha, (Q(1), Q(0)), (Q(0),)))
    show("pinning x(z=1, d=0) of the single root group", x)
    print("membership g*Fg = F and det = 1:", su.contains(x))
    print()

    # x(-(u+v)) x(u) x(v) on slot variables u = u0 + u1 sqrt(-1), v alike
    q2 = su.q2_additive(eps)
    print("additivity defect x(-(u+v)) x(u) x(v) lands in the doubled group,")
    print("certified for every coordinate and level: q2 =", slots.text(q2, 2))
    print("swapping u and v flips the sign:", slots.text(slots.swap(q2, 2), 2))
    print()

    u = RootGroupCoords(alpha, (Q(1), Q(0)), (Q(0),))
    w, w_inv, _, _, _ = su.w_element_parts(u)
    show("Weyl representative m(u) = v1 x(u) v2", w)
    print("m(u) times its inverse v2^-1 x(u)^-1 v1^-1, built from negated")
    print("coordinates, is the identity:", (w @ w_inv).is_identity())
    print()
    g = w @ x @ w_inv
    (peeled,) = su.peel_product(g, [affine_root(vec(-1), 0)])
    print("conjugating x by m(u) lands in the opposite group with coords",
          tuple(str(x) for x in peeled.c))
    print()

    kappa = su.coroot(eps, LaurentPoly.t_power(Q(-1, 2)))
    show("coroot value a^vee(t^(-1/2))", kappa)
    shifted = kappa @ x @ kappa.inverse()
    (peeled_shift,) = su.peel_product(shifted, [affine_root(eps, 1)])
    print("conjugation shifts the level 0 group to level 1, coords preserved:",
          tuple(str(x) for x in peeled_shift.c), tuple(str(x) for x in peeled_shift.d))


if __name__ == "__main__":
    main()
