"""Independent finite-type oracles, with no crystal machinery.

The finite-type test, positive-root enumeration, the product formula for
dimensions and the multiplicity recursion are classical finite-type
representation theory, computed in exact integer arithmetic (Kac,
*Infinite dimensional Lie algebras*, 4.8 and 11.14).  They work in root
coordinates: a root or a weight's distance r below lam is a vector of
simple-root coefficients, and every pairing is a row of the Cartan matrix
dotted with it.  The multiplicity recursion runs only at the dominant
weights, reads the rest at dominant conjugates found by simple
reflections, and fills in the Weyl orbits at the end (Moody and Patera,
Bull. AMS 7, 1982; Stembridge, Adv. Math. 136, 1998).  They exist to
cross-check the crystal graphs against an independent route, so this
module imports only the standard library and :mod:`root_datum`.
"""

from __future__ import annotations

from operator import add, ge, mul, sub

from .root_datum import RootDatum, Weight


def finite_type_check(rd: RootDatum) -> bool:
    """True iff the Cartan matrix is positive definite (all leading minors > 0).

    The decision is made once per datum and kept in its ``__dict__``, so
    the callers in one command (the CLI's rule, ``positive_roots``,
    ``decompose_tensor``) share one elimination (:func:`_positive_definite`)."""
    finite = rd.__dict__.get("_finite")
    if finite is None:
        finite = rd.__dict__["_finite"] = _positive_definite(rd.cartan)
    return finite


def _positive_definite(cartan) -> bool:
    """One fraction-free (Bareiss) elimination without row swaps: its i-th
    pivot is the i-th leading principal minor, and the last one is det C.
    Each division is exact and by the previous pivot, already known > 0."""
    m = [list(row) for row in cartan]
    prev = 1
    for i, pivot_row in enumerate(m):
        pivot = pivot_row[i]
        if pivot <= 0:
            return False
        for row in m[i + 1:]:
            for c in range(i + 1, len(m)):
                row[c] = (row[c] * pivot - row[i] * pivot_row[c]) // prev
        prev = pivot
    return True


def infinite_vertices(rd: RootDatum) -> set[int]:
    """The vertices on connected components of the diagram not of finite
    type: B(lambda) is finite iff lambda vanishes on all of them.  The one
    place that splits the diagram into components.  A connected diagram is
    decided by :func:`finite_type_check` on rd itself; a disconnected one
    by one elimination per component, which also settles rd's own decision
    (C is positive definite iff each of its diagonal blocks is)."""
    infinite: set[int] = set()
    unseen = set(rd.vertices())
    while unseen:
        component, stack = set(), [unseen.pop()]
        while stack:
            k = stack.pop()
            component.add(k)
            linked = {l for l in unseen if rd.edge_mult[k - 1][l - 1]}
            unseen -= linked
            stack += linked
        if len(component) == rd.n:
            return set() if finite_type_check(rd) else component
        block = sorted(component)
        if not _positive_definite([[rd.cartan[k - 1][l - 1] for l in block] for k in block]):
            infinite |= component
    rd.__dict__.setdefault("_finite", not infinite)
    return infinite


def positive_roots(rd: RootDatum) -> list[tuple[int, ...]]:
    """All positive roots as simple-root coefficient vectors, sorted.  They
    are enumerated once per datum (:func:`_root_closure`) and kept in its
    ``__dict__``, as the finite-type decision is; each call hands out a
    fresh list."""
    roots = rd.__dict__.get("_positive_roots")
    if roots is None:
        roots = rd.__dict__["_positive_roots"] = _root_closure(rd)
    return list(roots)


def _root_closure(rd: RootDatum) -> tuple[tuple[int, ...], ...]:
    """The positive roots by height closure.

    Simply-laced only (which is all this library handles): a root string
    through beta in a simple direction has length at most one, so
    beta + alpha_k is a root iff (beta, alpha_k), row k of C dotted with
    beta, is below 1 if beta - alpha_k is a root and below 0 if not.
    """
    if not finite_type_check(rd):
        raise ValueError("positive root enumeration needs a finite-type root datum")
    level = [tuple(int(i == k) for i in range(rd.n)) for k in range(rd.n)]
    roots = set(level)
    while level:
        nxt = []
        for beta in level:
            for k, row in enumerate(rd.cartan):
                lowered = beta[:k] + (beta[k] - 1,) + beta[k + 1:]
                if sum(map(mul, row, beta)) < (lowered in roots):
                    gamma = beta[:k] + (beta[k] + 1,) + beta[k + 1:]
                    if gamma not in roots:
                        roots.add(gamma)
                        nxt.append(gamma)
        level = nxt
    return tuple(sorted(roots))


def weyl_dim(rd: RootDatum, lam: Weight) -> int:
    """dim V(lam) by the product formula over positive roots; exact integers."""
    if not rd.is_dominant(lam):
        raise ValueError("weyl_dim needs a dominant weight")
    return _weyl_product(rd, lam, positive_roots(rd))


def _weyl_product(rd: RootDatum, lam: Weight, roots) -> int:
    """dim V(lam) for a dominant lam, given ``positive_roots(rd)``."""
    shifted = [p + 1 for p in rd.pairing_vector(lam)]  # <h_k, lam + rho>
    num = den = 1
    for coeffs in roots:
        num *= sum(map(mul, coeffs, shifted))
        den *= sum(coeffs)
    if num % den != 0:
        raise AssertionError("dimension product did not divide evenly")
    return num // den


def freudenthal_multiplicities(rd: RootDatum, lam: Weight) -> dict[Weight, int]:
    """Weight multiplicities of V(lam), by Freudenthal's recursion at the
    dominant weights only; multiplicities are Weyl-invariant (Moody and
    Patera, Bull. AMS 7, 1982).

    A weight mu = lam - r is held by r and its pairings <h_k, mu> =
    <h_k, lam> - (C r)_k, and s_i adds <h_i, mu> to r_i.  (a) The dominant
    mu <= lam are found by subtracting positive roots from dominant weights
    and keeping the dominant results: a dominant mu < nu is reached from nu
    by such steps through dominant weights (Stembridge, Adv. Math. 136,
    1998).  (b) At those, in
    order of height, Freudenthal's formula

        (|lam + rho|^2 - |mu + rho|^2) m(mu)
            = 2 sum_{alpha > 0} sum_{j >= 1} m(mu + j alpha) (mu + j alpha, alpha)

    reads m(mu + j alpha) at its dominant conjugate, found by reflecting
    while some <h_i, nu> < 0; the first weight of multiplicity 0 ends the
    string, as weight strings are unbroken.  The formula is integral: the
    left factor is (r, lam + mu + 2 rho) = sum_k r_k (<h_k, lam> +
    <h_k, mu> + 2), and (mu + j alpha, alpha) = (mu, alpha) + j (alpha,
    alpha).  (c) Each orbit is filled in by reflecting down wherever
    <h_i, nu> > 0, keeping s_i nu only if i is its first negative pairing,
    so each element is reached once.  (d) Weights come by height of r, then
    by r, in the exact coordinates the crystal graphs use, so characters
    compare directly.
    """
    if not rd.is_dominant(lam):
        raise ValueError("freudenthal_multiplicities needs a dominant weight")
    lam_pair = rd.pairing_vector(lam)
    strings = []  # (alpha, C alpha, (alpha, alpha))
    for alpha in positive_roots(rd):
        c_alpha = tuple(sum(map(mul, row, alpha)) for row in rd.cartan)
        strings.append((alpha, c_alpha, sum(map(mul, alpha, c_alpha))))

    def pairing(r):
        return tuple(p - sum(map(mul, row, r)) for p, row in zip(lam_pair, rd.cartan))

    def reflect(r, pair, i):
        """s_i of the weight lam - r with pairings pair, in the same form."""
        c = pair[i]
        return (r[:i] + (r[i] + c,) + r[i + 1:],
                tuple([p - c * a for p, a in zip(pair, rd.cartan[i])]))

    top = (0,) * rd.n
    dominant, stack = {top}, [top]  # (a)
    while stack:
        r = stack.pop()
        pair = pairing(r)
        for alpha, c_alpha, _ in strings:
            nu = tuple(map(add, r, alpha))
            if nu not in dominant and all(map(ge, pair, c_alpha)):
                dominant.add(nu)
                stack.append(nu)

    mult = {top: 1}
    conjugates: dict[tuple[int, ...], tuple[int, ...]] = {}

    def conjugate_mult(r):
        """m(lam - r) read at its dominant conjugate; None once a reflection
        leaves the weights <= lam, as later ones only go up.  Each weight
        passed on the way is memoized with the same end."""
        if r not in conjugates:
            path, nu, pair = [r], r, pairing(r)
            while min(nu, default=0) >= 0 and (
                    i := next((k for k, p in enumerate(pair) if p < 0), None)) is not None:
                nu, pair = reflect(nu, pair, i)
                if nu in conjugates:
                    nu = conjugates[nu]
                    break
                path.append(nu)
            conjugates.update(dict.fromkeys(path, nu))
        return mult.get(conjugates[r])

    for r in sorted(dominant, key=lambda r: (sum(r), r))[1:]:  # (b)
        pair = pairing(r)
        rhs = 0
        for alpha, _, norm in strings:
            step = sum(map(mul, alpha, pair))  # (mu, alpha)
            nu = tuple(map(sub, r, alpha))
            while (m := conjugate_mult(nu)) is not None:
                step += norm
                rhs += m * step
                nu = tuple(map(sub, nu, alpha))
        denom = sum(x * (p + q + 2) for x, p, q in zip(r, lam_pair, pair))
        if denom <= 0 or (2 * rhs) % denom != 0:
            raise AssertionError("multiplicity recursion produced a non-integer")
        mult[r] = (2 * rhs) // denom

    orbits = {}
    for r, m in mult.items():  # (c)
        stack = [(r, pairing(r))]
        while stack:
            nu, pair = stack.pop()
            orbits[nu] = m
            for i, c in enumerate(pair):
                if c > 0:
                    lower, lower_pair = reflect(nu, pair, i)
                    if all(p >= 0 for p in lower_pair[:i]):  # else reached another way
                        stack.append((lower, lower_pair))
    return {Weight(lam.lambda_part, tuple(map(add, lam.root_part, r))): orbits[r]
            for r in sorted(orbits, key=lambda r: (sum(r), r))}  # (d)
