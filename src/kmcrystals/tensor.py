"""The signed-max tensor product rule for crystals, in two- and n-factor form.

For b_1 (x) ... (x) b_n the position profiles are

    eps_k^p = eps_k(b_p) - sum_{q<p} wt_k(b_q),
    phi_k^p = phi_k(b_p) + sum_{q>p} wt_k(b_q),

where wt_k is the coroot pairing of a factor's weight.  The tensor
statistics are the maxima of the profiles; e_k acts on the factor at the
smallest position attaining the eps-maximum, f_k at the largest position
attaining the phi-maximum.  Any factor-level operator returning None
collapses the whole result to None.  An element keeps the record every
element keeps, ``(rd, wt, eps, phi, e_sites, f_sites)`` (see
:func:`~kmcrystals.crystal_core.stats_record`), its sites factor
positions, and None exactly where eps_k (for e_k) or phi_k (for f_k) is
-inf.  It is built from its factors' columns, each made once per datum
and kept for the factor instance's life (:func:`_columns`), by one
forward scan per vertex (:func:`_scan`).  With L_p = sum_{q<p} wt_k(b_q)
the running left sum, eps_k^p = eps_k(b_p) - L_p and phi_k^p = L_n +
(phi_k(b_p) - L_{p+1}), so phi_k is the final sum L_n plus the maximum of
phi_k(b_p) - L_{p+1}; the scan keeps the first eps-maximum and the last
phi-maximum.  A position where the factor's statistic is -inf takes no
part in the maximum and gets no arithmetic; a vertex where every
position is -inf gets -inf and no site.  The profiles are not kept:
``eps_profile`` and ``phi_profile`` compute them from the formulas above
when asked, and are the record's reference.
:class:`TensorElement` supplies the ``_build`` and ``_move`` of
:class:`~kmcrystals.crystal_core.CrystalElement`, which reads the record
and applies the operators: ``_move`` applies the operator to the factor
at the site, and returns None when that factor does.

One convention only: f_k prefers the LEFT factor on strict inequality
phi_k(b_1) > eps_k(b_2), exactly as the two-factor case is stated.  Other
sources order the tensor factors the other way round; no flag is offered,
since a silent convention switch is the classic source of mismatched
decompositions.

Factors may themselves be tensor elements.  Nesting is preserved, which is
what makes the associativity check meaningful: a nested bracketing and its
flattening must produce the same statistics and mirrored operators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crystal_core import NEG_INF, CrystalElement, ext_max, stats_record
from .root_datum import RootDatum, Weight


@dataclass(frozen=True)
class TensorElement(CrystalElement):
    tag = "Tensor"
    factors: tuple[CrystalElement, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("tensor element needs at least one factor")

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(self.factors)
        return h

    def eps_profile(self, rd: RootDatum, k: int) -> list:
        """[eps_k^p for each position p] by its definition, with -inf
        arithmetic: the reference for the record's eps_k and e-site."""
        rd._check_vertex(k)
        profile, left = [], 0  # sum_{q<p} wt_k(b_q)
        for _, eps, _, pairs, _ in _columns(rd, self)[1]:
            profile.append(eps[k - 1] - left)
            left += pairs[k - 1]
        return profile

    def phi_profile(self, rd: RootDatum, k: int) -> list:
        """[phi_k^p for each position p] by its definition, with -inf
        arithmetic: the reference for the record's phi_k and f-site."""
        rd._check_vertex(k)
        profile, right = [], 0  # sum_{q>p} wt_k(b_q)
        for _, _, phi, pairs, _ in reversed(_columns(rd, self)[1]):
            profile.append(phi[k - 1] + right)
            right += pairs[k - 1]
        return profile[::-1]

    def _build(self, rd: RootDatum) -> tuple:
        """The record of the module docstring: per vertex, one forward
        :func:`_scan` over the factor reads of :func:`_columns`."""
        wt, cols = _columns(rd, self)
        out = [_scan(cols, i) for i in range(rd.n)]
        # the four columns; empty ones on a datum of rank 0
        return (rd, wt, *(tuple(zip(*out)) or ((),) * 4))

    def _move(self, rd: RootDatum, k: int, p: int, delta: int):
        """self with the factor at p moved, or None when that factor's
        operator returns None.  The factors stay nonempty, so the image is
        not re-validated."""
        moved = self.factors[p].e(rd, k) if delta < 0 else self.factors[p].f(rd, k)
        if moved is None:
            return None
        y = object.__new__(TensorElement)  # skips __init__ and __post_init__
        y.__dict__["factors"] = self.factors[:p] + (moved,) + self.factors[p + 1 :]
        return y

    def key(self) -> str:
        """The list of the factors' keys, in order, under ``"Tensor"``:
        compact JSON of a list is its items' texts joined by commas."""
        return '{"Tensor":[' + ",".join([x.key() for x in self.factors]) + "]}"


def _columns(rd: RootDatum, x: TensorElement) -> tuple:
    """(wt, cols) of x: cols[p] is factor p's column ``(rd, eps, phi, pairs,
    wt)``, its record's eps and phi vectors, its weight's pairing vector and
    its weight against rd, and wt is the sum of the factors' weights.  A
    factor instance builds its column once per datum and keeps it, tagged
    with rd, in its ``__dict__`` for its life: ``embed_psi`` puts a few part
    instances at most positions and ``generate`` shares equal factors.  A
    column holds no record, so ``trim_record`` still frees rank rows."""
    cols = []
    for b in x.factors:
        col = b.__dict__.get("_column")
        if col is None or col[0] is not rd:
            w, eps, phi = stats_record(b, rd)[1:4]
            col = b.__dict__["_column"] = (rd, eps, phi, rd.pairing_vector(w), w)
        cols.append(col)
    weights = [col[4] for col in cols]
    wt = Weight(tuple(map(sum, zip(*[w.lambda_part for w in weights]))),
                tuple(map(sum, zip(*[w.root_part for w in weights]))))
    return wt, cols


def _scan(cols: list, i: int) -> tuple:
    """(eps_k, phi_k, e-site, f-site) at vertex k = i + 1, by the one
    forward scan of the module docstring.  A -inf entry is skipped, with no
    arithmetic on it; a statistic with no finite entry is NEG_INF, site None."""
    eps = phi = e_site = f_site = None
    left = 0  # sum_{q<p} wt_k(b_q), then sum_{q<=p} once b_p's weight is in
    for p, (_, eps_p, phi_p, pairs, _) in enumerate(cols):
        c = eps_p[i]
        if c is not NEG_INF:
            c -= left
            if e_site is None or c > eps:  # strictly greater: the first maximum stays
                eps, e_site = c, p
        left += pairs[i]
        c = phi_p[i]
        if c is not NEG_INF:
            c -= left
            if f_site is None or c >= phi:  # greater or equal: the last maximum stays
                phi, f_site = c, p
    return (NEG_INF if e_site is None else eps, NEG_INF if f_site is None else phi + left,
            e_site, f_site)


def flatten(x: CrystalElement) -> tuple[CrystalElement, ...]:
    """The canonical re-bracketing bijection: nested tensors to a flat factor list."""
    if not isinstance(x, TensorElement):
        return (x,)
    return tuple(y for factor in x.factors for y in flatten(factor))


# Literal two-factor rule, kept as an independent oracle for the n-fold form.

def binary_eps(rd: RootDatum, x: TensorElement, k: int):
    b1, b2 = x.factors
    return ext_max([b1.eps(rd, k), b2.eps(rd, k) - rd.pairing(k, b1.weight(rd))])


def binary_phi(rd: RootDatum, x: TensorElement, k: int):
    b1, b2 = x.factors
    return ext_max([b2.phi(rd, k), b1.phi(rd, k) + rd.pairing(k, b2.weight(rd))])


def binary_e(rd: RootDatum, x: TensorElement, k: int):
    b1, b2 = x.factors
    if b1.phi(rd, k) >= b2.eps(rd, k):
        moved = b1.e(rd, k)
        return None if moved is None else TensorElement((moved, b2))
    moved = b2.e(rd, k)
    return None if moved is None else TensorElement((b1, moved))


def binary_f(rd: RootDatum, x: TensorElement, k: int):
    b1, b2 = x.factors
    if b1.phi(rd, k) > b2.eps(rd, k):
        moved = b1.f(rd, k)
        return None if moved is None else TensorElement((moved, b2))
    moved = b2.f(rd, k)
    return None if moved is None else TensorElement((b1, moved))
