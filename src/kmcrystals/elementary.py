"""The three building-block crystals: B_k, T_lambda, and the capping S_0.

B_k is the free sl2-string at vertex k: elements b_k(n) for all integers n,
with wt = n*alpha_k, phi_k = n, eps_k = -n, and everything at other
vertices equal to -inf.  It satisfies the crystal axioms but is not normal.

T_lambda is a single frozen element of weight lambda with all statistics
-inf and no operators.  S_0 is also a single element of weight zero, but
with eps = phi = 0; the difference matters: in a tensor product S_0 caps
operator strings while T_lambda is transparent to them.

Each supplies the ``_build`` of :class:`~kmcrystals.crystal_core.CrystalElement`,
whose readers and operators do the rest.  The record's sites are 0 where
an operator acts and None elsewhere, so a site is None exactly where the
operator returns None; only B_k has an operator that acts, hence the only
``_move`` here.  As for every element class, asking about a vertex index
outside 1..n raises ValueError, and so does asking B_k anything when k is
not a vertex, or T_lambda anything at all when lambda is not of the
datum's rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crystal_core import NEG_INF, CrystalElement
from .root_datum import RootDatum, Weight


@dataclass(frozen=True)
class BkElement(CrystalElement):
    tag = "Bk"
    k: int
    n: int

    def _build(self, rd: RootDatum) -> tuple:
        rd._check_vertex(self.k)
        i, n = self.k - 1, rd.n
        root, eps, phi, sites = [0] * n, [NEG_INF] * n, [NEG_INF] * n, [None] * n
        # wt = n*alpha_k, as subtracted roots
        root[i], eps[i], phi[i], sites[i] = -self.n, -self.n, self.n, 0
        sites = tuple(sites)
        return rd, Weight((0,) * n, tuple(root)), tuple(eps), tuple(phi), sites, sites

    def _move(self, rd: RootDatum, l: int, site: int, delta: int) -> "BkElement":
        return BkElement(self.k, self.n - delta)  # e_k raises n, f_k lowers it

    def key(self) -> str:
        return '{"Bk":{"k":%d,"n":%d}}' % (self.k, self.n)


@dataclass(frozen=True)
class TElement(CrystalElement):
    tag = "T"
    lam: Weight

    def _build(self, rd: RootDatum) -> tuple:
        if len(self.lam.lambda_part) != rd.n:
            raise ValueError(
                f"weight has rank {len(self.lam.lambda_part)}, root datum has rank {rd.n}")
        return rd, self.lam, (NEG_INF,) * rd.n, (NEG_INF,) * rd.n, (None,) * rd.n, (None,) * rd.n

    def key(self) -> str:
        return '{"T":{"lambda":[%s],"root":[%s]}}' % (
            ",".join(map(str, self.lam.lambda_part)), ",".join(map(str, self.lam.root_part)))


@dataclass(frozen=True)
class S0Element(CrystalElement):
    tag = "S0"

    def _build(self, rd: RootDatum) -> tuple:
        return rd, rd.zero_weight(), (0,) * rd.n, (0,) * rd.n, (None,) * rd.n, (None,) * rd.n

    def key(self) -> str:
        return '{"S0":{}}'
