"""The three building-block crystals: B_k, T_lambda, and the capping S_0.

B_k is the free sl2-string at vertex k: elements b_k(n) for all integers n,
with wt = n*alpha_k, phi_k = n, eps_k = -n, and everything at other
vertices equal to -inf.  It satisfies the crystal axioms but is not normal.

T_lambda is a single frozen element of weight lambda with all statistics
-inf and no operators.  S_0 is also a single element of weight zero, but
with eps = phi = 0; the difference matters: in a tensor product S_0 caps
operator strings while T_lambda is transparent to them.

Each keeps the record of :func:`~kmcrystals.crystal_core.stats_record`,
its sites 0 where an operator acts and None elsewhere.  As for every
element class, asking about a vertex index outside 1..n raises ValueError,
and so does asking B_k anything when k is not a vertex, or T_lambda for
its weight or statistics when lambda is not of the datum's rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crystal_core import NEG_INF, CrystalElement, stats_record
from .root_datum import RootDatum, Weight


@dataclass(frozen=True)
class BkElement(CrystalElement):
    tag = "Bk"
    k: int
    n: int

    def weight(self, rd: RootDatum) -> Weight:
        return stats_record(self, rd, _bk_record)[1]

    def eps(self, rd: RootDatum, l: int):
        return stats_record(self, rd, _bk_record, l)[2][l - 1]

    def phi(self, rd: RootDatum, l: int):
        return stats_record(self, rd, _bk_record, l)[3][l - 1]

    def eps_vector(self, rd: RootDatum) -> tuple:
        return stats_record(self, rd, _bk_record)[2]

    def phi_vector(self, rd: RootDatum) -> tuple:
        return stats_record(self, rd, _bk_record)[3]

    def e(self, rd: RootDatum, l: int):
        site = stats_record(self, rd, _bk_record, l)[4][l - 1]
        return None if site is None else BkElement(self.k, self.n + 1)

    def f(self, rd: RootDatum, l: int):
        site = stats_record(self, rd, _bk_record, l)[5][l - 1]
        return None if site is None else BkElement(self.k, self.n - 1)

    def serialize(self) -> dict:
        return {"Bk": {"k": self.k, "n": self.n}}


def _bk_record(rd: RootDatum, x: BkElement) -> tuple:
    rd._check_vertex(x.k)
    i, n = x.k - 1, rd.n
    root, eps, phi, sites = [0] * n, [NEG_INF] * n, [NEG_INF] * n, [None] * n
    root[i], eps[i], phi[i], sites[i] = -x.n, -x.n, x.n, 0  # wt = n*alpha_k, subtracted roots
    sites = tuple(sites)
    return rd, Weight((0,) * n, tuple(root)), tuple(eps), tuple(phi), sites, sites


@dataclass(frozen=True)
class TElement(CrystalElement):
    tag = "T"
    lam: Weight

    def weight(self, rd: RootDatum) -> Weight:
        return stats_record(self, rd, _t_record)[1]

    def eps(self, rd: RootDatum, k: int):
        return stats_record(self, rd, _t_record, k)[2][k - 1]

    def phi(self, rd: RootDatum, k: int):
        return stats_record(self, rd, _t_record, k)[3][k - 1]

    def eps_vector(self, rd: RootDatum) -> tuple:
        return stats_record(self, rd, _t_record)[2]

    def phi_vector(self, rd: RootDatum) -> tuple:
        return stats_record(self, rd, _t_record)[3]

    def e(self, rd: RootDatum, k: int):
        rd._check_vertex(k)
        return None

    def f(self, rd: RootDatum, k: int):
        rd._check_vertex(k)
        return None

    def serialize(self) -> dict:
        return {"T": self.lam.serialize()}


def _t_record(rd: RootDatum, x: TElement) -> tuple:
    if len(x.lam.lambda_part) != rd.n:
        raise ValueError(f"weight has rank {len(x.lam.lambda_part)}, root datum has rank {rd.n}")
    return rd, x.lam, (NEG_INF,) * rd.n, (NEG_INF,) * rd.n, (None,) * rd.n, (None,) * rd.n


@dataclass(frozen=True)
class S0Element(CrystalElement):
    tag = "S0"

    def weight(self, rd: RootDatum) -> Weight:
        return stats_record(self, rd, _s0_record)[1]

    def eps(self, rd: RootDatum, k: int):
        return stats_record(self, rd, _s0_record, k)[2][k - 1]

    def phi(self, rd: RootDatum, k: int):
        return stats_record(self, rd, _s0_record, k)[3][k - 1]

    def eps_vector(self, rd: RootDatum) -> tuple:
        return stats_record(self, rd, _s0_record)[2]

    def phi_vector(self, rd: RootDatum) -> tuple:
        return stats_record(self, rd, _s0_record)[3]

    def e(self, rd: RootDatum, k: int):
        rd._check_vertex(k)
        return None

    def f(self, rd: RootDatum, k: int):
        rd._check_vertex(k)
        return None

    def serialize(self) -> dict:
        return {"S0": {}}


def _s0_record(rd: RootDatum, x: S0Element) -> tuple:
    return rd, rd.zero_weight(), (0,) * rd.n, (0,) * rd.n, (None,) * rd.n, (None,) * rd.n
