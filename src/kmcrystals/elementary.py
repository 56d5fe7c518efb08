"""The three building-block crystals: B_k, T_lambda, and the capping S_0.

B_k is the free sl2-string at vertex k: elements b_k(n) for all integers n,
with wt = n*alpha_k, phi_k = n, eps_k = -n, and everything at other
vertices equal to -inf.  It satisfies the crystal axioms but is not normal.

T_lambda is a single frozen element of weight lambda with all statistics
-inf and no operators.  S_0 is also a single element of weight zero, but
with eps = phi = 0; the difference matters: in a tensor product S_0 caps
operator strings while T_lambda is transparent to them.

As for every element class, asking any of them about a vertex index outside
1..n (or B_k's weight when k is not a vertex) raises ValueError.
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

    def weight(self, rd: RootDatum) -> Weight:
        rd._check_vertex(self.k)
        root = [0] * rd.n
        root[self.k - 1] = -self.n  # wt = n*alpha_k, stored as subtracted roots
        return Weight((0,) * rd.n, tuple(root))

    def eps(self, rd: RootDatum, l: int):
        rd._check_vertex(l)
        return -self.n if l == self.k else NEG_INF

    def phi(self, rd: RootDatum, l: int):
        rd._check_vertex(l)
        return self.n if l == self.k else NEG_INF

    def e(self, rd: RootDatum, l: int):
        rd._check_vertex(l)
        return BkElement(self.k, self.n + 1) if l == self.k else None

    def f(self, rd: RootDatum, l: int):
        rd._check_vertex(l)
        return BkElement(self.k, self.n - 1) if l == self.k else None

    def serialize(self) -> dict:
        return {"Bk": {"k": self.k, "n": self.n}}


@dataclass(frozen=True)
class TElement(CrystalElement):
    tag = "T"
    lam: Weight

    def weight(self, rd: RootDatum) -> Weight:
        return self.lam

    def eps(self, rd: RootDatum, k: int):
        rd._check_vertex(k)
        return NEG_INF

    def phi(self, rd: RootDatum, k: int):
        rd._check_vertex(k)
        return NEG_INF

    def e(self, rd: RootDatum, k: int):
        rd._check_vertex(k)
        return None

    def f(self, rd: RootDatum, k: int):
        rd._check_vertex(k)
        return None

    def serialize(self) -> dict:
        return {"T": self.lam.serialize()}


@dataclass(frozen=True)
class S0Element(CrystalElement):
    tag = "S0"

    def weight(self, rd: RootDatum) -> Weight:
        return rd.zero_weight()

    def eps(self, rd: RootDatum, k: int):
        rd._check_vertex(k)
        return 0

    def phi(self, rd: RootDatum, k: int):
        rd._check_vertex(k)
        return 0

    def e(self, rd: RootDatum, k: int):
        rd._check_vertex(k)
        return None

    def f(self, rd: RootDatum, k: int):
        rd._check_vertex(k)
        return None

    def serialize(self) -> dict:
        return {"S0": {}}
