"""The signed-max tensor product rule for crystals, in two- and n-factor form.

For b_1 (x) ... (x) b_n the position profiles are

    eps_k^p = eps_k(b_p) - sum_{q<p} wt_k(b_q),
    phi_k^p = phi_k(b_p) + sum_{q>p} wt_k(b_q),

where wt_k is the coroot pairing of a factor's weight.  The tensor
statistics are the maxima of the profiles; e_k acts on the factor at the
smallest position attaining the eps-maximum, f_k at the largest position
attaining the phi-maximum.  Any factor-level operator returning None
collapses the whole result to None.

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
from functools import reduce

from .crystal_core import CrystalElement, ext_max, is_neg_inf
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

    def weight(self, rd: RootDatum) -> Weight:
        return rd.memo_entry(self, _profiles)[0]

    def eps_profile(self, rd: RootDatum, k: int) -> list:
        return list(rd.memo_row(self, k, _profiles)[0])

    def phi_profile(self, rd: RootDatum, k: int) -> list:
        return list(rd.memo_row(self, k, _profiles)[1])

    def eps(self, rd: RootDatum, k: int):
        return ext_max(rd.memo_row(self, k, _profiles)[0])

    def phi(self, rd: RootDatum, k: int):
        return ext_max(rd.memo_row(self, k, _profiles)[1])

    def eps_vector(self, rd: RootDatum) -> tuple:
        return tuple(ext_max(eps) for eps, _ in rd.memo_entry(self, _profiles)[1:])

    def phi_vector(self, rd: RootDatum) -> tuple:
        return tuple(ext_max(phi) for _, phi in rd.memo_entry(self, _profiles)[1:])

    def e(self, rd: RootDatum, k: int):
        profile = rd.memo_row(self, k, _profiles)[0]
        top = ext_max(profile)
        if is_neg_inf(top):
            return None
        p = profile.index(top)  # smallest position attaining the max
        return self._apply_at(rd, k, p, "e")

    def f(self, rd: RootDatum, k: int):
        profile = rd.memo_row(self, k, _profiles)[1]
        top = ext_max(profile)
        if is_neg_inf(top):
            return None
        p = len(profile) - 1 - profile[::-1].index(top)  # largest position
        return self._apply_at(rd, k, p, "f")

    def _apply_at(self, rd, k, p, op):
        moved = getattr(self.factors[p], op)(rd, k)
        if moved is None:
            return None
        factors = self.factors[:p] + (moved,) + self.factors[p + 1 :]
        return TensorElement(factors)

    def serialize(self) -> dict:
        return {"Tensor": [x.serialize() for x in self.factors]}


def _profiles(rd: RootDatum, x: TensorElement):
    """(wt, then (eps profile, phi profile) per vertex) of a tensor element,
    one pass each.  The builder behind ``rd.memo_entry`` for tensor elements,
    which runs it once per element."""
    weights = [factor.weight(rd) for factor in x.factors]
    pairings = [rd.pairing_vector(wt) for wt in weights]
    rows = [reduce(lambda a, b: a + b, weights)]
    for j in rd.vertices():
        eps_out = []
        shift = 0  # running sum of wt_j over factors to the left
        for factor, wt in zip(x.factors, pairings):
            eps_out.append(factor.eps(rd, j) - shift)
            shift += wt[j - 1]
        phi_out = []
        shift = 0  # running sum of wt_j over factors to the right
        for factor, wt in zip(reversed(x.factors), reversed(pairings)):
            phi_out.append(factor.phi(rd, j) + shift)
            shift += wt[j - 1]
        phi_out.reverse()
        rows.append((tuple(eps_out), tuple(phi_out)))
    return tuple(rows)


def flatten(x: CrystalElement) -> tuple[CrystalElement, ...]:
    """The canonical re-bracketing bijection: nested tensors to a flat factor list."""
    if isinstance(x, TensorElement):
        out: tuple[CrystalElement, ...] = ()
        for factor in x.factors:
            out += flatten(factor)
        return out
    return (x,)


# Literal two-factor rule, kept as an independent oracle for the n-fold form.

def binary_eps(rd: RootDatum, x: TensorElement, k: int):
    b1, b2 = x.factors
    w1 = rd.pairing(k, b1.weight(rd))
    return ext_max([b1.eps(rd, k), b2.eps(rd, k) - w1])


def binary_phi(rd: RootDatum, x: TensorElement, k: int):
    b1, b2 = x.factors
    w2 = rd.pairing(k, b2.weight(rd))
    return ext_max([b2.phi(rd, k), b1.phi(rd, k) + w2])


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
