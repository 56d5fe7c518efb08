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
-inf; profiles are only recomputed on demand.  :class:`TensorElement`
supplies the ``_build`` and ``_move`` of
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
from itertools import accumulate
from operator import getitem, sub

from .crystal_core import CrystalElement, ext_max, is_neg_inf, stats_record
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
        rd._check_vertex(k)
        return list(_profiles(rd, self)[1][k - 1])

    def phi_profile(self, rd: RootDatum, k: int) -> list:
        rd._check_vertex(k)
        return list(_profiles(rd, self)[2][k - 1])

    def _build(self, rd: RootDatum) -> tuple:
        """The record of the module docstring.  ``max`` keeps the first
        maximum it meets: scanning forward gives the smallest site, backward
        the largest."""
        wt, eps_rows, phi_rows = _profiles(rd, self)
        e_sites = [max(range(len(eps)), key=eps.__getitem__) for eps in eps_rows]
        f_sites = [max(reversed(range(len(phi))), key=phi.__getitem__) for phi in phi_rows]
        eps, phi = tuple(map(getitem, eps_rows, e_sites)), tuple(map(getitem, phi_rows, f_sites))
        return (rd, wt, eps, phi, _defined(e_sites, eps), _defined(f_sites, phi))

    def _move(self, rd: RootDatum, k: int, p: int, delta: int):
        moved = self.factors[p].e(rd, k) if delta < 0 else self.factors[p].f(rd, k)
        if moved is None:
            return None
        return TensorElement(self.factors[:p] + (moved,) + self.factors[p + 1 :])

    def key(self) -> str:
        """The list of the factors' keys, in order, under ``"Tensor"``:
        compact JSON of a list is its items' texts joined by commas."""
        return '{"Tensor":[' + ",".join([x.key() for x in self.factors]) + "]}"


def _profiles(rd: RootDatum, x: TensorElement):
    """(wt, eps profiles, phi profiles) of x, profile k - 1 for vertex k, from
    one read of each distinct factor instance (its record's weight, eps and
    phi, and the weight's pairing vector), by identity, since hashing a
    factor costs more: :func:`~kmcrystals.quiver_model.embed_psi` places a
    few factor instances at most positions."""
    reads = {}
    for b in x.factors:
        if id(b) not in reads:
            w, eps, phi = stats_record(b, rd)[1:4]
            reads[id(b)] = w, rd.pairing_vector(w), eps, phi
    weights, pairings, eps_cols, phi_cols = zip(*[reads[id(b)] for b in x.factors])
    wt = Weight(tuple(map(sum, zip(*(w.lambda_part for w in weights)))),
                tuple(map(sum, zip(*(w.root_part for w in weights)))))
    eps_rows, phi_rows = [], []
    for pairs, eps, phi in zip(zip(*pairings), zip(*eps_cols), zip(*phi_cols)):
        left = list(accumulate(pairs, initial=0))  # left[p] = sum_{q<p} wt_k(b_q)
        eps_rows.append(tuple(map(sub, eps, left)))
        phi_rows.append(tuple(c + left[-1] - s for c, s in zip(phi, left[1:])))  # + sum_{q>p}
    return wt, eps_rows, phi_rows


def _defined(sites: list, stats: tuple) -> tuple:
    """The sites, each None where its statistic is -inf."""
    return tuple(None if is_neg_inf(c) else p for p, c in zip(sites, stats))


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
