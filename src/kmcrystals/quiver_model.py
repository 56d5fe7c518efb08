"""The profile model of highest-weight crystals.

An element is a finitely supported table v_k^p of nonnegative integers (k a
vertex, p an integer slot), together with a fixed W-profile w_k^p placing
the framing data on slots.  All crystal data comes from the Euler ranks of
three-term complexes: with m_kl the edge multiplicities,

    rank(k, p) = w_k^{p-1} - v_k^p - v_k^{p-1}
                 + sum_{l<k} m_kl v_l^{p-1} + sum_{l>k} m_kl v_l^p,

where the split between p-1 and p for the neighbour terms is forced by the
canonical orientation (arrows from smaller to larger vertex).  Partial sums

    eps_bar(k, p) = -sum_{q>p} rank(k, q),
    phi_bar(k, p) =  sum_{q<=p} rank(k, q)

are eventually constant on both sides; the statistics are their maxima over
all slots, which are automatically nonnegative.  e_k removes one unit of
v_k at the LARGEST slot attaining the eps_bar maximum, f_k adds one unit at
the SMALLEST slot attaining the phi_bar maximum.

The slot choice deserves a comment, because a plausible alternative (min
for e, max for f) is wrong: on a one-vertex datum with w^0 = 1 the maximum
of phi_bar from the empty profile is attained at every slot p >= 1, so
"max" does not even exist there, while the smallest attaining slot gives
the correct two-element string.  The tie-break is pinned permanently by
:func:`embed_psi`: sending a profile to

    s_0 (x) [ ... t_{w^p} (x) b_1(-v_1^p) (x) ... (x) b_n(-v_n^p) ... ] (x) s_0

with slots in DECREASING order left to right is a strict embedding of
crystals, so every model operation must agree with the capped tensor
computation.  That agreement is enforced as a test invariant, and it is
exactly how the model is verified end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .crystal_core import CrystalElement
from .elementary import BkElement, S0Element, TElement
from .root_datum import RootDatum, Weight
from .tensor import TensorElement


@dataclass(frozen=True)
class WProfile:
    """Slot placement of the framing dimensions: p -> nonnegative vector over I."""

    slots: tuple[tuple[int, tuple[int, ...]], ...]  # sorted by slot index

    def __post_init__(self):
        seen = set()
        for p, vec in self.slots:
            if p in seen:
                raise ValueError(f"duplicate W slot {p}")
            seen.add(p)
            if any(x < 0 for x in vec):
                raise ValueError(f"negative W entry at slot {p}")

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(self.slots)
        return h

    @cached_property
    def wmap(self) -> dict[int, tuple[int, ...]]:
        return dict(self.slots)

    def w(self, k: int, p: int) -> int:
        vec = self.wmap.get(p)
        return vec[k - 1] if vec else 0

    def support(self) -> list[int]:
        return [p for p, _ in self.slots]

    def total_weight(self, rd: RootDatum) -> Weight:
        lam = [0] * rd.n
        for _, vec in self.slots:
            if len(vec) != rd.n:
                raise ValueError("W-profile vector length does not match root datum rank")
            for i, x in enumerate(vec):
                lam[i] += x
        return Weight(tuple(lam), (0,) * rd.n)

    def serialize(self) -> dict:
        return {str(p): list(vec) for p, vec in self.slots}


def wprofile(slots: dict[int, object]) -> WProfile:
    """Normalize {slot: vector} into a WProfile, dropping all-zero slots."""
    cleaned = []
    for p in sorted(slots):
        vec = tuple(int(x) for x in slots[p])
        if any(vec):
            cleaned.append((int(p), vec))
    return WProfile(tuple(cleaned))


@dataclass(frozen=True)
class ModelElement(CrystalElement):
    """A dimension profile v against a fixed W-profile; entries always >= 0."""

    wp: WProfile
    v: tuple[tuple[tuple[int, int], int], ...]  # ((k, p), count), k then p ascending

    def __post_init__(self):
        for (_, _), c in self.v:
            if c <= 0:
                raise ValueError("profile stores only strictly positive entries")

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.wp, self.v))
        return h

    @cached_property
    def vmap(self) -> dict[tuple[int, int], int]:
        return dict(self.v)

    def v_get(self, k: int, p: int) -> int:
        return self.vmap.get((k, p), 0)

    def with_delta(self, k: int, p: int, delta: int) -> "ModelElement":
        table = dict(self.vmap)
        new = table.get((k, p), 0) + delta
        if new < 0:
            raise RuntimeError(
                f"internal error: profile entry v[{k},{p}] would become negative"
            )
        if new == 0:
            table.pop((k, p), None)
        else:
            table[(k, p)] = new
        return ModelElement(self.wp, tuple(sorted(table.items())))

    def weight(self, rd: RootDatum) -> Weight:
        root = [0] * rd.n
        for (k, _), c in self.v:
            root[k - 1] += c
        return Weight(self.wp.total_weight(rd).lambda_part, tuple(root))

    def eps(self, rd: RootDatum, k: int) -> int:
        return rd.memo_row(self, k, _stats)[0]

    def phi(self, rd: RootDatum, k: int) -> int:
        return rd.memo_row(self, k, _stats)[1]

    def e(self, rd: RootDatum, k: int):
        eps, _, e_slot, _ = rd.memo_row(self, k, _stats)
        return None if eps == 0 else self.with_delta(k, e_slot, -1)

    def f(self, rd: RootDatum, k: int):
        _, phi, _, f_slot = rd.memo_row(self, k, _stats)
        return None if phi == 0 else self.with_delta(k, f_slot, +1)

    def serialize(self) -> dict:
        return {
            "Model": {
                "w": self.wp.serialize(),
                "v": {f"{k},{p}": c for (k, p), c in self.v},
            }
        }


def model_element(wp: WProfile, v: dict[tuple[int, int], int] | None = None) -> ModelElement:
    table = {(int(k), int(p)): int(c) for (k, p), c in (v or {}).items() if c}
    return ModelElement(wp, tuple(sorted(table.items())))


def model_highest_weight(rd: RootDatum, lam, slot: int = 0) -> ModelElement:
    """The source element of B(lam): all of the W-profile on one slot, v empty."""
    lam = tuple(int(x) for x in lam)
    if len(lam) != rd.n:
        raise ValueError(f"weight coordinates must have length {rd.n}")
    if any(x < 0 for x in lam):
        raise ValueError("highest weight must be dominant (nonnegative coordinates)")
    return model_element(wprofile({slot: lam}))


def rank_complex(rd: RootDatum, x: ModelElement, k: int, p: int) -> int:
    """Euler rank (middle minus ends) of the three-term complex at (k, p)."""
    rd._check_vertex(k)
    vmap = x.vmap
    wrow = x.wp.wmap.get(p - 1)
    below, above = rd.neighbor_split[k - 1]
    total = (wrow[k - 1] if wrow else 0) - vmap.get((k, p), 0) - vmap.get((k, p - 1), 0)
    for l, m in below:
        total += m * vmap.get((l, p - 1), 0)
    for l, m in above:
        total += m * vmap.get((l, p), 0)
    return total


def window(rd: RootDatum, x: ModelElement, margin: int = 1) -> tuple[int, int]:
    """Slot range outside which all ranks vanish and partial sums are constant.

    Covers the supports of v and of the W-profile, the slots one above each
    W slot (w^p feeds the complex at slot p+1), and ``margin`` extra slots
    on each side.
    """
    support = [p for (_, p), _ in x.v]
    for p in x.wp.support():
        support += [p, p + 1]
    if not support:
        return (0, 0)
    return (min(support) - margin, max(support) + margin)


def eps_bar(rd: RootDatum, x: ModelElement, k: int, p: int) -> int:
    """-sum of ranks over slots strictly above p (a finite sum)."""
    lo, hi = window(rd, x)
    return -sum(rank_complex(rd, x, k, q) for q in range(max(p + 1, lo), hi + 1))


def phi_bar(rd: RootDatum, x: ModelElement, k: int, p: int) -> int:
    """Sum of ranks over slots at most p (a finite sum)."""
    lo, hi = window(rd, x)
    return sum(rank_complex(rd, x, k, q) for q in range(lo, min(p, hi) + 1))


def _stats(rd: RootDatum, x: ModelElement):
    """Per-vertex (eps, phi, e_slot, f_slot), one window pass for all vertices.

    The builder behind ``rd.memo_row`` for model elements, which runs it
    once per element.  Also asserts the telescoping identity
    sum_p rank(k, p) = <h_k, wt> on every element whose statistics are
    ever computed.
    """
    lo, hi = window(rd, x)
    slots = range(lo, hi + 1)
    wt = x.weight(rd)
    out = []
    for k in rd.vertices():
        ranks = [rank_complex(rd, x, k, p) for p in slots]
        if sum(ranks) != rd.pairing(k, wt):
            raise AssertionError(f"telescoping identity failed at vertex {k} on {x.key()}")
        ebar = [0] * len(ranks)
        for i in range(len(ranks) - 2, -1, -1):
            ebar[i] = ebar[i + 1] - ranks[i + 1]
        pbar = [0] * len(ranks)
        acc = 0
        for i, r in enumerate(ranks):
            acc += r
            pbar[i] = acc
        eps = max(ebar)
        phi = max(pbar)
        if eps < 0 or phi < 0:
            raise AssertionError(f"negative statistic at vertex {k} on {x.key()}")
        e_slot = lo + len(ebar) - 1 - ebar[::-1].index(eps)  # largest attaining slot
        f_slot = lo + pbar.index(phi)  # smallest attaining slot
        out.append((eps, phi, e_slot, f_slot))
    return tuple(out)


def embed_psi(rd: RootDatum, x: ModelElement, win: tuple[int, int]) -> TensorElement:
    """The capped tensor realization of a profile over an explicit slot window.

    Factors, left to right: s_0, then for each slot p from win[1] down to
    win[0] the block t_{w^p} (x) b_1(-v_1^p) (x) ... (x) b_n(-v_n^p), then
    s_0.  The window must cover the supports of v and of the W-profile
    with at least one empty slot on each side.
    """
    lo, hi = win
    support = sorted({p for (_, p), _ in x.v} | set(x.wp.support()))
    for p in support:
        if not lo < p < hi:
            raise ValueError(f"window [{lo},{hi}] does not cover slot {p} with margin 1")
    factors: list[CrystalElement] = [S0Element()]
    for p in range(hi, lo - 1, -1):
        wvec = tuple(x.wp.w(k, p) for k in rd.vertices())
        factors.append(TElement(Weight(wvec, (0,) * rd.n)))
        for k in rd.vertices():
            factors.append(BkElement(k, -x.v_get(k, p)))
    factors.append(S0Element())
    return TensorElement(tuple(factors))


def auto_window(rd: RootDatum, x: ModelElement, margin: int = 1) -> tuple[int, int]:
    """A window wide enough for embed_psi on x and on any single operator image."""
    lo, hi = window(rd, x, margin=1)
    return (lo - margin, hi + margin)


def embedding_mismatches(rd: RootDatum, x: ModelElement) -> list[str]:
    """Compare every model statistic and operator on x against the capped
    tensor computation through embed_psi; [] means they agree.

    The operator comparison re-embeds the model image over the same window,
    so None must correspond to None and elements must match factor by
    factor.
    """
    win = auto_window(rd, x)
    emb = embed_psi(rd, x, win)
    out = []
    for k in rd.vertices():
        if x.eps(rd, k) != emb.eps(rd, k):
            out.append(f"eps_{k} differs at {x.key()}")
        if x.phi(rd, k) != emb.phi(rd, k):
            out.append(f"phi_{k} differs at {x.key()}")
        for op in ("e", "f"):
            model_image = getattr(x, op)(rd, k)
            tensor_image = getattr(emb, op)(rd, k)
            if model_image is None:
                if tensor_image is not None:
                    out.append(f"{op}_{k} None/non-None mismatch at {x.key()}")
                continue
            if tensor_image is None:
                out.append(f"{op}_{k} non-None/None mismatch at {x.key()}")
                continue
            if embed_psi(rd, model_image, win) != tensor_image:
                out.append(f"{op}_{k} image differs at {x.key()}")
    return out
