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

are eventually constant on both sides, and eps_bar = phi_bar - <h_k, wt>
since the ranks sum to <h_k, wt>.  The statistics are their maxima, read
from one rank pass per element: phi_k = max phi_bar, eps_k = phi_k -
<h_k, wt>.  e_k removes one unit of v_k at the LARGEST slot attaining the
maximum, f_k adds one unit at the SMALLEST.

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

import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .crystal_core import CrystalElement, stats_record
from .elementary import BkElement, S0Element, TElement
from .root_datum import RootDatum, Weight
from .tensor import TensorElement


@dataclass(frozen=True)
class WProfile:
    """Slot placement of the framing dimensions: p -> nonzero nonnegative
    vector over I, slots listed in increasing order (see :func:`wprofile`)."""

    slots: tuple[tuple[int, tuple[int, ...]], ...]  # strictly increasing slot indices

    def __post_init__(self):
        # one form per profile, the one ``wprofile`` builds: equal profiles
        # are equal tuples and have equal keys
        prev = None
        for p, vec in self.slots:
            if prev is not None and p <= prev:
                raise ValueError(f"duplicate W slot {p}" if p == prev
                                 else f"W slot {p} follows slot {prev}; slots must increase")
            prev = p
            if any(x < 0 for x in vec):
                raise ValueError(f"negative W entry at slot {p}")
            if not any(vec):
                raise ValueError(f"all-zero W vector at slot {p}; leave the slot out")

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(self.slots)
        return h

    def support(self) -> list[int]:
        return [p for p, _ in self.slots]

    def serialize(self) -> dict:
        return {str(p): list(vec) for p, vec in self.slots}

    def _key_prefix(self) -> str:
        """The text every model element's key on this profile starts with,
        up to its first ``v`` entry; written once and kept on the profile."""
        prefix = self.__dict__.get("_prefix")
        if prefix is None:
            w = json.dumps(self.serialize(), separators=(",", ":"))
            prefix = self.__dict__["_prefix"] = '{"Model":{"w":' + w + ',"v":{'
        return prefix


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
    """A dimension profile v against a fixed W-profile; entries always >= 0.

    ``key`` writes the compact JSON of ``serialize()`` as text, from a W
    prefix written once per ``WProfile``: every element of one B(lambda)
    shares it, so a key costs one formatted piece per entry of ``v``.
    """

    tag = "Model"
    wp: WProfile
    v: tuple[tuple[tuple[int, int], int], ...]  # ((k, p), count), k then p ascending

    def __post_init__(self):
        # one form per element, the one ``model_element`` builds: equal
        # elements are equal tuples and have equal keys
        prev = None
        for kp, c in self.v:
            if c <= 0:
                raise ValueError("profile stores only strictly positive entries")
            if prev is not None and kp <= prev:
                raise ValueError(f"profile entry {kp} follows entry {prev}; "
                                 "entries must strictly increase in (k, p)")
            prev = kp

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.wp, self.v))
        return h

    def with_delta(self, k: int, p: int, delta: int) -> "ModelElement":
        v = self.v
        i = bisect_left(v, ((k, p),))  # first entry at or after (k, p)
        old = v[i][1] if i < len(v) and v[i][0] == (k, p) else 0
        new = old + delta
        if new < 0:
            raise RuntimeError(
                f"internal error: profile entry v[{k},{p}] would become negative"
            )
        entry = (((k, p), new),) if new else ()
        tail = v[i + 1 :] if old else v[i:]
        return ModelElement(self.wp, v[:i] + entry + tail)

    def weight(self, rd: RootDatum) -> Weight:
        return stats_record(self, rd, _stats)[1]

    def eps_vector(self, rd: RootDatum) -> tuple:
        return stats_record(self, rd, _stats)[2]

    def phi_vector(self, rd: RootDatum) -> tuple:
        return stats_record(self, rd, _stats)[3]

    def eps(self, rd: RootDatum, k: int) -> int:
        return stats_record(self, rd, _stats, k)[2][k - 1]

    def phi(self, rd: RootDatum, k: int) -> int:
        return stats_record(self, rd, _stats, k)[3][k - 1]

    def e(self, rd: RootDatum, k: int):
        _, _, eps, _, e_slots, _ = stats_record(self, rd, _stats, k)
        return None if eps[k - 1] == 0 else self.with_delta(k, e_slots[k - 1], -1)

    def f(self, rd: RootDatum, k: int):
        _, _, _, phi, _, f_slots = stats_record(self, rd, _stats, k)
        return None if phi[k - 1] == 0 else self.with_delta(k, f_slots[k - 1], +1)

    def serialize(self) -> dict:
        return {
            "Model": {
                "w": self.wp.serialize(),
                "v": {f"{k},{p}": c for (k, p), c in self.v},
            }
        }

    def key(self) -> str:
        """The compact JSON of ``serialize()``, written as text."""
        return (self.wp._key_prefix() + ",".join([f'"{k},{p}":{c}' for (k, p), c in self.v])
                + "}}}")


def model_element(wp: WProfile, v: dict[tuple[int, int], int] | None = None) -> ModelElement:
    table = {(int(k), int(p)): int(c) for (k, p), c in (v or {}).items() if c}
    return ModelElement(wp, tuple(sorted(table.items())))


def model_highest_weight(rd: RootDatum, lam) -> ModelElement:
    """The source element of B(lam): all of the W-profile on slot 0, v empty."""
    lam = tuple(int(x) for x in lam)
    if len(lam) != rd.n:
        raise ValueError(f"weight coordinates must have length {rd.n}")
    if any(x < 0 for x in lam):
        raise ValueError("highest weight must be dominant (nonnegative coordinates)")
    return model_element(wprofile({0: lam}))


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


def _rank_rows(rd: RootDatum, x: ModelElement) -> tuple[int, list[list[int]], Weight]:
    """(lo, rows, wt) with rows[k - 1][p - lo] = rank(k, p) over
    ``window(rd, x)`` and wt the weight of x; the one place the rank formula
    is evaluated, in one pass over the entries of w and v that also sums
    wt.  Every write (slot p or p+1 of a support slot p) lands inside the
    window; a negative index would wrap around silently.  Raises ValueError
    on an entry of v at a vertex outside 1..n."""
    n, split = rd.n, rd.neighbor_split
    lo, hi = window(rd, x)
    rows = [[0] * (hi - lo + 1) for _ in range(n)]
    lam, root = (0,) * n, [0] * n
    for p, vec in x.wp.slots:
        if len(vec) != n:
            raise ValueError("W-profile vector length does not match root datum rank")
        # with one W slot its vector is the lambda part: share it, don't copy it
        lam = tuple(a + c for a, c in zip(lam, vec)) if any(lam) else vec
        for row, c in zip(rows, vec):
            row[p + 1 - lo] += c
    for (l, p), c in x.v:
        if not 0 < l <= n:
            raise ValueError(f"vertex index {l} out of range 1..{n}")
        root[l - 1] += c
        i = p - lo
        rows[l - 1][i] -= c
        rows[l - 1][i + 1] -= c
        below, above = split[l - 1]
        for k, m in below:
            rows[k - 1][i] += m * c
        for k, m in above:
            rows[k - 1][i + 1] += m * c
    return lo, rows, Weight(lam, tuple(root))


def rank_complex(rd: RootDatum, x: ModelElement, k: int, p: int) -> int:
    """Euler rank (middle minus ends) of the three-term complex at (k, p):
    an accessor of the rows of :func:`_rank_rows`, 0 outside the window."""
    rd._check_vertex(k)
    lo, rows, _ = _rank_rows(rd, x)
    row = rows[k - 1]
    return row[p - lo] if 0 <= p - lo < len(row) else 0


def _stats(rd: RootDatum, x: ModelElement):
    """The record of :func:`~kmcrystals.crystal_core.stats_record` for a
    model element, ``(rd, wt, eps, phi, e_slots, f_slots)``, from one rank
    pass.  phi_bar is the prefix sum of a rank row, and
    eps_bar = phi_bar - <h_k, wt>.  Also asserts the telescoping identity
    sum_p rank(k, p) = <h_k, wt> on every element whose statistics are ever
    computed."""
    lo, rows, wt = _rank_rows(rd, x)
    pairings = rd.pairing_vector(wt)
    out = []
    for k, row, total in zip(rd.vertices(), rows, pairings):
        pbar = list(accumulate(row))
        if pbar[-1] != total:
            raise AssertionError(f"telescoping identity failed at vertex {k} on {x.key()}")
        phi = max(pbar)
        eps = phi - total
        if eps < 0 or phi < 0:
            raise AssertionError(f"negative statistic at vertex {k} on {x.key()}")
        e_slot = lo + len(pbar) - 1 - pbar[::-1].index(phi)  # largest attaining slot
        f_slot = lo + pbar.index(phi)  # smallest attaining slot
        out.append((eps, phi, e_slot, f_slot))
    # the four columns; empty ones on a datum of rank 0
    return (rd, wt, *(tuple(zip(*out)) or ((),) * 4))


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
    v, w = dict(x.v), dict(x.wp.slots)
    factors: list[CrystalElement] = [S0Element()]
    for p in range(hi, lo - 1, -1):
        factors.append(TElement(Weight(w.get(p, (0,) * rd.n), (0,) * rd.n)))
        for k in rd.vertices():
            factors.append(BkElement(k, -v.get((k, p), 0)))
    factors.append(S0Element())
    return TensorElement(tuple(factors))


def embedding_mismatches(rd: RootDatum, x: ModelElement) -> list[str]:
    """Compare every model statistic and operator on x against the capped
    tensor computation through embed_psi; [] means they agree.

    The operator comparison re-embeds the model image over the same window,
    so None must correspond to None and elements must match factor by
    factor.
    """
    win = window(rd, x, margin=2)  # room for x and any single operator image
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
