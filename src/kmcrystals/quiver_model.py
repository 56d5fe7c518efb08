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
since the ranks sum to <h_k, wt>.  The statistics are their maxima:
phi_k = max phi_bar, eps_k = phi_k - <h_k, wt>.  e_k removes one unit of
v_k at the LARGEST slot attaining the maximum, f_k adds one unit at the
SMALLEST.  Where an operator is undefined (eps_k = 0 for e_k, phi_k = 0
for f_k) its site is None: every slot beyond the support on one side
attains the maximum there, so a slot number would depend on the window.

The formula has one implementation, the per-entry update of
:func:`_add_entry`, and two entry points.  The full pass
(:func:`_rank_rows`) builds every rank row from w and every entry of v; it
runs for seeds and for elements built directly.  An image of e_k or f_k
differs from its source in one entry of v, at (k, p), which moves only the
rows of k and of its neighbours, each by two terms at adjacent slots, so
its record is derived from the source's rows (:func:`_derive`) and every
other vertex shares its row and statistics with the source.  The rows of
one B(lambda) are few: every element shares one W-profile, and a row is
fixed by the entries of v it sees, so a full D4 (1,1,1,1) generation meets
a few hundred distinct rows over ten thousand row moves.  So each moved
row is looked up in a row table, which maps a row and the two terms to
the row they give, with its sum and statistics; only a row met for the
first time is built and scanned.  Both routes assert the telescoping
identity on every row they give a record: the full pass while it scans, a
derivation by comparing the looked-up row's sum with the <h_k, wt> the
weight gives.  The seventh field ``(lo, rows, table)`` of a record is all
the derivation state, and :func:`~kmcrystals.crystal_core.trim_record`
releases it: the full pass starts a fresh table, a derivation hands its
source's table to the image's record, and a table dies with the last
record that still holds it.  The rows each entry of v moves are the
datum's, found once per datum (:func:`_row_moves`).

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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .crystal_core import CrystalElement, strict_mismatches
from .elementary import BkElement, S0Element, TElement
from .root_datum import RootDatum, Weight
from .tensor import TensorElement


@dataclass(frozen=True)
class WProfile:
    """Slot placement of the framing dimensions: p -> nonzero nonnegative
    vector over I, slots listed in increasing order (see :func:`wprofile`).

    A profile also keeps, in its ``__dict__``, what the elements on it
    share for as long as it lives: the key prefix and the table of entry
    texts (:meth:`_key_texts`), and the parts of :func:`embed_psi`.
    Equality and hashing read ``slots`` only."""

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

    def _key_texts(self) -> tuple[str, "_EntryTexts"]:
        """The pieces every model element's key on this profile is joined
        from: the text up to its first ``v`` entry, and the table of entry
        texts ``((k, p), c) -> '"k,p":c'``, each written on first use.  Both
        are kept on the profile, so they live as long as its elements."""
        texts = self.__dict__.get("_texts")
        if texts is None:
            w = ",".join(['"%d":[%s]' % (p, ",".join(map(str, vec))) for p, vec in self.slots])
            texts = self.__dict__["_texts"] = ('{"Model":{"w":{' + w + '},"v":{', _EntryTexts())
        return texts


class _EntryTexts(dict):
    """``((k, p), c) -> '"k,p":c'``, the key text of one entry of ``v``,
    written the first time it is looked up."""

    __slots__ = ()

    def __missing__(self, entry):
        (k, p), c = entry
        text = self[entry] = f'"{k},{p}":{c}'
        return text


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

    ``key`` is ``{"Model":{"w":{"p":vector,...},"v":{"k,p":count,...}}}``,
    joined from texts kept on the ``WProfile`` and shared by every element
    of one B(lambda): the text up to ``v``, and the text of each distinct
    entry of ``v``, written the first time an element on the profile
    holds it.  So a key costs one lookup per entry and one join.
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

    def _build(self, rd: RootDatum) -> tuple:
        """The record of :func:`~kmcrystals.crystal_core.stats_record`,
        ``(rd, wt, eps, phi, e_slots, f_slots, (lo, rows, table))``, the
        last field all the derivation state: the rank rows as tuples and the
        row table of :func:`_derive`, kept until
        :func:`~kmcrystals.crystal_core.trim_record` releases them.

        An image of ``e``/``f`` carries a link to its source; it is popped
        here, and while the source's record is for rd and still holds its
        rows the record is derived from them (:func:`_derive`).  Any other
        element (a seed, an element built directly, a source recorded
        against another datum or with its rows dropped) takes the full pass
        of :func:`_rank_rows` and starts a fresh row table.  Either way
        every row's statistics come from :func:`_row_stats`: the full pass
        scans each row, a derivation only the rows its table has not met."""
        link = self.__dict__.pop("_link", None)
        if link is not None:
            rec = link[0].__dict__.get("_record")
            if rec is not None and rec[0] is rd and len(rec) > 6:
                return _derive(rd, self, rec, *link[1:])
        lo, rows, wt = _rank_rows(rd, self)
        rows = tuple(map(tuple, rows))
        out = [_row_stats(self, k, lo, row, total)
               for k, row, total in zip(rd.vertices(), rows, rd.pairing_vector(wt))]
        # the four columns; empty ones on a datum of rank 0
        return (rd, wt, *(tuple(zip(*out)) or ((),) * 4), (lo, rows, ({}, {})))

    def _move(self, rd: RootDatum, k: int, p: int, delta: int) -> "ModelElement":
        """self with ``delta`` added to v at (k, p), spliced into self's
        valid ``v`` (a count reaching 0 is dropped), so it keeps the form by
        construction and is not re-validated.  RuntimeError below 0.  The
        image holds a link back to self in its ``__dict__``: ``_build`` pops
        it and derives the image's record from self's rank rows while
        self's record still holds them."""
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
        y = object.__new__(ModelElement)  # skips __init__ and __post_init__
        fields = y.__dict__
        fields["wp"], fields["v"] = self.wp, v[:i] + entry + tail
        fields["_link"] = (self, k, p, delta)
        return y

    def key(self) -> str:
        """The compact-JSON text of the class docstring."""
        prefix, entries = self.wp._key_texts()
        return prefix + ",".join(map(entries.__getitem__, self.v)) + "}}}"


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


def window(x: ModelElement, margin: int = 1) -> tuple[int, int]:
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
    ``window(x)`` and wt the weight of x: the full rank pass, one pass
    over the entries of w and v that also sums wt.  Each entry of v goes
    through :func:`_add_entry`, which :func:`_derive` shares, so the rank
    formula is written once.  Every write (slot p or p+1 of a support slot
    p) lands inside the window; a negative index would wrap around
    silently.  Raises ValueError on an entry of v at a vertex outside
    1..n."""
    n, split = rd.n, rd.neighbor_split
    lo, hi = window(x)
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
        _add_entry(rows, split, l, p - lo, c)
    return lo, rows, Weight(lam, tuple(root))


def _add_entry(rows: list, split: tuple, l: int, i: int, c: int) -> None:
    """Add the terms of c units of v at vertex l and slot p to the rank
    rows, i = p - lo: -c at (l, p) and (l, p+1), and m_kl * c at (k, p)
    for each neighbour k < l, at (k, p+1) for each neighbour k > l."""
    row = rows[l - 1]
    row[i] -= c
    row[i + 1] -= c
    below, above = split[l - 1]
    for k, m in below:
        rows[k - 1][i] += m * c
    for k, m in above:
        rows[k - 1][i + 1] += m * c


def rank_complex(rd: RootDatum, x: ModelElement, k: int, p: int) -> int:
    """Euler rank (middle minus ends) of the three-term complex at (k, p):
    an accessor of the rows of :func:`_rank_rows`, 0 outside the window."""
    rd._check_vertex(k)
    lo, rows, _ = _rank_rows(rd, x)
    row = rows[k - 1]
    return row[p - lo] if 0 <= p - lo < len(row) else 0


def _row_stats(x: ModelElement, k: int, lo: int, row: tuple, total: int) -> tuple:
    """(eps, phi, e_site, f_site) of vertex k from its rank row (index 0 is
    slot lo) and <h_k, wt>.  phi_bar is the prefix sum of the row and
    eps_bar = phi_bar - <h_k, wt>.  The site of an undefined operator is
    None (see the module docstring).  Asserts the telescoping identity
    sum_p rank(k, p) = <h_k, wt> and that neither statistic is
    negative."""
    pbar = list(accumulate(row))
    if pbar[-1] != total:
        raise AssertionError(f"telescoping identity failed at vertex {k} on {x.key()}")
    phi = max(pbar)
    eps = phi - total
    if eps < 0 or phi < 0:
        raise AssertionError(f"negative statistic at vertex {k} on {x.key()}")
    e_site = lo + len(pbar) - 1 - pbar[::-1].index(phi) if eps else None  # largest attaining
    f_site = lo + pbar.index(phi) if phi else None  # smallest attaining slot
    return eps, phi, e_site, f_site


def _derive(rd: RootDatum, x: ModelElement, rec: tuple, k: int, p: int, c: int) -> tuple:
    """The record of x, which is the source of ``rec`` with c units added
    to v at (k, p).  Only the rows of k and its neighbours change, after
    the window is widened where (k, p) sits at or past its edge.  Each
    such row is looked up in the row table ``(entries, moves)`` of
    ``rec``, which x's record holds in turn:

    * ``entries`` maps each distinct rank row met to its one entry
      ``(row, sum, eps, phi, e_offset, f_offset)``, the statistics of
      :func:`_row_stats` with sites counted from the row's first slot;
    * ``moves[(d0, d1)]`` maps ``(row, i)`` to the entry of the row with
      d0 added at index i and d1 at index i + 1.

    A row met for the first time is built and goes through
    :func:`_row_stats` (:func:`_new_move`).  The stored sum is checked
    against the source's <h_l, wt> = phi - eps moved by -C_lk * c, so the
    telescoping identity holds on every derived row.  Every other vertex
    shares its row, its statistics and its sites with the source."""
    _, wt, eps, phi, e_sites, f_sites, (lo, rows, table) = rec
    if p <= lo:  # slot lo stays empty on every row, so phi_bar starts at 0
        rows = tuple((0,) * (lo - p + 1) + row for row in rows)
        lo = p - 1
    i = p - lo
    entries, moves = table
    rows, eps, phi, e_sites, f_sites = list(rows), list(eps), list(phi), list(e_sites), list(f_sites)
    for j, move, shift in _row_moves(rd, k, c):
        trans = moves.get(move) or moves.setdefault(move, {})
        row = rows[j]
        total = phi[j] - eps[j] + shift
        entry = trans.get((row, i)) or _new_move(x, j + 1, entries, trans, row, i, *move, total)
        if entry[1] != total:
            raise AssertionError(f"telescoping identity failed at vertex {j + 1} on {x.key()}")
        rows[j], _, eps[j], phi[j], e_off, f_off = entry
        e_sites[j] = None if e_off is None else lo + e_off
        f_sites[j] = None if f_off is None else lo + f_off
    root = list(wt.root_part)
    root[k - 1] += c
    return (rd, Weight(wt.lambda_part, tuple(root)), tuple(eps), tuple(phi), tuple(e_sites),
            tuple(f_sites), (lo, tuple(rows), table))


def _row_moves(rd: RootDatum, k: int, c: int) -> tuple:
    """``(index, (d0, d1), shift)`` for each row that c units of v at
    vertex k move, read off the terms that :func:`_add_entry` adds at
    indices 0 and 1 of zero rows; shift is the move of that vertex's
    <h_l, wt>.  It depends on the datum alone, so it is kept in rd's
    ``__dict__`` and shared by every row table built against rd."""
    known = rd.__dict__.get("_row_moves")
    if known is None:
        known = rd.__dict__["_row_moves"] = {}
    spec = known.get((k, c))
    if spec is None:
        probe = [[0, 0] for _ in rd.vertices()]
        _add_entry(probe, rd.neighbor_split, k, 0, c)
        spec = known[k, c] = tuple((j, (d0, d1), -rd.cartan[j][k - 1] * c)
                                   for j, (d0, d1) in enumerate(probe) if d0 or d1)
    return spec


def _new_move(x: ModelElement, l: int, entries: dict, trans: dict, row: tuple, i: int,
              d0: int, d1: int, total: int) -> tuple:
    """The entry that row (vertex l's) moves to, stored in ``trans`` under
    ``(row, i)``: the row is built with d0 added at index i and d1 at i + 1,
    padded with zeros first where it ends before i + 1, and its statistics
    come from :func:`_row_stats` unless another move reached it first."""
    new = list(row)
    if len(new) < i + 2:  # a row shorter than another is zero beyond its end
        new += [0] * (i + 2 - len(new))
    new[i] += d0
    new[i + 1] += d1
    new = tuple(new)
    entry = entries.get(new)
    if entry is None:
        entry = entries[new] = (new, total, *_row_stats(x, l, 0, new, total))
    trans[row, i] = entry
    return entry


def embed_psi(rd: RootDatum, x: ModelElement, win: tuple[int, int]) -> TensorElement:
    """The capped tensor realization of a profile over an explicit slot window.

    Factors, left to right: s_0, then for each slot p from win[1] down to
    win[0] the block t_{w^p} (x) b_1(-v_1^p) (x) ... (x) b_n(-v_n^p), then
    s_0.  The window must cover the supports of v and of the W-profile
    with at least one empty slot on each side.

    Every factor is one of the parts kept on x's profile, tagged with rd
    and rebuilt when the profile is embedded against another datum: the
    caps, the block t_0 (x) b_1(0) (x) ... (x) b_n(0) of a slot where w and
    v vanish, each W slot's t_{w^p}, and one b_k(-c) per vertex k and
    count c met.  So each part builds its record once, and the embeddings
    of x and of its operator images share every factor instance but the
    one whose entry differs.
    """
    lo, hi = win
    support = sorted({p for (_, p), _ in x.v} | set(x.wp.support()))
    for p in support:
        if not lo < p < hi:
            raise ValueError(f"window [{lo},{hi}] does not cover slot {p} with margin 1")
    parts = x.wp.__dict__.get("_parts")
    if parts is None or parts[0] is not rd:
        empty = (TElement(rd.zero_weight()), *[BkElement(k, 0) for k in rd.vertices()])
        w = {p: TElement(Weight(vec, (0,) * rd.n)) for p, vec in x.wp.slots}
        parts = x.wp.__dict__["_parts"] = (rd, S0Element(), empty, w, {})
    _, cap, empty, w, b = parts
    width = rd.n + 1  # one block: t_{w^p}, then b_1 ... b_n
    factors = [cap, *empty * (hi - lo + 1), cap]  # every slot empty
    for p, t in w.items():
        factors[1 + (hi - p) * width] = t
    for (k, p), c in x.v:
        if not 0 < k <= rd.n:
            raise ValueError(f"vertex index {k} out of range 1..{rd.n}")
        b_kc = b.get((k, c)) or b.setdefault((k, c), BkElement(k, -c))
        factors[1 + (hi - p) * width + k] = b_kc
    return TensorElement(tuple(factors))


def embedding_mismatches(rd: RootDatum, x: ModelElement) -> list[str]:
    """The violations of :func:`~kmcrystals.crystal_core.strict_mismatches`
    at x, sent by embed_psi to its capped tensor; [] means the model and
    the tensor computation agree on wt, eps, phi and every operator.

    Each model operator image is re-embedded over x's window, so None must
    correspond to None and elements must match factor by factor.
    """
    win = window(x, margin=2)  # room for x and any single operator image
    return strict_mismatches(rd, x, embed_psi(rd, x, win), lambda y: embed_psi(rd, y, win))[0]
