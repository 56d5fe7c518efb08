"""Symmetric Kac-Moody root data and exact integral weights.

A root datum here is a symmetric generalized Cartan matrix C together with
the loop-free graph it encodes: between distinct vertices k and l there are
m_kl = -C_kl edges, and there are no edge loops.  Vertices carry a fixed
numbering 1..n which induces the canonical orientation used by the profile
model: an arrow along an edge is "forward" when it points from the smaller
vertex to the larger one.

Weights are stored as an exact coordinate pair

    wt  =  sum_k lambda_part[k] * Lambda_k  -  sum_k root_part[k] * alpha_k,

i.e. fundamental-weight coefficients plus *subtracted* simple-root
coefficients.  Two weights are equal only when both coordinate vectors
agree; we never reconstruct Lambda-coordinates from coroot pairings, so the
usual "modulo the kernel of all pairings" ambiguity never arises.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from pathlib import Path


@dataclass(frozen=True, slots=True)
class Weight:
    """Exact weight: (fundamental-weight coords, subtracted simple-root coords)."""

    lambda_part: tuple[int, ...]
    root_part: tuple[int, ...]

    def __post_init__(self):
        if len(self.lambda_part) != len(self.root_part):
            raise ValueError(
                "lambda_part and root_part must have equal length, got "
                f"{len(self.lambda_part)} and {len(self.root_part)}"
            )

    def __add__(self, other: "Weight") -> "Weight":
        if len(other.lambda_part) != len(self.lambda_part):
            raise ValueError("cannot add weights of different rank")
        return Weight(
            tuple(a + b for a, b in zip(self.lambda_part, other.lambda_part)),
            tuple(a + b for a, b in zip(self.root_part, other.root_part)),
        )

    def subtract_alpha(self, k: int) -> "Weight":
        """wt - alpha_k, i.e. increment the subtracted-root coordinate at k."""
        self._check_vertex(k)
        root = list(self.root_part)
        root[k - 1] += 1
        return Weight(self.lambda_part, tuple(root))

    def add_alpha(self, k: int) -> "Weight":
        """wt + alpha_k."""
        self._check_vertex(k)
        root = list(self.root_part)
        root[k - 1] -= 1
        return Weight(self.lambda_part, tuple(root))

    def _check_vertex(self, k: int):
        if not 1 <= k <= len(self.lambda_part):
            raise ValueError(f"vertex index {k} out of range 1..{len(self.lambda_part)}")

    def serialize(self) -> dict:
        return {"lambda": list(self.lambda_part), "root": list(self.root_part)}


@dataclass(frozen=True)
class RootDatum:
    """A symmetric generalized Cartan matrix with its vertex numbering."""

    cartan: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.cartan)
        for i, row in enumerate(self.cartan):
            if len(row) != n:
                raise ValueError(f"Cartan matrix row {i + 1} has length {len(row)}, expected {n}")
            if row[i] != 2:
                raise ValueError(f"Cartan diagonal entry ({i + 1},{i + 1}) is {row[i]}, must be 2")
            for j, c in enumerate(row):
                if i != j and c > 0:
                    raise ValueError(
                        f"Cartan off-diagonal entry ({i + 1},{j + 1}) is {c}, must be <= 0"
                    )
                if c != self.cartan[j][i]:
                    raise ValueError(
                        f"Cartan matrix not symmetric at ({i + 1},{j + 1}): "
                        f"{c} != {self.cartan[j][i]}"
                    )

    @cached_property
    def n(self) -> int:
        return len(self.cartan)

    @cached_property
    def edge_mult(self) -> tuple[tuple[int, ...], ...]:
        """Edge multiplicities m_kl = -C_kl off the diagonal, 0 on it."""
        return tuple(
            tuple(0 if i == j else -c for j, c in enumerate(row))
            for i, row in enumerate(self.cartan)
        )

    @cached_property
    def neighbor_split(self) -> tuple:
        """Per vertex k: the edge-carrying neighbours below and above k, with
        multiplicities.  The split decides whether a neighbour contributes
        at slot p-1 or p in the profile model, per the canonical orientation."""
        out = []
        for k in self.vertices():
            row = self.edge_mult[k - 1]
            below = tuple((l, row[l - 1]) for l in range(1, k) if row[l - 1])
            above = tuple((l, row[l - 1]) for l in range(k + 1, self.n + 1) if row[l - 1])
            out.append((below, above))
        return tuple(out)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def pairing(self, k: int, wt: Weight) -> int:
        """Coroot pairing <h_k, wt>: row k of :meth:`pairing_vector`."""
        self._check_vertex(k)
        return self.pairing_vector(wt)[k - 1]

    def pairing_vector(self, wt: Weight) -> tuple[int, ...]:
        """The coroot pairings <h_k, wt> = lambda_part[k] - sum_l C_kl root_part[l], k = 1..n."""
        if len(wt.lambda_part) != self.n:
            raise ValueError(f"weight has rank {len(wt.lambda_part)}, root datum has rank {self.n}")
        root = wt.root_part
        return tuple(
            lam - sum(map(mul, row, root)) for lam, row in zip(wt.lambda_part, self.cartan)
        )

    def is_dominant(self, wt: Weight) -> bool:
        return all(p >= 0 for p in self.pairing_vector(wt))

    def zero_weight(self) -> Weight:
        return Weight((0,) * self.n, (0,) * self.n)

    def weight(self, lambda_part, root_part=None) -> Weight:
        lam = tuple(int(x) for x in lambda_part)
        root = (0,) * self.n if root_part is None else tuple(int(x) for x in root_part)
        if len(lam) != self.n or len(root) != self.n:
            raise ValueError(f"weight coordinates must have length {self.n}")
        return Weight(lam, root)

    def _check_vertex(self, k: int):
        if not 1 <= k <= self.n:
            raise ValueError(f"vertex index {k} out of range 1..{self.n}")


MAX_PRESET_RANK = 1000  # the dense adjacency of a preset holds at most 10^6 entries


def _adjacency_to_cartan(adjacency) -> tuple[tuple[int, ...], ...]:
    seq = (list, tuple)
    if not (isinstance(adjacency, seq) and all(isinstance(row, seq) for row in adjacency)):
        raise ValueError(f"not a preset name, a dict or a list of rows: {adjacency!r}")
    n = len(adjacency)
    rows = [list(r) for r in adjacency]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"adjacency row {i + 1} has length {len(row)}, expected {n}")
        for j, a in enumerate(row):
            if not isinstance(a, int) or isinstance(a, bool):
                raise ValueError(f"adjacency entry ({i + 1},{j + 1}) is not an integer: {a!r}")
            if a < 0:
                raise ValueError(f"negative adjacency entry ({i + 1},{j + 1}): {a}")
        if row[i] != 0:
            raise ValueError(f"edge loop at vertex {i + 1}")
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(
                    f"adjacency not symmetric at ({i + 1},{j + 1}): {rows[i][j]} != {rows[j][i]}"
                )
    return tuple(
        tuple(2 if i == j else -rows[i][j] for j in range(n)) for i in range(n)
    )


def _preset_adjacency(name: str):
    """Adjacency matrix of a named diagram (Bourbaki numbering for D and E).
    The rank, ASCII digits with no leading zero, is bounded before any use."""
    if name == "affineA1":
        return [[0, 2], [2, 0]]
    m = re.fullmatch(r"([ADE])(0|[1-9][0-9]*)", name)
    if not m:
        raise ValueError(f"unknown preset {name!r}")
    family, rank = m.group(1), int(m.group(2))
    if rank < 1:
        raise ValueError(f"preset rank must be positive: {name!r}")
    if family == "D" and rank < 3:
        raise ValueError(f"D-series preset needs rank >= 3: {name!r}")
    if family == "E" and rank not in (6, 7, 8):
        raise ValueError(f"E-series preset needs rank 6, 7 or 8: {name!r}")
    if rank > MAX_PRESET_RANK:
        raise ValueError(f"preset rank must be at most {MAX_PRESET_RANK}: {name!r}")
    if family == "A":
        edges = [(i, i + 1) for i in range(1, rank)]
    elif family == "D":
        edges = [(i, i + 1) for i in range(1, rank - 2)]
        edges += [(rank - 2, rank - 1), (rank - 2, rank)]
    else:
        # chain 1-3-4-...-rank with the branch vertex 2 attached to 4
        edges = [(1, 3)] + [(i, i + 1) for i in range(3, rank)] + [(2, 4)]
    adj = [[0] * rank for _ in range(rank)]
    for a, b in edges:
        adj[a - 1][b - 1] += 1
        adj[b - 1][a - 1] += 1
    return adj


def build_root_datum(source) -> RootDatum:
    """Build a root datum from a preset name, an adjacency matrix, or a dict.

    Accepted forms: "A3"; [[0,1],[1,0]]; {"preset": "A3"};
    {"adjacency": [[...], ...]}.  The adjacency matrix must be square,
    symmetric, nonnegative and loop-free; the Cartan matrix is
    2*I - adjacency.
    """
    if isinstance(source, str):
        return RootDatum(_adjacency_to_cartan(_preset_adjacency(source)))
    if isinstance(source, dict):
        if "preset" in source:
            return build_root_datum(source["preset"])
        if "adjacency" in source:
            return RootDatum(_adjacency_to_cartan(source["adjacency"]))
        raise ValueError("root datum dict must contain 'preset' or 'adjacency'")
    return RootDatum(_adjacency_to_cartan(source))


def load_root_datum(path) -> RootDatum:
    """Read a root datum from a JSON or TOML file holding {"preset": ...} or {"adjacency": ...}."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".toml":
        import tomllib  # here, not at the top: only TOML files pay for the import

        data = tomllib.loads(text)
    else:
        data = json.loads(text)
    return build_root_datum(data)
