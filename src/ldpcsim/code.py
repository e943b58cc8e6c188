"""Sparse parity-check matrices, alist I/O and codeword validation.

A code is represented by its m x n binary parity-check matrix H, stored as
bipartite adjacency (check rows <-> variable columns).  Edge ids run over
rows in row order, then within a row in adjacency order; per-edge decoder
state is indexed by these ids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyRowOrColumn,
    InfeasibleParameters,
    LengthMismatch,
    MalformedAlist,
)


class ParityCheckMatrix:
    """Immutable sparse binary matrix with Tanner-graph adjacency.

    Sparsity (edge count growing like the code length) is expected of the
    codes this library targets but is not enforced numerically.

    Attributes:
        m, n: check (row) and variable (column) counts.
        row_adj: per check node, tuple of adjacent variable indices.
        col_adj: per variable node, tuple of adjacent check indices
            (ascending, derived from row_adj).
        edges: total number of 1-entries.
        row_ptr / edge_var: CSR-style arrays; edges of check c occupy
            edge ids row_ptr[c]:row_ptr[c+1], edge_var[e] is the variable.
        slots: the rows in the slot-major padded layout (`RowSlots`), built
            on first use.
        col_ptr / col_edge: CSC view; the edges of variable v are
            col_edge[col_ptr[v]:col_ptr[v+1]], in ascending check order
            (a stable sort of edge ids by variable).
    """

    def __init__(self, row_adj: Sequence[Sequence[int]], n: int):
        m = len(row_adj)
        if m < 1 or n < 1:
            raise MalformedAlist(f"matrix must be at least 1x1, got {m}x{n}")
        rows = []
        col_lists: list[list[int]] = [[] for _ in range(n)]
        for c, vs in enumerate(row_adj):
            vs = tuple(int(v) for v in vs)
            if len(vs) == 0:
                raise EmptyRowOrColumn(f"check node {c} has no edges")
            seen = set()
            for v in vs:
                if not 0 <= v < n:
                    raise MalformedAlist(f"variable index {v} out of range in row {c}")
                if v in seen:
                    raise MalformedAlist(f"duplicate edge ({c}, {v})")
                seen.add(v)
                col_lists[v].append(c)
            rows.append(vs)
        for v, cs in enumerate(col_lists):
            if not cs:
                raise EmptyRowOrColumn(f"variable node {v} has no edges")

        self.m = m
        self.n = n
        self.row_adj = tuple(rows)
        self.col_adj = tuple(tuple(cs) for cs in col_lists)

        degs = np.fromiter((len(r) for r in rows), dtype=np.int64, count=m)
        self.row_ptr = np.concatenate(([0], np.cumsum(degs)))
        self.edges = int(self.row_ptr[-1])
        self.edge_var = np.fromiter(
            (v for vs in rows for v in vs), dtype=np.int64, count=self.edges
        )
        cdegs = np.fromiter((len(c) for c in self.col_adj), dtype=np.int64, count=n)
        self.col_ptr = np.concatenate(([0], np.cumsum(cdegs)))
        self.col_edge = np.argsort(self.edge_var, kind="stable")

    @functools.cached_property
    def slots(self) -> "RowSlots":
        degs = self.row_degrees()
        edge_row = np.repeat(np.arange(self.m), degs)
        edge_slot = (np.arange(self.edges) - self.row_ptr[edge_row]) * self.m + edge_row
        edge = np.repeat(self.row_ptr[None, :-1], degs.max(), axis=0)
        edge.flat[edge_slot] = np.arange(self.edges)
        return RowSlots(
            edge=edge,
            var=self.edge_var[edge],
            pad=np.arange(degs.max())[:, None] >= degs[None, :],
            edge_slot=edge_slot,
        )

    def row_degrees(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    def col_degrees(self) -> np.ndarray:
        return np.diff(self.col_ptr)

    def __repr__(self) -> str:
        return f"ParityCheckMatrix(m={self.m}, n={self.n}, edges={self.edges})"


@dataclass(frozen=True)
class RowSlots:
    """The rows of H padded to the largest row degree, stored slot-major.

    Slot (k, c) holds the k-th edge of check c, so slot k of a run of rows
    is one contiguous run and a per-row reduction over the slots is one
    elementwise ufunc per slot.  Arrays are (max row degree, m) unless
    noted.
    """

    edge: np.ndarray  # edge id; a padding slot repeats its row's first edge
    var: np.ndarray  # variable of that edge
    pad: np.ndarray  # bool, True at padding slots (none when rows are regular)
    edge_slot: np.ndarray  # (E,) flat slot k * m + c of each edge


@dataclass(frozen=True)
class CodeInfo:
    """Code-length bookkeeping. k = n - m is assumed (rank is not computed);
    rank_assumed flags that assumption for callers that care."""

    n: int
    k: int
    rate: float
    rank_assumed: bool = True

    @classmethod
    def from_matrix(cls, H: ParityCheckMatrix) -> "CodeInfo":
        k = H.n - H.m
        return cls(n=H.n, k=k, rate=k / H.n)


def load_alist(text: str) -> ParityCheckMatrix:
    """Parse an alist document into a ParityCheckMatrix.

    Layout: "n m" / "max_col_deg max_row_deg" / column degrees / row degrees /
    n column adjacency lines / m row adjacency lines, indices 1-based.
    Zero entries (padding) in adjacency lines are ignored.
    """
    tokens_per_line = []
    for line in text.splitlines():
        parts = line.split()
        if parts:
            try:
                tokens_per_line.append([int(p) for p in parts])
            except ValueError as exc:
                raise MalformedAlist(f"non-integer token in line {line!r}") from exc
    if len(tokens_per_line) < 4:
        raise MalformedAlist("alist needs at least 4 header lines")
    if len(tokens_per_line[0]) != 2:
        raise MalformedAlist("first line must be 'n m'")
    n, m = tokens_per_line[0]
    if n < 1 or m < 1:
        raise MalformedAlist(f"non-positive dimensions n={n} m={m}")
    if len(tokens_per_line) != 4 + n + m:
        raise MalformedAlist(
            f"expected {4 + n + m} lines for n={n} m={m}, got {len(tokens_per_line)}"
        )
    col_degs = tokens_per_line[2]
    row_degs = tokens_per_line[3]
    if len(col_degs) != n:
        raise MalformedAlist(f"expected {n} column degrees, got {len(col_degs)}")
    if len(row_degs) != m:
        raise MalformedAlist(f"expected {m} row degrees, got {len(row_degs)}")
    if any(d == 0 for d in col_degs) or any(d == 0 for d in row_degs):
        raise EmptyRowOrColumn("zero-degree row or column declared")

    def entries(line_tokens: list[int], upper: int, what: str) -> list[int]:
        out = []
        for t in line_tokens:
            if t == 0:
                continue  # padding
            if not 1 <= t <= upper:
                raise MalformedAlist(f"{what} index {t} out of range 1..{upper}")
            out.append(t - 1)
        return out

    col_adj = []
    for v in range(n):
        cs = entries(tokens_per_line[4 + v], m, "check")
        if len(cs) != col_degs[v]:
            raise MalformedAlist(
                f"column {v + 1}: declared degree {col_degs[v]}, found {len(cs)}"
            )
        col_adj.append(cs)
    row_adj = []
    for c in range(m):
        vs = entries(tokens_per_line[4 + n + c], n, "variable")
        if len(vs) != row_degs[c]:
            raise MalformedAlist(
                f"row {c + 1}: declared degree {row_degs[c]}, found {len(vs)}"
            )
        row_adj.append(vs)

    H = ParityCheckMatrix(row_adj, n)  # raises on duplicates / empty
    # Both adjacency blocks must describe the same edge set.
    for v in range(n):
        if sorted(col_adj[v]) != sorted(H.col_adj[v]):
            raise MalformedAlist(
                f"column {v + 1} adjacency disagrees with row adjacency"
            )
    return H


def save_alist(H: ParityCheckMatrix) -> str:
    """Serialize to canonical alist: adjacency lists ascending, no padding."""
    lines = [
        f"{H.n} {H.m}",
        f"{int(H.col_degrees().max())} {int(H.row_degrees().max())}",
        " ".join(str(int(d)) for d in H.col_degrees()),
        " ".join(str(int(d)) for d in H.row_degrees()),
    ]
    for v in range(H.n):
        lines.append(" ".join(str(c + 1) for c in sorted(H.col_adj[v])))
    for c in range(H.m):
        lines.append(" ".join(str(v + 1) for v in sorted(H.row_adj[c])))
    return "\n".join(lines) + "\n"


def generate_regular(
    n: int, wc: int, wr: int, seed: int, max_attempts: int = 2000
) -> ParityCheckMatrix:
    """Random (wc, wr)-regular matrix via edge-socket permutation.

    Repeats the permutation until no duplicate edge appears; deterministic
    for a fixed seed.  Stands in for structured constructions: only the
    degree profile is guaranteed, not girth.
    """
    if wc < 2:
        raise InfeasibleParameters(f"column weight must be >= 2, got {wc}")
    if wr < 1:
        raise InfeasibleParameters(f"row weight must be >= 1, got {wr}")
    if (n * wc) % wr != 0:
        raise InfeasibleParameters(
            f"n*wc = {n * wc} not divisible by row weight {wr}"
        )
    m = n * wc // wr
    if wr > n or wc > m:
        raise InfeasibleParameters(
            f"degrees infeasible for {m}x{n}: wr={wr} > n or wc={wc} > m"
        )
    rng = np.random.default_rng(seed)
    row_sockets = np.repeat(np.arange(m), wr)
    col_sockets = np.repeat(np.arange(n), wc)
    for _ in range(max_attempts):
        perm = rng.permutation(col_sockets)
        pairs = row_sockets * n + perm
        if len(np.unique(pairs)) != len(pairs):
            continue
        row_adj: list[list[int]] = [[] for _ in range(m)]
        for c, v in zip(row_sockets, perm):
            row_adj[c].append(int(v))
        return ParityCheckMatrix(row_adj, n)
    raise InfeasibleParameters(
        f"no duplicate-free edge assignment found in {max_attempts} attempts "
        f"for n={n} wc={wc} wr={wr}"
    )


def syndrome_ok(
    H: ParityCheckMatrix, bits: np.ndarray, scratch: np.ndarray | None = None
) -> bool | np.ndarray:
    """True iff H . x^T = 0 over GF(2), i.e. every check has even parity.

    `bits` is one word, shaped (n,), or a batch of words, shaped (B, n);
    a batch gets one verdict per word, a (B,) bool array.  `scratch`, a
    uint8 array shaped (max row degree + 1, m) plus the batch's word axis,
    takes the per-slot bits and the row parities instead of new arrays.
    """
    bits = np.asarray(bits)
    if bits.ndim not in (1, 2) or bits.shape[-1] != H.n:
        raise LengthMismatch(f"codeword shape {bits.shape} is not (n,) or (B, n), n={H.n}")
    if scratch is None:
        scratch = np.empty((H.slots.var.shape[0] + 1, H.m) + bits.shape[:-1], dtype=np.uint8)
    # Word axis trailing, so each slot gathers one contiguous row of words.
    parity, per_slot = scratch[0], scratch[1:]
    bits = bits.T.astype(np.uint8, copy=False)
    np.take(bits, H.slots.var, axis=0, out=per_slot, mode="clip")
    per_slot[H.slots.pad] = 0
    odd = np.bitwise_xor.reduce(per_slot, axis=0, out=parity).max(axis=0)
    return not odd if parity.ndim == 1 else odd == 0
