"""Sparse parity-check matrices, alist I/O and codeword validation.

A code is represented by its m x n binary parity-check matrix H, stored
once, as CSR arrays over its edges and their CSC view.  Edge ids run over
rows in row order, then within a row in the order the row was given;
per-edge decoder state is indexed by these ids.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyRowOrColumn,
    InfeasibleParameters,
    LengthMismatch,
    MalformedAlist,
)


def _duplicate_key(keys: np.ndarray) -> int | None:
    """The smallest key that occurs twice in `keys` (`check * n + variable`
    names a duplicate edge), or None."""
    s = np.sort(keys)
    hit = np.flatnonzero(s[1:] == s[:-1])
    return int(s[hit[0]]) if hit.size else None


class ParityCheckMatrix:
    """Immutable sparse binary matrix, held as its Tanner graph's edge arrays.

    Sparsity (edge count growing like the code length) is expected of the
    codes this library targets but is not enforced numerically.

    Attributes:
        m, n: check (row) and variable (column) counts.
        edges: total number of 1-entries.
        row_ptr / edge_var: CSR-style arrays; edges of check c occupy
            edge ids row_ptr[c]:row_ptr[c+1], edge_var[e] is the variable.
        slots: the rows in the slot-major padded layout (`RowSlots`), built
            on first use.
        col_ptr / col_edge: CSC view; the edges of variable v are
            col_edge[col_ptr[v]:col_ptr[v+1]], in ascending check order
            (a stable sort of edge ids by variable).
        rank: the GF(2) rank of H, computed on first use.
    """

    def __init__(self, rows: Sequence[Sequence[int]], n: int):
        m = len(rows)
        if m < 1 or n < 1:
            raise MalformedAlist(f"matrix must be at least 1x1, got {m}x{n}")
        degs = np.fromiter(map(len, rows), dtype=np.int64, count=m)
        row_ptr = np.concatenate(([0], np.cumsum(degs)))
        try:
            edge_var = np.fromiter(
                itertools.chain.from_iterable(rows), dtype=np.int64, count=int(row_ptr[-1])
            )
        except OverflowError as exc:
            raise MalformedAlist(f"variable index out of range: {exc}") from exc
        # Faults are reported for the first row that has one, as a scan of
        # the rows in order would find them; uncovered columns come last.
        edge_row = np.repeat(np.arange(m), degs)
        empty = m if degs.all() else int(np.argmin(degs))
        # Only the entries before the first out-of-range one are searched for
        # a duplicate: an out-of-range key can alias an edge of the next row.
        out = np.flatnonzero((edge_var < 0) | (edge_var >= n))
        e = out[0] if out.size else edge_var.size
        dup = _duplicate_key(edge_row[:e] * n + edge_var[:e])
        if dup is not None and dup // n < empty:
            raise MalformedAlist(f"duplicate edge ({dup // n}, {dup % n})")
        if out.size and edge_row[e] < empty:
            raise MalformedAlist(f"variable index {edge_var[e]} out of range in row {edge_row[e]}")
        if empty < m:
            raise EmptyRowOrColumn(f"check node {empty} has no edges")
        cdegs = np.bincount(edge_var, minlength=n)
        if not cdegs.all():
            raise EmptyRowOrColumn(f"variable node {np.argmin(cdegs)} has no edges")

        self.m, self.n, self.edges = m, n, int(row_ptr[-1])
        self.row_ptr, self.edge_var = row_ptr, edge_var
        self.col_ptr = np.concatenate(([0], np.cumsum(cdegs)))
        self.col_edge = np.argsort(edge_var, kind="stable")

    @functools.cached_property
    def slots(self) -> "RowSlots":
        degs = self.row_degrees()
        edge_row = self.edge_rows()
        edge_slot = (np.arange(self.edges) - self.row_ptr[edge_row]) * self.m + edge_row
        edge = np.repeat(self.row_ptr[None, :-1], degs.max(), axis=0)
        edge.flat[edge_slot] = np.arange(self.edges)
        # col_edge lists each variable v's edges in ascending id from entry
        # col_ptr[v] on, so entry i is v's k-th edge, k = i - col_ptr[v].
        cdegs = self.col_degrees()
        k = np.arange(self.edges) - np.repeat(self.col_ptr[:-1], cdegs)
        col = np.full((cdegs.max(), self.n), edge.size)
        col[k, self.edge_var[self.col_edge]] = edge_slot[self.col_edge]
        return RowSlots(
            var=self.edge_var[edge],
            pad_slot=np.flatnonzero(np.arange(degs.max())[:, None] >= degs[None, :]),
            edge_slot=edge_slot,
            col=col,
        )

    @functools.cached_property
    def rank(self) -> int:
        # Each row, as a Python-int bit mask, is reduced by an xor basis
        # keyed by top bit; whatever is left joins the basis.  A reduction
        # never sets a bit above the row's own top bit, and variables get
        # lower bits the later their last check comes, so once row c is done
        # the entries keyed at bits no later row meets are dropped.
        last_check = self.edge_rows()[self.col_edge[self.col_ptr[1:] - 1]]
        bit = np.empty(self.n, dtype=np.int64)
        bit[np.argsort(last_check, kind="stable")] = np.arange(self.n - 1, -1, -1)
        # Rows after row c meet only the bits below live[c].
        live = (self.n - np.cumsum(np.bincount(last_check, minlength=self.m))).tolist()
        var, ptr = bit[self.edge_var].tolist(), self.row_ptr.tolist()
        basis: dict[int, int] = {}
        rank, dead = 0, self.n
        for c in range(self.m):
            row = sum(1 << v for v in var[ptr[c] : ptr[c + 1]])
            while row:
                top = row.bit_length() - 1
                pivot = basis.get(top)
                if pivot is None:
                    basis[top] = row
                    rank += 1
                    break
                row ^= pivot
            for t in range(live[c], dead):
                basis.pop(t, None)
            dead = live[c]
        return rank

    def row_degrees(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    def edge_rows(self) -> np.ndarray:
        """The check of each edge, shaped (E,)."""
        return np.repeat(np.arange(self.m), self.row_degrees())

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
    noted.  `col` reads the same flat slots by column: col[k, v] is the
    slot of variable v's k-th edge in ascending edge id, and a variable of
    degree below the largest, dv_max, points its remaining entries at the
    zero slot `var.size`, one past the last row slot, which a decoder
    holds at +0.0.
    """

    var: np.ndarray  # variable of each slot's edge, or of its row's first edge for padding
    pad_slot: np.ndarray  # flat slot of each padding slot (none when rows are regular)
    edge_slot: np.ndarray  # (E,) flat slot k * m + c of each edge
    col: np.ndarray  # (dv_max, n) flat slot of each variable's k-th edge


@dataclass(frozen=True)
class CodeInfo:
    """Code-length bookkeeping: k = n - rank(H) information bits."""

    n: int
    k: int
    rate: float

    @classmethod
    def from_matrix(cls, H: ParityCheckMatrix) -> "CodeInfo":
        k = H.n - H.rank
        return cls(n=H.n, k=k, rate=k / H.n)


def load_alist(text: str) -> ParityCheckMatrix:
    """Parse an alist document into a ParityCheckMatrix.

    Layout: "n m" / "max_col_deg max_row_deg" / column degrees / row degrees /
    n column adjacency lines / m row adjacency lines, indices 1-based.
    Zero entries (padding) in adjacency lines are ignored.
    """
    lines = [parts for parts in map(str.split, text.splitlines()) if parts]
    try:
        tokens = np.fromiter(map(int, itertools.chain.from_iterable(lines)), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise MalformedAlist(f"non-integer token: {exc}") from exc
    counts = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    starts = np.concatenate(([0], np.cumsum(counts)))
    if len(lines) < 4:
        raise MalformedAlist("alist needs at least 4 header lines")
    header = [tokens[starts[i] : starts[i + 1]] for i in range(4)]
    if len(header[0]) != 2:
        raise MalformedAlist("first line must be 'n m'")
    n, m = header[0].tolist()
    if n < 1 or m < 1:
        raise MalformedAlist(f"non-positive dimensions n={n} m={m}")
    if len(lines) != 4 + n + m:
        raise MalformedAlist(f"expected {4 + n + m} lines for n={n} m={m}, got {len(lines)}")
    col_degs, row_degs = header[2], header[3]
    if len(col_degs) != n:
        raise MalformedAlist(f"expected {n} column degrees, got {len(col_degs)}")
    if len(row_degs) != m:
        raise MalformedAlist(f"expected {m} row degrees, got {len(row_degs)}")
    if not (col_degs.all() and row_degs.all()):
        raise EmptyRowOrColumn("zero-degree row or column declared")
    if header[1].tolist() != [col_degs.max(), row_degs.max()]:
        raise MalformedAlist("second line must be the largest column and row degrees")

    def block(first: int, degs: np.ndarray, upper: int, what: str):
        """Line-in-block and 0-based value of each entry of len(degs) lines."""
        owner = np.repeat(np.arange(len(degs)), counts[first : first + len(degs)])
        entry = tokens[starts[first] : starts[first + len(degs)]]
        owner, entry = owner[entry != 0], entry[entry != 0]
        bad = entry[(entry < 1) | (entry > upper)]
        if bad.size:
            raise MalformedAlist(f"{what} index {bad[0]} out of range 1..{upper}")
        found = np.bincount(owner, minlength=len(degs))
        wrong = np.flatnonzero(found != degs)
        if wrong.size:
            i = wrong[0]
            raise MalformedAlist(
                f"line {first + i + 1}: declared degree {degs[i]}, found {found[i]}"
            )
        return owner, entry - 1

    col_of, col_check = block(4, col_degs, m, "check")
    var = block(4 + n, row_degs, n, "variable")[1].tolist()
    ptr = np.cumsum(row_degs).tolist()
    H = ParityCheckMatrix([var[a:b] for a, b in zip([0, *ptr], ptr)], n)
    # Both adjacency blocks must describe the same edge set.
    keys = np.sort(H.edge_rows() * n + H.edge_var)
    if not np.array_equal(np.sort(col_check * n + col_of), keys):
        raise MalformedAlist("column adjacency disagrees with row adjacency")
    return H


def _lines(values: np.ndarray, ptr: np.ndarray) -> list[str]:
    """Line i holds values[ptr[i]:ptr[i+1]], space separated."""
    tokens = list(map(str, values.tolist()))
    ptr = ptr.tolist()
    return [" ".join(tokens[a:b]) for a, b in zip(ptr[:-1], ptr[1:])]


def save_alist(H: ParityCheckMatrix) -> str:
    """Serialize to canonical alist: adjacency lists ascending, no padding."""
    cdegs, rdegs = H.col_degrees(), H.row_degrees()
    edge_row = H.edge_rows()
    lines = [
        f"{H.n} {H.m}",
        f"{int(cdegs.max())} {int(rdegs.max())}",
        " ".join(map(str, cdegs.tolist())),
        " ".join(map(str, rdegs.tolist())),
        *_lines(edge_row[H.col_edge] + 1, H.col_ptr),
        *_lines(np.sort(edge_row * H.n + H.edge_var) % H.n + 1, H.row_ptr),
    ]
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
        if _duplicate_key(row_sockets * n + perm) is None:
            return ParityCheckMatrix(perm.reshape(m, wr), n)
    raise InfeasibleParameters(
        f"no duplicate-free edge assignment found in {max_attempts} attempts "
        f"for n={n} wc={wc} wr={wr}"
    )


def syndrome_ok(
    H: ParityCheckMatrix, bits: np.ndarray, scratch: np.ndarray | None = None
) -> bool | np.ndarray:
    """True iff H . x^T = 0 over GF(2), i.e. every check has even parity.

    `bits` is a batch of B words, shaped (B, n), which gets one verdict
    per word, a (B,) bool array; or one word, shaped (n,), checked as a
    batch of one and answered with a bool.  `scratch`, a C-contiguous
    uint8 array shaped (max row degree + 1, m, B), takes the per-slot
    bits and the row parities instead of new arrays.
    """
    bits = np.asarray(bits)
    if bits.ndim not in (1, 2) or bits.shape[-1] != H.n:
        raise LengthMismatch(f"codeword shape {bits.shape} is not (n,) or (B, n), n={H.n}")
    if bits.ndim == 1:
        return bool(syndrome_ok(H, bits[None], scratch)[0])
    if scratch is None:
        scratch = np.empty((H.slots.var.shape[0] + 1, H.m, len(bits)), dtype=np.uint8)
    # Word axis trailing, so each slot gathers one contiguous row of words.
    parity, per_slot = scratch[0], scratch[1:]
    np.take(bits.T.astype(np.uint8, copy=False), H.slots.var, axis=0, out=per_slot, mode="clip")
    if H.slots.pad_slot.size:
        per_slot.reshape(-1, len(bits))[H.slots.pad_slot] = 0
    return ~np.bitwise_xor.reduce(per_slot, axis=0, out=parity).any(axis=0)
