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


def _repeats_in_a_row(rows: np.ndarray) -> bool:
    """True iff some row of `rows`, shaped (m, w), holds a value twice."""
    w = rows.shape[1]
    return any((rows[:, i] == rows[:, j]).any() for i, j in itertools.combinations(range(w), 2))


def _transpose_masks(masks: list[int], k: int) -> list[int]:
    """The k row masks of the matrix whose column i is the k-bit int
    masks[i]: bit i of row j is bit j of masks[i].  Unpacks 2048 columns
    at a time, so at most 2048 * k bytes of bits are held at once."""
    rows, nbytes = [0] * k, (k + 7) // 8
    for lo in range(0, len(masks), 2048):
        part = masks[lo : lo + 2048]
        packed = np.frombuffer(b"".join(x.to_bytes(nbytes, "little") for x in part), np.uint8)
        bits = np.unpackbits(packed.reshape(len(part), nbytes), axis=1, count=k, bitorder="little")
        for j, word in enumerate(np.packbits(bits.T, axis=1, bitorder="little")):
            rows[j] |= int.from_bytes(word.tobytes(), "little") << lo
    return rows


def _xor_basis_rank(rows: list[int]) -> int:
    """GF(2) rank of the rows, each an int bit mask: each row is reduced by
    an xor basis keyed by top bit, and whatever is left joins the basis."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = row
                break
            row ^= pivot
    return len(basis)


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
        # Greedy triangulation (Richardson & Urbanke, "Efficient encoding of
        # low-density parity-check codes", 2001).  A live row with one live
        # column pivots on it.  With no such row left, a live row of least
        # live degree retires all its live columns but its last and then
        # pivots.  A row that loses its last live column without a pivot
        # joins the core.  Each pivot row meets only columns that died before
        # its pivot, so the pivots form a unit lower-triangular block and the
        # rank is their count plus the rank of the core rows once the pivot
        # rows have cleared the core's pivot columns.
        ptr, var = memoryview(self.row_ptr), memoryview(self.edge_var)
        col_ptr, col_row = memoryview(self.col_ptr), memoryview(self.edge_rows()[self.col_edge])
        deg = self.row_degrees().tolist()
        live_row, live_col = bytearray(b"\x01") * self.m, bytearray(b"\x01") * self.n
        # Rows by live degree; an entry whose row has since moved is skipped.
        bucket: list[list[int]] = [[] for _ in range(max(deg) + 1)]
        for r in range(self.m - 1, -1, -1):
            bucket[deg[r]].append(r)
        pivots: list[tuple[int, int]] = []
        core: list[int] = []
        least = 2  # no bucket below bucket[least] holds a live row of degree 2 or more
        while True:
            if bucket[1]:
                r = bucket[1].pop()
                if not live_row[r] or deg[r] != 1:
                    continue
                dying = [c for c in var[ptr[r] : ptr[r + 1]] if live_col[c]]
                live_row[r] = 0
                pivots.append((r, dying[0]))
            else:
                for d in range(least, len(bucket)):
                    rows = bucket[d]
                    while rows and not (live_row[rows[-1]] and deg[rows[-1]] == d):
                        rows.pop()
                    if rows:
                        break
                else:
                    break
                least, r = d, bucket[d].pop()
                dying = [c for c in var[ptr[r] : ptr[r + 1]] if live_col[c]][:-1]
            for c in dying:
                live_col[c] = 0
                for r in col_row[col_ptr[c] : col_ptr[c + 1]]:
                    if live_row[r]:
                        d = deg[r] = deg[r] - 1
                        if d:
                            bucket[d].append(r)
                            if d < least:
                                least = d
                        else:
                            live_row[r] = 0
                            core.append(r)
        if not core:
            return len(pivots)
        # mask[c]: the core rows that meet column c, core row j at bit j.
        # Clearing pivot p from the core adds its row to the core rows in
        # mask[p]; walked in reverse, each pivot column is cleared after
        # every later pivot row has added to it, and its own XOR zeroes it.
        mask = [0] * self.n
        for j, r in enumerate(core):
            for c in var[ptr[r] : ptr[r + 1]]:
                mask[c] |= 1 << j
        for r, p in reversed(pivots):
            if x := mask[p]:
                for c in var[ptr[r] : ptr[r + 1]]:
                    mask[c] ^= x
        return len(pivots) + _xor_basis_rank(_transpose_masks([x for x in mask if x], len(core)))

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
    col_sockets = np.repeat(np.arange(n), wc)
    for _ in range(max_attempts):
        rows = rng.permutation(col_sockets).reshape(m, wr)
        if not _repeats_in_a_row(rows):
            return ParityCheckMatrix(rows, n)
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
