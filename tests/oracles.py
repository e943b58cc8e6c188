"""Test oracles: plain-loop implementations that share no kernel code with
`ldpcsim`, against which the tests hold the package's decoder and kernels.

`decode_minsum_reference` is classic min-sum with explicit
variable-to-check messages; its check update is `check_row_oracle`, the
literal product/min over each exclusion set of one row.
`gf2_rank_by_rows` is the GF(2) rank the tests hold `ParityCheckMatrix.rank`
to.  `uncoded_bpsk_ber` is the closed-form bit error rate the BER tests compare
coded rows with.  `traced_pair` runs `decode` and the reference side by
side and keeps each one's messages of every iteration; `recording` is how
tests see decode's state at every iteration, and `edge_messages` and
`set_edge_messages` read and write that state's messages in edge order.
"""

import contextlib
import math
from unittest.mock import patch

import numpy as np

import ldpcsim.decoder
from ldpcsim.code import syndrome_ok
from ldpcsim.decoder import DecodeResult, DecoderConfig, _validate, decode
from ldpcsim.errors import LengthMismatch


def uncoded_bpsk_ber(ebno_db: float) -> float:
    """Closed-form bit error rate of uncoded BPSK on AWGN."""
    return 0.5 * math.erfc(math.sqrt(10.0 ** (ebno_db / 10.0)))


def check_row_oracle(d) -> list[float]:
    """Messages of one check row from its edge differences d, unsaturated.

    Literal product/min over each exclusion set: message i is the product
    of sign(d_j) (sign(0) counts as +1) times the smallest |d_j| over
    j != i.  O(deg^2) plain loops sharing no code with the decoder's
    prefix/suffix kernel or the scalar two-minimum kernel; the check update
    of `decode_minsum_reference`.
    """
    out = []
    for i in range(len(d)):
        sign = 1.0
        mag = math.inf
        for j, dv in enumerate(d):
            if j == i:
                continue
            sign *= -1.0 if dv < 0 else 1.0
            mag = min(mag, abs(dv))
        out.append(sign * mag)
    return out


def decode_minsum_reference(H, prior, cfg=None, observe=None) -> DecodeResult:
    """Classic min-sum with explicit variable-to-check messages.

    Same schedule and stopping rule as `decode`, but the per-edge
    variable-to-check message q is stored rather than recovered as a
    difference.  Plain loops throughout, so it shares no kernel code with
    the reduced path.  Message equivalence holds when clamping is off.
    `observe(r)`, when given, sees each iteration's saturated
    check-to-variable messages r, an array the next iteration rewrites.
    """
    cfg = cfg or DecoderConfig()
    prior = _validate(H, prior)
    if prior.ndim != 1:
        raise LengthMismatch(f"the reference decodes one word, got shape {prior.shape}")
    prior = cfg.saturate(prior).copy()
    E = H.edges
    q = prior[H.edge_var].copy()
    r = np.zeros(E, dtype=np.float64)
    bits = (prior < 0).astype(np.uint8)
    converged = False
    iterations = 0
    for it in range(1, cfg.max_iter + 1):
        for c in range(H.m):
            lo, hi = int(H.row_ptr[c]), int(H.row_ptr[c + 1])
            r[lo:hi] = check_row_oracle(q[lo:hi])
        r = cfg.saturate(r)
        if observe is not None:
            observe(r)
        totals = cfg.saturate(prior + np.bincount(H.edge_var, weights=r, minlength=H.n))
        for v in range(H.n):
            lo, hi = int(H.col_ptr[v]), int(H.col_ptr[v + 1])
            for i in range(lo, hi):
                e = int(H.col_edge[i])
                acc = 0.0
                for j in range(lo, hi):
                    if j == i:
                        continue
                    acc += r[int(H.col_edge[j])]
                q[e] = prior[v] + acc
        iterations = it
        bits = (totals < 0).astype(np.uint8)
        converged = syndrome_ok(H, bits)
        if cfg.early_exit and converged:
            break
    return DecodeResult(
        bits=bits,
        converged=converged,
        iterations_used=iterations,
        word_iterations=np.int64(iterations),
    )


def edge_messages(state) -> np.ndarray:
    """The state's check messages in edge order, (E, B), as a read-only
    copy gathered from its slot layout."""
    out = np.take(state.msg_flat, state.H.slots.edge_slot, axis=0)
    out.flags.writeable = False
    return out


def set_edge_messages(state, values) -> None:
    """Write check messages given in edge order, (E, B), into the state's
    message slots."""
    state.msg_flat[state.H.slots.edge_slot] = values


@contextlib.contextmanager
def recording(kernel: str, record):
    """Within the block, wrap decode's kernel `ldpcsim.decoder.<kernel>`,
    whose first argument is the decode's state, so that record(state) is
    called after each call of it.  The state's arrays change in place, so
    `record` copies what must outlive the call."""
    original = getattr(ldpcsim.decoder, kernel)

    def wrapper(state, *args):
        out = original(state, *args)
        record(state)
        return out

    with patch.object(ldpcsim.decoder, kernel, wrapper):
        yield


def traced_pair(H, prior, cfg):
    """`decode` and `decode_minsum_reference` on one word, each with a copy
    of its check messages after every iteration: decode's own, column 0
    of its batch of one, taken after each call of its default check
    update."""
    ours, theirs = [], []
    with recording("check_node_update_block", lambda s: ours.append(edge_messages(s)[:, 0].copy())):
        reduced = decode(H, prior, cfg)
    ref = decode_minsum_reference(H, prior, cfg, observe=lambda r: theirs.append(r.copy()))
    return reduced, ref, ours, theirs


def gf2_rank_by_rows(H) -> int:
    """GF(2) rank of H by an xor basis over whole rows, sharing no code
    with `ParityCheckMatrix.rank`'s peeling.

    Each row, as a Python-int bit mask, is reduced by an xor basis keyed
    by top bit; whatever is left joins the basis.  A reduction never sets
    a bit above the row's own top bit, and variables get lower bits the
    later their last check comes, so once row c is done the entries keyed
    at bits no later row meets are dropped.
    """
    last_check = H.edge_rows()[H.col_edge[H.col_ptr[1:] - 1]]
    bit = np.empty(H.n, dtype=np.int64)
    bit[np.argsort(last_check, kind="stable")] = np.arange(H.n - 1, -1, -1)
    # Rows after row c meet only the bits below live[c].
    live = (H.n - np.cumsum(np.bincount(last_check, minlength=H.m))).tolist()
    var, ptr = bit[H.edge_var].tolist(), H.row_ptr.tolist()
    basis: dict[int, int] = {}
    rank, dead = 0, H.n
    for c in range(H.m):
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
