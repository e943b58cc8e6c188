"""Reduced min-sum decoding.

The reduced formulation keeps one total LLR per variable node and one
message per edge (check -> variable).  The variable-to-check message of
classic min-sum is never stored: it is recovered per edge as the
difference d = total - msg.  One iteration is:

    1. every check node c: for each neighbor v,
       new_msg(c->v) = prod(sign(d')) * min(|d'|) over the other neighbors
    2. every variable node v: total = prior + sum of incoming messages
    3. hard decision (total >= 0 -> bit 0) and syndrome check, on the
       iterations where a word can stop: every one under early exit,
       else only those where a word reaches max_iter

`decode` runs a flooding schedule with this state layout on one word,
priors shaped (n,), a batch of words, (B, n), or a stream of such batches,
through one iteration loop.  The state keeps the word axis last (totals
(n, B), messages (dmax, m, B)), so every gather copies one contiguous row
of words; one word is a batch of one, B = 1, unwrapped only in its
result.  A stream keeps as many words resident as its first chunk holds:
when a word finishes (its syndrome passes under early exit, or it
reaches max_iter), the next queued word takes its column, and only once
the stream runs out are finished columns dropped from the state.  One
`DecoderState`, allocated once per `decode` call, holds the state and
every kernel's scratch, written with out= ufuncs (the syndrome check
included), so an iteration allocates nothing in proportion to the code
and the batch but, once words finish, the copy of their bits into the
result and the next chunk read from a stream.
The messages live in the check-node update's own layout: the code's rows
padded to the largest row degree dmax and stored slot-major
(`ParityCheckMatrix.slots`), where each per-row reduction is one
elementwise ufunc per slot.  The variable update gathers them by column
(`RowSlots.col`) and adds each variable's slots in ascending edge order;
the check update forms its minima in the message slots themselves.  The
slots are the decoder's own: a check update passed to `decode` maps one
word's differences to its messages, both in edge order.

Values are float64 with a configurable saturating clamp, or, with
`DecoderConfig.qformat` set, on a saturating Q-format fixed-point grid
for platforms without an FPU.  One rule, `saturate`, implements both for
every path: the array decoder and the scalar worker kernel.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

import numpy as np

from .code import ParityCheckMatrix, syndrome_ok
from .errors import ConfigurationError, LengthMismatch


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point grid with total_bits, frac_bits fractional.

    Values live on multiples of 2^-frac_bits and saturate symmetrically at
    +-(2^(total_bits-1) - 1) / 2^frac_bits.  Rounding is ties-to-even.
    The values are float64, whose 53-bit significand holds such a grid
    exactly only up to total_bits = 53.
    """

    total_bits: int = 8
    frac_bits: int = 4

    def __post_init__(self):
        if not 0 <= self.frac_bits < self.total_bits:
            raise ConfigurationError(
                f"need 0 <= frac_bits < total_bits, got Q{self.total_bits}.{self.frac_bits}"
            )
        if self.total_bits > 53:
            raise ConfigurationError(
                f"need total_bits <= 53, which float64 holds exactly, "
                f"got Q{self.total_bits}.{self.frac_bits}"
            )

    @property
    def max_value(self) -> float:
        return (2 ** (self.total_bits - 1) - 1) / 2**self.frac_bits

    def quantize(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        scale = float(2**self.frac_bits)
        top = float(2 ** (self.total_bits - 1) - 1)
        out = np.multiply(x, scale, out=out)
        np.rint(out, out=out)
        np.maximum(out, -top, out=out)
        np.minimum(out, top, out=out)
        return np.divide(out, scale, out=out)


@dataclass(frozen=True)
class DecoderConfig:
    max_iter: int = 30
    early_exit: bool = True
    clamp: float | None = 64.0
    qformat: QFormat | None = None

    def __post_init__(self):
        try:
            counts = operator.index(self.max_iter) >= 1
        except TypeError:  # 2.5, nan, inf: `decode` would never stop
            counts = False
        if not counts:
            raise ConfigurationError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.clamp is not None and not self.clamp > 0:
            raise ConfigurationError(f"clamp must be None or > 0, got {self.clamp}")

    def saturate(self, x: np.ndarray, in_place: bool = False) -> np.ndarray:
        """`saturate` under this configuration's clamp and Q-format."""
        return saturate(x, self.clamp, self.qformat, in_place)


def saturate(
    x: np.ndarray, clamp: float | None, qformat: QFormat | None, in_place: bool = False
) -> np.ndarray:
    """The saturation rule of every decoder path, into `x` itself when in_place.

    With a Q-format, x is rounded onto its grid (ties to even) and
    saturated at +-qformat.max_value, whatever the clamp; otherwise it is
    clamped to +-clamp, and returned as is when clamp is None.
    """
    out = x if in_place else None
    if qformat is not None:
        return qformat.quantize(x, out)
    if clamp is None:
        return x
    out = np.maximum(x, -clamp, out=out)
    return np.minimum(out, clamp, out=out)


class DecoderState:
    """Per-variable totals plus per-edge check-to-variable messages, and
    the scratch every kernel writes into, in one allocation.

    A state of B words keeps total and prior (n, B) and msg (dmax, m, B),
    dmax the largest row degree; one word is a batch of one, B = 1.  msg
    is in the slot-major row layout of `ParityCheckMatrix.slots`:
    msg[k, c] is the message of check c's k-th edge, and padding slots
    hold values that no update reads; msg_flat views it flat, then the
    zero slot.
    One block holds every buffer of `_BUFFERS` (the check update's
    minima go into msg itself), so the allocator reuses the same pages
    from one decode call to the next.  Each attribute views
    its buffer's leading entries, shaped (*lead, B), so a state that drops
    words keeps its memory; `init_state` fills a new one.
    """

    def __init__(self, H: ParityCheckMatrix, width: int):
        self.H = H
        sizes = [
            math.prod(lead(H)) * width * np.dtype(dt).itemsize for _, lead, dt in _BUFFERS
        ]
        spans = [-(-size // 64) * 64 for size in sizes]
        block = np.empty(sum(spans), dtype=np.uint8)
        offsets = np.cumsum([0] + spans)
        self._flat = {
            name: block[off : off + size].view(dt)
            for (name, _, dt), off, size in zip(_BUFFERS, offsets, sizes)
        }
        self.resize(width)

    def resize(self, width: int) -> None:
        """Re-view every buffer for `width` words."""
        for name, lead, _ in _BUFFERS:
            shape = lead(self.H) + (width,)
            setattr(self, name, self._flat[name][: math.prod(shape)].reshape(shape))
        self.msg = self.msg_flat[:-1].reshape(self.diff.shape)
        self.diff_flat = self.diff.reshape(self.msg_flat[:-1].shape)
        self.diff_slots = list(self.diff)
        self.msg_slots = list(self.msg)
        self.col_slots = list(self.col)


@dataclass
class DecodeResult:
    """Outcome of a decode.

    For a batch of B words, or a stream of B words in all, bits is (B, n)
    uint8, converged (B,) and word_iterations (B,).  One word, decoded as
    a batch of one, returns that batch's row 0: bits (n,), converged a
    bool and word_iterations its count as a numpy scalar.
    iterations_used is the int sum of word_iterations.
    """

    bits: np.ndarray
    converged: bool | np.ndarray
    word_iterations: np.ndarray

    @property
    def iterations_used(self) -> int:
        return int(np.sum(self.word_iterations))


# Leading shape (as a function of H) and dtype of every buffer a decode
# uses, each followed by the word axis.  The slot buffers hold the whole
# code's rows in the slot-major layout; msg_flat holds them flat, then the
# zero slot that `RowSlots.col` pads with, and col the messages gathered
# by column.
_BUFFERS = (
    ("total", lambda H: (H.n,), np.float64),
    ("prior", lambda H: (H.n,), np.float64),
    ("msg_flat", lambda H: (H.slots.var.size + 1,), np.float64),
    ("col", lambda H: H.slots.col.shape, np.float64),
    ("bits", lambda H: (H.n,), np.uint8),
    ("diff", lambda H: H.slots.var.shape, np.float64),
    ("neg", lambda H: H.slots.var.shape, np.bool_),
    ("parity", lambda H: (H.m,), np.bool_),
    ("syndrome", lambda H: (H.slots.var.shape[0] + 1, H.m), np.uint8),
)


def _validate(H: ParityCheckMatrix, prior: np.ndarray) -> np.ndarray:
    prior = np.asarray(prior, dtype=np.float64)
    if prior.ndim not in (1, 2) or prior.shape[-1] != H.n or prior.size == 0:
        raise LengthMismatch(f"prior shape {prior.shape} is not (n,) or (B, n), n={H.n}")
    if not np.isfinite(prior).all():
        raise ValueError("priors must be finite")
    min_deg = int(H.row_degrees().min())
    if min_deg < 2:
        raise ConfigurationError(
            f"decoder requires every check degree >= 2, found degree {min_deg}"
        )
    return prior


def init_state(H: ParityCheckMatrix, prior: np.ndarray, cfg: DecoderConfig) -> DecoderState:
    """A new state whose totals start at the (saturated) priors and whose
    check messages, the zero slot included, start at +0.0.

    `prior` is one word (n,) or a batch (B, n); the state holds the word
    axis last, one word as a batch of one: total (n, 1).
    """
    prior = _validate(H, prior).reshape(-1, H.n)
    state = DecoderState(H, len(prior))
    state.prior[...] = prior.T
    cfg.saturate(state.prior, in_place=True)
    state.total[...] = state.prior
    state.msg_flat.fill(0.0)
    return state


def _drop_words(state: DecoderState, keep: np.ndarray) -> None:
    """Remove the words not in `keep` from a state, in its buffers.

    Each buffer's kept columns pass through the diff buffer, which holds
    the row slots of every word the state was made for; so the messages
    move without their zero slot, which is written +0.0 again.
    """
    kept = np.flatnonzero(keep)
    moves = (("total", state.total), ("prior", state.prior), ("msg_flat", state.msg_flat[:-1]))
    for name, old in moves:
        shape = (old.shape[0], len(kept))
        moved = state._flat["diff"][: shape[0] * shape[1]].reshape(shape)
        np.take(old, kept, axis=1, out=moved, mode="clip")
        state._flat[name][: moved.size].reshape(shape)[...] = moved
    state.resize(len(kept))
    state.msg_flat[-1] = 0.0


# Magnitude that fills the padding slots of short rows: no real |d| exceeds
# it, so a slot's smallest other magnitude always comes from its own row.
_PAD = np.finfo(np.float64).max


def check_node_update_block(
    state: DecoderState, H: ParityCheckMatrix, cfg: DecoderConfig
) -> None:
    """Update every check node from the previous totals.

    Vectorized exclusion-minimum update, for every word of the state, on
    H's padded slot-major row layout, which state.msg shares: the k-th
    edges of all rows form one contiguous slice, so each step over the
    rows is one ufunc, and the saturated messages overwrite the ones they
    were formed from.  Only selections and sign flips of finite
    values: results match the scalar kernel
    `parsim.workers.check_block_messages` bit for bit.
    """
    d, neg = state.diff, state.neg
    np.take(state.total, H.slots.var, axis=0, out=d, mode="clip")
    np.subtract(d, state.msg, out=d)
    if H.slots.pad_slot.size:
        state.diff_flat[H.slots.pad_slot] = _PAD
    np.less(d, 0.0, out=neg)
    np.absolute(d, out=d)
    # Slot k gets min(prefix[k-1], suffix[k+1]), the least |d| of the other
    # slots, formed in the message slots, whose old values d has read:
    # prefix minima fill msg[1:-1]; msg[0] folds the suffix minimum.
    dk, mk = state.diff_slots, state.msg_slots
    last = len(dk) - 1
    prefix = [dk[0]] + mk[1:last]
    for k in range(1, last):
        np.minimum(prefix[k - 1], dk[k], out=prefix[k])
    np.copyto(mk[last], prefix[last - 1])
    np.copyto(mk[0], dk[last])
    for k in range(last - 1, 0, -1):
        np.minimum(prefix[k - 1], mk[0], out=mk[k])
        np.minimum(mk[0], dk[k], out=mk[0])
    # Sign: negative when the row's other slots hold an odd number of
    # negative differences.
    np.bitwise_xor.reduce(neg, axis=0, out=state.parity)
    np.not_equal(neg, state.parity, out=neg)
    np.multiply(neg, -2.0, out=d)
    np.add(d, 1.0, out=d)
    np.multiply(state.msg, d, out=state.msg)
    cfg.saturate(state.msg, in_place=True)


def variable_node_update(
    state: DecoderState, H: ParityCheckMatrix, cfg: DecoderConfig
) -> None:
    """total_v = prior_v + sum of incoming check messages, saturated.

    The messages are gathered by column (`RowSlots.col`) and each
    variable's are added in ascending edge order to +0.0, then the prior:
    the additions of a weighted `np.bincount` over the edges, in its
    order.  A sum begun at +0.0 is never -0.0, so the zero slot's +0.0
    padding changes no sum.
    """
    total = state.total
    np.take(state.msg_flat, H.slots.col, axis=0, out=state.col, mode="clip")
    first, *rest = state.col_slots
    np.add(first, 0.0, out=total)
    for slot in rest:
        np.add(total, slot, out=total)
    np.add(state.prior, total, out=total)
    cfg.saturate(total, in_place=True)


def hard_decision(state: DecoderState) -> np.ndarray:
    """total >= 0 decides bit 0; negative totals decide bit 1.

    Returns the state's bit buffer (shaped like total), which the next
    call overwrites.
    """
    return np.less(state.total, 0.0, out=state.bits)


def _queued(H: ParityCheckMatrix, chunk, cfg: DecoderConfig) -> np.ndarray:
    """A stream chunk's priors, checked and saturated, one word per row."""
    chunk = _validate(H, chunk)
    if chunk.ndim != 2:
        raise LengthMismatch(f"stream chunk shape {chunk.shape} is not (B, n), n={H.n}")
    return cfg.saturate(chunk)


def decode(
    H: ParityCheckMatrix,
    prior: np.ndarray | Iterable[np.ndarray],
    cfg: DecoderConfig | None = None,
    check_update: Callable[[np.ndarray], np.ndarray] | None = None,
) -> DecodeResult:
    """Flooding-schedule decode: all check nodes, all variables, decision.

    `prior` is one word (n,), a batch (B, n) or any other iterable of
    (B_i, n) chunks, read as it is needed; all three run this one loop,
    one word as a batch of one whose result is unwrapped to the one-word
    `DecodeResult`.  The state holds the words of the array, or of the
    first chunk.  Stops a word at its first valid syndrome when
    early_exit is set, else after max_iter iterations; the next word of
    the stream then takes its column, and once the stream runs out the
    column leaves the batch.
    The hard decision and syndrome run only on iterations where a word can
    stop: every one under early exit, else where a word reaches max_iter.
    Deterministic for identical inputs, and each word decodes exactly as
    it would alone.  A stream's result is a batch's, its words in stream
    order.  A chunk that is not (B_i, n) or holds a non-finite prior
    raises when it is read, as the array does; an empty stream raises
    LengthMismatch.

    `check_update(d)`, when given, is one word's check-node update: it
    maps the word's differences total - msg in edge order, (E,) float64,
    a temporary it may keep, to its saturated check messages in edge
    order.  Each iteration, before the variable update, decode calls it
    once per resident word, in column order.  By default every word is
    updated at once by `check_node_update_block(state, H, cfg)`, looked
    up at each call.
    """
    cfg = cfg or DecoderConfig()
    var, slot = H.edge_var, H.slots.edge_slot
    if isinstance(prior, np.ndarray):
        chunks, one_word = iter(()), prior.ndim == 1
        state = init_state(H, prior, cfg)
    else:
        chunks, one_word = iter(prior), False
        first = next(chunks, None)
        if first is None:
            raise LengthMismatch(f"prior stream holds no chunk of (B, n) priors, n={H.n}")
        state = init_state(H, _queued(H, first, cfg), cfg)
    width = state.total.shape[1]
    # Result index of the word in each column, and the iteration before
    # it started; without early exit no word can stop before iteration due.
    active = np.arange(width)
    start = np.zeros(width, dtype=np.int64)
    due = cfg.max_iter
    j = 0
    queue = np.empty((0, H.n))
    count = width  # words read so far
    finished = []  # (result index, bits, converged, iterations) of finished words
    while True:
        j += 1
        if check_update is None:
            check_node_update_block(state, H, cfg)
        else:
            for total, msg in zip(state.total.T, state.msg_flat.T):
                msg[slot] = check_update(total[var] - msg[slot])
        variable_node_update(state, H, cfg)
        if not cfg.early_exit and j < due:
            continue
        bits = hard_decision(state)
        ok = syndrome_ok(H, bits.T, state.syndrome)
        done = start == j - cfg.max_iter
        if cfg.early_exit:
            done |= ok
        if not done.any():
            continue
        finished.append((active[done], bits.T[done], ok[done], j - start[done]))
        free = np.flatnonzero(done)
        while len(queue) < len(free) and (chunk := next(chunks, None)) is not None:
            queue = np.concatenate([queue, _queued(H, chunk, cfg)])
        if len(queue):
            cols, queue_head = free[: len(queue)], queue[: len(free)]
            queue = queue[len(cols) :]
            state.prior[:, cols] = queue_head.T
            state.total[:, cols] = queue_head.T
            state.msg_flat[:, cols] = 0.0
            active[cols] = np.arange(count, count + len(cols))
            start[cols] = j
            done[cols] = False
            count += len(cols)
        if done.all():
            break
        if done.any():
            active, start = active[~done], start[~done]
            _drop_words(state, ~done)
        due = int(start.min()) + cfg.max_iter
    bits_out = np.empty((count, H.n), dtype=np.uint8)
    converged = np.empty(count, dtype=bool)
    word_iterations = np.empty(count, dtype=np.int64)
    for index, *outcome in finished:
        bits_out[index], converged[index], word_iterations[index] = outcome
    if one_word:
        bits_out, converged, word_iterations = bits_out[0], bool(converged[0]), word_iterations[0]
    return DecodeResult(bits=bits_out, converged=converged, word_iterations=word_iterations)


def worst_case_config(cfg: DecoderConfig) -> DecoderConfig:
    """Same saturation, but always run the full iteration budget."""
    return replace(cfg, early_exit=False)
