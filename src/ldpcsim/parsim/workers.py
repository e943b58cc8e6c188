"""Real multi-worker execution of the partitioned decoder.

One long-lived OS worker process per slave group plus the master in the
calling process; CPython threads cannot run the update arithmetic in
parallel, so the workers are processes connected by pipes.  Every block
transfer is a blocking rendezvous: the sender waits for the receiver's
acknowledgement, which serializes the master's scatter/gather exactly
like the modeled star bottleneck.

The master is numpy code written once, `_master_decode`, for the parallel
run and for its sequential baseline alike: it keeps the decoder's own
state (`decoder.init_state`), gathers each block's differences in one
step and runs the decoder's variable update, hard decision and syndrome
check.  The check messages come from the scalar kernel
`check_block_messages` (a per-edge loop over plain Python floats, the
array decoder's results byte for byte): in the slaves, and in process on
the whole code for the baseline.  It reads its block as a list, the one
`.tolist()` left on the worker path, and returns the messages saturated
by `decoder.saturate` as a float64 array, which the slave hands to
`pack_llrs` and the baseline assigns into `check_msg` as is.  So slave
compute scales with edge count rather than with array-dispatch overhead,
and speedups compare like with like.  Outputs are bit-identical to
`decoder.decode`.

Wire payloads go through the 128-byte packetizer with 8-byte words in
float mode (4-byte Q-format integers in fixed-point mode) so that
unpack(pack(x)) is exact and results stay bit-identical end to end.  Each
block is encoded once per direction per iteration by `pack_llrs`, whose
packets are slices of that one buffer; a frame is its type byte and those
packets in a single join, and `unpack_llrs` decodes the packets sliced
back out of the frame in one step.

`fork_shares` is the other use of processes here: it runs one function's
shares (rank 0 in process, ranks 1.. in forked children) and collects
each child's result, pickled in one frame; the BER sweep splits its
decoder calls this way.  Both start and stop their children through
`_forked` and read every frame through `_read`, which raises WorkerError
on a timeout, on a worker that exited and on a worker's failure frame.
`worker_count` gives the number of processes both honor:
LDPC_PARSIM_THREADS, else the CPUs this process may run on.
"""

from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing as mp
import os
import pickle
import statistics
import time

import numpy as np

from ..code import ParityCheckMatrix, syndrome_ok
from ..decoder import (
    DecodeResult,
    DecoderConfig,
    DecoderState,
    QFormat,
    hard_decision,
    init_state,
    saturate,
    variable_node_update,
    worst_case_config,
)
from ..errors import ConfigurationError, WorkerError
from ..partition import (
    Partition,
    attach_edge_counts,
    pack_llrs,
    split_packets,
    unpack_llrs,
)
from .model import SimReport, _require_one_word

WORKER_CAP_ENV = "LDPC_PARSIM_THREADS"
# Bounded wait, in seconds, for a worker's message or acknowledgement.
_WAIT_SECONDS = 120.0
_ACK = b"k"
# Frames are typed by their first byte so a failure is recognizable in
# any protocol state: D = difference block, R = result block or share,
# Q = quit, E = worker failure text.  Closing a slave's pipe does not stop
# it, as its forked siblings hold copies of the parent's ends.
_DATA = b"D"
_RESULT = b"R"
_QUIT = b"Q"
_FAILURE = b"E"


def check_block_messages(
    d: list[float], degs: list[int], clamp: float | None, qf: QFormat | None
) -> np.ndarray:
    """Two-minimum update for a flat difference block segmented by degs,
    saturated under (clamp, qf) by `decoder.saturate`, as a float64 array.

    Each row takes two passes over its differences: the first finds the
    two smallest magnitudes and the parity of the negative signs, the
    second writes every message.  This loop is all the compute of the
    baseline and of every slave, so it keeps to plain comparisons: a sign
    parity rather than a product of float signs, and index counters
    rather than `enumerate`.
    """
    out: list[float] = []
    put = out.append
    pos = 0
    for deg in degs:
        seg = d[pos : pos + deg]
        pos += deg
        min1 = min2 = math.inf
        argmin = -1
        odd = False
        i = 0
        for dv in seg:
            if dv < 0:
                odd = not odd
                a = -dv
            else:
                a = dv + 0.0  # |-0.0| is +0.0, as np.absolute gives it
            if a < min1:
                min2 = min1
                min1 = a
                argmin = i
            elif a < min2:
                min2 = a
            i += 1
        i = 0
        for dv in seg:
            mag = min2 if i == argmin else min1
            # Negative when the row's other edges hold an odd count of
            # negative differences.
            put(-mag if (dv < 0) is not odd else mag)
            i += 1
    return saturate(np.array(out), clamp, qf, in_place=True)


def _frame(kind: bytes, packets: list[bytes]) -> bytes:
    return b"".join([kind, *packets])


def _read(conn, timeout: float, what: str) -> bytes:
    """The next frame on conn; WorkerError on a wait past `timeout` s, on
    EOF and on a failure frame.  `what` names the frame in the error."""
    if not conn.poll(timeout):
        raise WorkerError(f"timed out waiting for a worker {what}")
    try:
        frame = conn.recv_bytes()
    except (EOFError, OSError) as exc:
        raise WorkerError(f"a worker exited without its {what}") from exc
    if frame.startswith(_FAILURE):
        raise WorkerError(frame[1:].decode(errors="replace"))
    return frame


class _Channel:
    """Rendezvous over a duplex pipe: send returns only after the peer has
    taken the frame and acknowledged it within _WAIT_SECONDS."""

    def __init__(self, conn):
        self.conn = conn

    def _put(self, frame: bytes) -> None:
        try:
            self.conn.send_bytes(frame)
        except OSError as exc:
            raise WorkerError(f"worker hung up: {exc}") from exc

    def send(self, frame: bytes) -> None:
        self._put(frame)
        ack = _read(self.conn, _WAIT_SECONDS, "acknowledgement")
        if ack != _ACK:
            raise WorkerError(f"unexpected acknowledgement {ack!r}")

    def recv(self, timeout: float = _WAIT_SECONDS) -> bytes:
        frame = _read(self.conn, timeout, "message")
        self._put(_ACK)
        return frame


def _slave_loop(conn, degs: list[int], clamp: float | None, wire: dict) -> None:
    chan = _Channel(conn)
    while True:
        frame = chan.recv(timeout=300.0)
        if frame.startswith(_QUIT):
            return
        d = unpack_llrs(split_packets(frame, offset=len(_DATA)), **wire).tolist()
        msgs = check_block_messages(d, degs, clamp, wire["qformat"])
        chan.send(_frame(_RESULT, pack_llrs(msgs, **wire)))


def _child(conn, target, args: tuple) -> None:
    """Run target(conn, *args), sending any exception as a failure frame."""
    try:
        target(conn, *args)
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception as exc:  # surfaced to the parent, which raises it
        try:
            conn.send_bytes(_FAILURE + f"{type(exc).__name__}: {exc}".encode())
        except OSError:
            pass
    finally:
        conn.close()


@contextlib.contextmanager
def _forked(jobs: list[tuple]):
    """Fork one daemon child per (target, args) in `jobs` to run
    target(conn, *args) on its end of a duplex pipe; yield the parent's
    ends.  On an exception every child is terminated first; then the pipes
    are closed and each child joined, and killed if alive after 5 s."""
    conns: list = []
    children: list = []
    try:
        for target, args in jobs:
            conn, end = mp.Pipe(duplex=True)
            conns.append(conn)
            child = mp.get_context("fork").Process(
                target=_child, args=(end, target, args), daemon=True
            )
            child.start()
            end.close()
            children.append(child)
        yield conns
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for child in children:
            child.join(timeout=5.0)
            if child.is_alive():
                child.kill()
                child.join()


def _worker_cap() -> int | None:
    raw = os.environ.get(WORKER_CAP_ENV)
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigurationError(f"{WORKER_CAP_ENV}={raw!r} is not an integer")
    if cap < 1:
        raise ConfigurationError(f"{WORKER_CAP_ENV}={raw!r} is below 1")
    return cap


def worker_count() -> int:
    """Processes to spread work over: LDPC_PARSIM_THREADS when set, else
    the CPUs this process may run on; ConfigurationError on a cap that is
    not an integer of at least 1."""
    cap = _worker_cap()
    return len(os.sched_getaffinity(0)) if cap is None else cap


def _send_share(conn, share, rank: int, procs: int) -> None:
    conn.send_bytes(_RESULT + pickle.dumps(share(rank, procs)))


def fork_shares(share, procs: int) -> list:
    """[share(rank, procs) for rank in range(procs)]: rank 0 in this
    process, ranks 1.. in forked children, whose results are read after
    rank 0's.  A child's exception or exit without a result and a wait
    past _WAIT_SECONDS raise WorkerError; no child outlives the call.
    With procs == 1 nothing is forked."""
    jobs = [(_send_share, (share, rank, procs)) for rank in range(1, procs)]
    with _forked(jobs) as conns:
        results = [share(0, procs)]
        for conn in conns:
            frame = _read(conn, _WAIT_SECONDS, "share")
            results.append(pickle.loads(frame[len(_RESULT):]))
    return results


def _master_decode(
    H: ParityCheckMatrix,
    state: DecoderState,
    eff: DecoderConfig,
    slices: list[tuple[int, int]],
    exchange,
    reps: int,
    processors: int,
) -> tuple[DecodeResult, SimReport]:
    """The master's side of `reps` decodes of the one word in `state`,
    and the report of a run on `processors` processors.

    Each iteration gathers the differences total - check_msg of every edge
    block in `slices` and hands them to `exchange`, which returns the
    blocks' check messages and the seconds it spent messaging; then the
    decoder's own variable update, hard decision and syndrome check run on
    the state.  The report's breakdown is in seconds summed over the reps,
    like extras["total_seconds"], which it sums to: `messaging`, `other`
    (resetting the state to the priors) and `compute_master` (the rest).
    """
    times = []
    reset = messaging = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(state.total, state.prior)
        state.check_msg.fill(0.0)
        t1 = time.perf_counter()
        reset += t1 - t0
        for it in range(1, eff.max_iter + 1):
            blocks, seconds = exchange(
                state.total[H.edge_var[lo:hi]] - state.check_msg[lo:hi] for lo, hi in slices
            )
            messaging += seconds
            for (lo, hi), msgs in zip(slices, blocks):
                state.check_msg[lo:hi] = msgs
            variable_node_update(state, H, eff)
            bits = hard_decision(state)
            converged = syndrome_ok(H, bits, state.workspace.syndrome)
            if eff.early_exit and converged:
                break
        times.append(time.perf_counter() - t0)
    med = statistics.median(times)
    wall = sum(times)
    report = SimReport(
        processors=processors,
        iterations=it,
        time_seconds=med,
        throughput_kbps=H.n / med / 1000.0,
        breakdown={
            "compute_master": wall - messaging - reset,
            "messaging": messaging,
            "other": reset,
        },
        extras={"repetitions": float(reps), "total_seconds": wall},
    )
    return DecodeResult(bits=bits.copy(), converged=converged, iterations_used=it), report


def _one_word_state(
    H: ParityCheckMatrix, prior: np.ndarray, cfg: DecoderConfig, reps: int, worst_case: bool
) -> tuple[DecoderConfig, DecoderState]:
    """The run's configuration and the state of its one word, whose prior
    is checked as `decode` checks it."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    _require_one_word(prior)
    eff = worst_case_config(cfg) if worst_case else cfg
    return eff, init_state(H, prior, eff)


def run_sequential_baseline(
    H: ParityCheckMatrix,
    prior: np.ndarray,
    cfg: DecoderConfig,
    reps: int = 100,
    worst_case: bool = True,
) -> tuple[DecodeResult, SimReport]:
    """Unpartitioned decode, timed over `reps` repetitions: the parallel
    run's master loop, with the scalar check kernel run in process on the
    whole code once per iteration."""
    eff, state = _one_word_state(H, prior, cfg, reps, worst_case)
    degs = H.row_degrees().tolist()

    def exchange(blocks):
        (d,) = blocks
        return [check_block_messages(d.tolist(), degs, eff.clamp, eff.qformat)], 0.0

    return _master_decode(H, state, eff, [(0, H.edges)], exchange, reps, processors=1)


def _slave_exchange(chans: list[_Channel], wire: dict, blocks) -> tuple[list, float]:
    """Pack and rendezvous-send each block as it comes, so block s+1 is
    gathered and packed while slave s computes, then gather and unpack
    every slave's reply.  Also returns the seconds spent in the sends and
    in the gather."""
    messaging = 0.0
    for chan, d in zip(chans, blocks):
        frame = _frame(_DATA, pack_llrs(d, **wire))
        tsend = time.perf_counter()
        chan.send(frame)
        messaging += time.perf_counter() - tsend
    tgather = time.perf_counter()
    replies = [chan.recv() for chan in chans]
    messaging += time.perf_counter() - tgather
    msgs = []
    for reply in replies:
        if not reply.startswith(_RESULT):
            raise WorkerError(f"unexpected frame {reply[:1]!r}")
        msgs.append(unpack_llrs(split_packets(reply, offset=len(_RESULT)), **wire))
    return msgs, messaging


def run_parallel_workers(
    H: ParityCheckMatrix,
    prior: np.ndarray,
    cfg: DecoderConfig,
    p: Partition,
    reps: int = 100,
    worst_case: bool = True,
) -> tuple[DecodeResult, SimReport]:
    """Partitioned decode on live worker processes, timed over `reps`.

    The master loop of the sequential baseline, exchanging each slave's
    block over the wire (`_slave_exchange`).  Workers are stateless
    between iterations, so repetitions just replay the message pattern.
    Raises WorkerError on a LDPC_PARSIM_THREADS cap below the slave count
    and on a worker that fails, exits or stalls, stopping every worker.
    """
    eff, state = _one_word_state(H, prior, cfg, reps, worst_case)
    p = attach_edge_counts(p, H)
    cap = _worker_cap()
    if cap is not None and p.num_slaves > cap:
        raise WorkerError(
            f"{p.num_slaves} workers exceed {WORKER_CAP_ENV}={cap}"
        )
    degs = H.row_degrees().tolist()
    wire = {"word_bytes": 8 if eff.qformat is None else 4, "qformat": eff.qformat}
    jobs = [(_slave_loop, (degs[lo:hi], eff.clamp, wire)) for lo, hi in p.group_bounds]
    with _forked(jobs) as conns:
        chans = [_Channel(conn) for conn in conns]
        slices = list(zip(p.edge_bounds, p.edge_bounds[1:]))
        exchange = functools.partial(_slave_exchange, chans, wire)
        run = _master_decode(H, state, eff, slices, exchange, reps, p.num_slaves + 1)
        for chan in chans:
            chan.send(_QUIT)
    return run
