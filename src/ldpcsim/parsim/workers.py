"""Real multi-worker execution of the partitioned decoder.

One long-lived OS worker process per slave group plus the master in the
calling process; CPython threads cannot run the update computation in
parallel, so the workers are processes connected by pipes.  Each
iteration the master puts one `D` frame to every slave and then reads one
`R` frame back from each, in slave order; nothing is acknowledged.  As a
HeMPS kernel `Send` stores the message in the producer's pipe and returns,
a put returns once the pipe has taken the frame, and only the reads block,
each bounded by `_WAIT_SECONDS`: the contract
`model.parallel_iteration_cost` prices.  It cannot deadlock, because a
slave writes its result only after it has read its whole difference frame
and the master reads results only after it has put every block.

The master of the parallel run and of its sequential baseline alike is
`decoder.decode` itself, timed by `_timed_decode`, with only its check
update passed in: each iteration that update cuts the word's edge-order
differences into the edge blocks and returns their check messages,
joined in edge order, for decode to write into its own message slots,
while decode runs its own variable update, hard decision, syndrome check
and stopping rule.  The check messages come from the scalar kernel
`check_block_messages` (a per-edge loop over plain Python floats, the
array decoder's results byte for byte): in the slaves, and in process on
the whole code for the baseline.  It reads its block as a list, the one
`.tolist()` left on the worker path, and returns the messages saturated
by `decoder.saturate` as a float64 array, which the slave hands to
`pack_llrs` and the baseline returns as is.  So slave
compute scales with edge count rather than with array-dispatch overhead,
and speedups compare like with like.  Outputs are bit-identical to
`decoder.decode`.

Wire payloads go through the 128-byte packetizer with 8-byte words in
float mode and Q-format integers in fixed-point mode, 4-byte words for a
format of at most 32 bits and 8-byte words for a wider one, so that
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
A worker lives as long as its pipe: each child closes the parent's ends
it inherited, so the parent's close, exit or death reaches it as EOF and
it ends; a killed master takes its workers with it.
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

from ..code import ParityCheckMatrix
from ..decoder import (
    DecodeResult,
    DecoderConfig,
    QFormat,
    _validate,
    decode,
    saturate,
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
# Bounded wait, in seconds, for a worker's result block or share.
_WAIT_SECONDS = 120.0
# Frames are typed by their first byte so a failure is recognizable in
# any protocol state: D = difference block, R = result block or share,
# E = worker failure text.
_DATA = b"D"
_RESULT = b"R"
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


def _read(conn, what: str) -> bytes:
    """The next frame on conn; WorkerError on a wait past _WAIT_SECONDS
    (looked up when the wait starts), on EOF and on a failure frame.
    `what` names the frame in the error."""
    if not conn.poll(_WAIT_SECONDS):
        raise WorkerError(f"timed out waiting for a worker {what}")
    try:
        frame = conn.recv_bytes()
    except (EOFError, OSError) as exc:
        raise WorkerError(f"a worker exited without its {what}") from exc
    if frame.startswith(_FAILURE):
        raise WorkerError(frame[1:].decode(errors="replace"))
    return frame


def _put(conn, frame: bytes) -> None:
    try:
        conn.send_bytes(frame)
    except OSError as exc:
        raise WorkerError(f"worker hung up: {exc}") from exc


def _unframe(frame: bytes, kind: bytes, wire: dict) -> np.ndarray:
    """The words of a `kind` frame; WorkerError on a frame of any other
    type."""
    if not frame.startswith(kind):
        raise WorkerError(f"unexpected frame {frame[:1]!r}")
    return unpack_llrs(split_packets(frame, offset=len(kind)), **wire)


def _slave_loop(conn, degs: list[int], clamp: float | None, wire: dict) -> None:
    """Answer each difference block with its check messages until EOF."""
    while True:
        d = _unframe(conn.recv_bytes(), _DATA, wire).tolist()
        msgs = check_block_messages(d, degs, clamp, wire["qformat"])
        _put(conn, _frame(_RESULT, pack_llrs(msgs, **wire)))


def _child(inherited: list, conn, target, args: tuple) -> None:
    """Close the parent's pipe ends this fork inherited, so the parent's
    close or death reaches every child as EOF; then run target(conn,
    *args), sending any exception as a failure frame.  EOF ends it
    quietly."""
    for end in inherited:
        end.close()
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
    are closed, which ends each child at EOF, and each child is joined,
    and killed if alive after 5 s."""
    conns: list = []
    children: list = []
    try:
        for target, args in jobs:
            conn, end = mp.Pipe(duplex=True)
            conns.append(conn)
            child = mp.get_context("fork").Process(
                target=_child, args=(conns, end, target, args), daemon=True
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
            frame = _read(conn, "share")
            results.append(pickle.loads(frame[len(_RESULT):]))
    return results


def _timed_decode(
    H: ParityCheckMatrix,
    prior: np.ndarray,
    eff: DecoderConfig,
    slices: list[tuple[int, int]],
    exchange,
    reps: int,
    processors: int,
) -> tuple[DecodeResult, SimReport]:
    """`reps` timed decodes of the one word `prior` under `eff`, and the
    report of a run on `processors` processors.

    decode's check update cuts the word's edge-order differences into
    the edge blocks of `slices`, 1-D float64 views, and hands them to
    `exchange`, which returns the blocks' check messages and the seconds
    it spent messaging; the blocks' messages, joined in edge order, are
    the update's result.  The report's breakdown is in seconds summed
    over the reps, like extras["total_seconds"], which it sums to:
    `messaging` and `compute_master` (the rest).
    """
    messaging = 0.0

    def check_update(d):
        nonlocal messaging
        replies, seconds = exchange(d[lo:hi] for lo, hi in slices)
        messaging += seconds
        return np.concatenate(replies)

    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = decode(H, prior, eff, check_update)
        times.append(time.perf_counter() - t0)
    med = statistics.median(times)
    wall = sum(times)
    report = SimReport(
        processors=processors,
        iterations=result.iterations_used,
        time_seconds=med,
        throughput_kbps=H.n / med / 1000.0,
        breakdown={"compute_master": wall - messaging, "messaging": messaging},
        extras={"repetitions": float(reps), "total_seconds": wall},
    )
    return result, report


def _checked_config(
    H: ParityCheckMatrix, prior: np.ndarray, cfg: DecoderConfig, reps: int, worst_case: bool
) -> DecoderConfig:
    """The run's configuration, once its reps and its one word's prior
    are checked as `decode` checks them."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    _require_one_word(prior)
    _validate(H, prior)
    return worst_case_config(cfg) if worst_case else cfg


def run_sequential_baseline(
    H: ParityCheckMatrix,
    prior: np.ndarray,
    cfg: DecoderConfig,
    reps: int = 100,
    worst_case: bool = True,
) -> tuple[DecodeResult, SimReport]:
    """Unpartitioned decode, timed over `reps` repetitions: `decode` with
    the scalar check kernel run in process on the whole code once per
    iteration."""
    eff = _checked_config(H, prior, cfg, reps, worst_case)
    degs = H.row_degrees().tolist()

    def exchange(blocks):
        (d,) = blocks
        return [check_block_messages(d.tolist(), degs, eff.clamp, eff.qformat)], 0.0

    return _timed_decode(H, prior, eff, [(0, H.edges)], exchange, reps, processors=1)


def _slave_exchange(conns: list, wire: dict, blocks) -> tuple[list, float]:
    """Pack and put each block as it comes, so block s+1 is cut and
    packed while slave s computes, then read every slave's reply in slave
    order and unpack it.  One frame goes each way per slave and none is
    acknowledged: a put returns once the pipe has taken the frame, and
    each read waits at most _WAIT_SECONDS.  Also returns the seconds spent
    in the puts and in the gather."""
    messaging = 0.0
    for conn, d in zip(conns, blocks):
        frame = _frame(_DATA, pack_llrs(d, **wire))
        tsend = time.perf_counter()
        _put(conn, frame)
        messaging += time.perf_counter() - tsend
    tgather = time.perf_counter()
    replies = [_read(conn, "message") for conn in conns]
    messaging += time.perf_counter() - tgather
    return [_unframe(reply, _RESULT, wire) for reply in replies], messaging


def run_parallel_workers(
    H: ParityCheckMatrix,
    prior: np.ndarray,
    cfg: DecoderConfig,
    p: Partition,
    reps: int = 100,
    worst_case: bool = True,
) -> tuple[DecodeResult, SimReport]:
    """Partitioned decode on live worker processes, timed over `reps`.

    `decode`, as in the sequential baseline, exchanging each slave's
    block over the wire (`_slave_exchange`).  Workers are stateless
    between iterations, so repetitions just replay the message pattern.
    Raises WorkerError on a LDPC_PARSIM_THREADS cap below the slave count
    and on a worker that fails, exits or stalls, stopping every worker.
    """
    eff = _checked_config(H, prior, cfg, reps, worst_case)
    p = attach_edge_counts(p, H)
    cap = _worker_cap()
    if cap is not None and p.num_slaves > cap:
        raise WorkerError(
            f"{p.num_slaves} workers exceed {WORKER_CAP_ENV}={cap}"
        )
    degs = H.row_degrees().tolist()
    qf = eff.qformat
    wire = {"word_bytes": 4 if qf is not None and qf.total_bits <= 32 else 8, "qformat": qf}
    jobs = [(_slave_loop, (degs[lo:hi], eff.clamp, wire)) for lo, hi in p.group_bounds]
    with _forked(jobs) as conns:
        slices = list(zip(p.edge_bounds, p.edge_bounds[1:]))
        exchange = functools.partial(_slave_exchange, conns, wire)
        return _timed_decode(H, prior, eff, slices, exchange, reps, p.num_slaves + 1)
