"""Real multi-worker execution of the partitioned decoder.

One long-lived OS worker process per slave group plus the master in the
calling process; CPython threads cannot run the update arithmetic in
parallel, so the workers are processes connected by pipes.  Every block
transfer is a blocking rendezvous: the sender waits for the receiver's
acknowledgement, which serializes the master's scatter/gather exactly
like the modeled star bottleneck.

Both the parallel run and its sequential baseline use the same
interpreter-level scalar kernel (plain Python floats, identical operation
order to the array decoder), so wall-clock compute scales with edge count
rather than with array-dispatch overhead, and speedups compare like with
like.  Each finished list (a block of check messages, the totals) is
saturated in one call to the decoder's own rule, `decoder.saturate`.
Outputs are bit-identical to `decoder.decode`.

Wire payloads go through the 128-byte packetizer with 8-byte words in
float mode (4-byte Q-format integers in fixed-point mode) so that
unpack(pack(x)) is exact and results stay bit-identical end to end.  Each
block is encoded once per direction per iteration by `pack_llrs`, whose
packets are slices of that one buffer; a frame is its type byte and those
packets in a single join, and `unpack_llrs` decodes the packets sliced
back out of the frame in one step.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from ..code import ParityCheckMatrix
from ..decoder import DecodeResult, DecoderConfig, QFormat, saturate, worst_case_config
from ..errors import WorkerError
from ..partition import (
    Partition,
    attach_edge_counts,
    pack_llrs,
    split_packets,
    unpack_llrs,
)
from .model import SimReport

WORKER_CAP_ENV = "LDPC_PARSIM_THREADS"
# Bounded wait, in seconds, for a worker's message or acknowledgement.
_WAIT_SECONDS = 120.0
_ACK = b"k"
# Frames are typed by their first byte so a failure is recognizable in
# any protocol state: D = difference block, R = result block, Q = quit,
# E = worker failure text.
_DATA = b"D"
_RESULT = b"R"
_QUIT = b"Q"
_FAILURE = b"E"


def check_block_messages(
    d: list[float], degs: list[int], clamp: float | None, qf: QFormat | None
) -> list[float]:
    """Two-minimum update for a flat difference block segmented by degs,
    saturated under (clamp, qf) by `decoder.saturate`."""
    out: list[float] = []
    pos = 0
    for deg in degs:
        seg = d[pos : pos + deg]
        pos += deg
        min1 = min2 = float("inf")
        argmin = -1
        sign_all = 1.0
        for i, dv in enumerate(seg):
            s = -1.0 if dv < 0 else 1.0
            sign_all *= s
            a = -dv if dv < 0 else dv
            if a < min1:
                min2 = min1
                min1 = a
                argmin = i
            elif a < min2:
                min2 = a
        for i, dv in enumerate(seg):
            s = -1.0 if dv < 0 else 1.0
            mag = min2 if i == argmin else min1
            out.append(sign_all * s * mag)
    return saturate(np.array(out), clamp, qf, in_place=True).tolist()


@dataclass
class _Graph:
    """Adjacency unpacked into Python lists for the scalar kernel."""

    n: int
    m: int
    edge_var: list[int]
    row_degs: list[int]

    @classmethod
    def of(cls, H: ParityCheckMatrix) -> "_Graph":
        return cls(
            n=H.n,
            m=H.m,
            edge_var=H.edge_var.tolist(),
            row_degs=H.row_degrees().tolist(),
        )


def _scalar_iteration_tail(
    g: _Graph,
    prior: list[float],
    msg: list[float],
    clamp: float | None,
    qf: QFormat | None,
) -> tuple[list[float], list[int], bool]:
    """Variable update, hard decision and syndrome from fresh messages."""
    incoming = [0.0] * g.n
    for e, v in enumerate(g.edge_var):
        incoming[v] += msg[e]
    total = saturate(np.add(prior, incoming), clamp, qf, in_place=True).tolist()
    bits = [1 if t < 0 else 0 for t in total]
    ok = True
    e = 0
    for deg in g.row_degs:
        parity = 0
        for _ in range(deg):
            parity ^= bits[g.edge_var[e]]
            e += 1
        if parity:
            ok = False
    return total, bits, ok


def _scalar_decode(
    g: _Graph, prior: list[float], cfg: DecoderConfig
) -> tuple[list[int], bool, int]:
    """Whole-code scalar decode; the sequential benchmark workload."""
    clamp, qf = cfg.clamp, cfg.qformat
    total = list(prior)
    msg = [0.0] * len(g.edge_var)
    bits = [1 if t < 0 else 0 for t in total]
    converged = False
    iterations = 0
    for it in range(1, cfg.max_iter + 1):
        d = [total[v] - msg[e] for e, v in enumerate(g.edge_var)]
        msg = check_block_messages(d, g.row_degs, clamp, qf)
        total, bits, converged = _scalar_iteration_tail(g, prior, msg, clamp, qf)
        iterations = it
        if cfg.early_exit and converged:
            break
    return bits, converged, iterations


def _frame(kind: bytes, packets: list[bytes]) -> bytes:
    return b"".join([kind, *packets])


class _Channel:
    """Rendezvous over a duplex pipe: send returns only after the peer has
    taken the frame and acknowledged it within _WAIT_SECONDS.  Failure
    frames raise on sight."""

    def __init__(self, conn):
        self.conn = conn

    def send(self, frame: bytes) -> None:
        try:
            self.conn.send_bytes(frame)
            if not self.conn.poll(_WAIT_SECONDS):
                raise WorkerError("timed out waiting for a worker acknowledgement")
            ack = self.conn.recv_bytes()
        except (BrokenPipeError, EOFError) as exc:
            raise WorkerError(f"worker hung up mid-send: {exc}") from exc
        if ack.startswith(_FAILURE):
            raise WorkerError(ack[1:].decode(errors="replace"))
        if ack != _ACK:
            raise WorkerError(f"unexpected acknowledgement {ack!r}")

    def recv(self, timeout: float = _WAIT_SECONDS) -> bytes:
        if not self.conn.poll(timeout):
            raise WorkerError("timed out waiting for a worker message")
        frame = self.conn.recv_bytes()
        if frame.startswith(_FAILURE):
            raise WorkerError(frame[1:].decode(errors="replace"))
        try:
            self.conn.send_bytes(_ACK)
        except BrokenPipeError as exc:
            raise WorkerError(f"worker hung up mid-receive: {exc}") from exc
        return frame


def _slave_loop(conn, degs: list[int], word_bytes: int, qf: QFormat | None,
                clamp: float | None) -> None:
    chan = _Channel(conn)
    try:
        while True:
            frame = chan.recv(timeout=300.0)
            if frame.startswith(_QUIT):
                return
            d = unpack_llrs(
                split_packets(frame, offset=len(_DATA)), word_bytes=word_bytes, qformat=qf
            )
            msgs = check_block_messages(d, degs, clamp, qf)
            chan.send(_frame(_RESULT, pack_llrs(msgs, word_bytes=word_bytes, qformat=qf)))
    except (EOFError, KeyboardInterrupt, WorkerError):
        return
    except Exception as exc:  # surfaced to the master via the frame prefix
        try:
            conn.send_bytes(_FAILURE + f"{type(exc).__name__}: {exc}".encode())
        except Exception:
            pass


def _worker_cap() -> int | None:
    raw = os.environ.get(WORKER_CAP_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise WorkerError(f"{WORKER_CAP_ENV}={raw!r} is not an integer")


def run_sequential_baseline(
    H: ParityCheckMatrix,
    prior: np.ndarray,
    cfg: DecoderConfig,
    reps: int = 100,
    worst_case: bool = True,
) -> tuple[DecodeResult, SimReport]:
    """Unpartitioned scalar decode, timed over `reps` repetitions."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    eff = worst_case_config(cfg) if worst_case else cfg
    g = _Graph.of(H)
    pr = [float(x) for x in eff.saturate(np.asarray(prior, dtype=np.float64))]
    times = []
    bits: list[int] = []
    converged = False
    iterations = 0
    for _ in range(reps):
        t0 = time.perf_counter()
        bits, converged, iterations = _scalar_decode(g, pr, eff)
        times.append(time.perf_counter() - t0)
    med = statistics.median(times)
    result = DecodeResult(
        bits=np.array(bits, dtype=np.uint8),
        converged=converged,
        iterations_used=iterations,
    )
    report = SimReport(
        processors=1,
        iterations=iterations,
        time_seconds=med,
        throughput_kbps=H.n / med / 1000.0,
        breakdown={"compute_master": med, "messaging": 0.0, "other": 0.0},
        extras={"repetitions": float(reps), "total_seconds": sum(times)},
    )
    return result, report


def run_parallel_workers(
    H: ParityCheckMatrix,
    prior: np.ndarray,
    cfg: DecoderConfig,
    p: Partition,
    reps: int = 100,
    worst_case: bool = True,
) -> tuple[DecodeResult, SimReport]:
    """Partitioned decode on live worker processes, timed over `reps`.

    Per iteration the master packs and rendezvous-sends each slave's
    difference block (preparing the next block while the previous slave
    already computes), gathers the refreshed messages, then runs the
    variable update and the syndrome check.  Workers are stateless
    between iterations, so repetitions just replay the message pattern.
    Raises WorkerError if the LDPC_PARSIM_THREADS cap (when set) is below
    the slave count.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    p = attach_edge_counts(p, H)
    cap = _worker_cap()
    if cap is not None and p.num_slaves > cap:
        raise WorkerError(
            f"{p.num_slaves} workers exceed {WORKER_CAP_ENV}={cap}"
        )
    eff = worst_case_config(cfg) if worst_case else cfg
    clamp, qf = eff.clamp, eff.qformat
    word_bytes = 8 if qf is None else 4
    g = _Graph.of(H)
    pr = [float(x) for x in eff.saturate(np.asarray(prior, dtype=np.float64))]
    slices = list(zip(p.edge_bounds, p.edge_bounds[1:]))
    block_degs = [g.row_degs[lo:hi] for lo, hi in p.group_bounds]

    ctx = mp.get_context("fork")
    chans: list[_Channel] = []
    procs: list = []
    try:
        for s in range(p.num_slaves):
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_slave_loop,
                args=(child, block_degs[s], word_bytes, qf, clamp),
                daemon=True,
            )
            proc.start()
            child.close()
            chans.append(_Channel(parent))
            procs.append(proc)

        times = []
        t_msg_total = 0.0
        t_compute_total = 0.0
        bits: list[int] = []
        converged = False
        iterations = 0
        for _ in range(reps):
            t0 = time.perf_counter()
            total = list(pr)
            msg = [0.0] * len(g.edge_var)
            converged = False
            iterations = 0
            for it in range(1, eff.max_iter + 1):
                tmark = time.perf_counter()
                for chan, (lo, hi) in zip(chans, slices):
                    d = [total[g.edge_var[e]] - msg[e] for e in range(lo, hi)]
                    frame = _frame(_DATA, pack_llrs(d, word_bytes=word_bytes, qformat=qf))
                    tsend = time.perf_counter()
                    t_compute_total += tsend - tmark
                    chan.send(frame)
                    tmark = time.perf_counter()
                    t_msg_total += tmark - tsend
                replies = []
                for chan in chans:
                    replies.append(chan.recv())
                trecv = time.perf_counter()
                t_msg_total += trecv - tmark
                for (lo, hi), reply in zip(slices, replies):
                    if not reply.startswith(_RESULT):
                        raise WorkerError(f"unexpected frame {reply[:1]!r}")
                    msg[lo:hi] = unpack_llrs(
                        split_packets(reply, offset=len(_RESULT)),
                        word_bytes=word_bytes,
                        qformat=qf,
                    )
                total, bits, converged = _scalar_iteration_tail(g, pr, msg, clamp, qf)
                iterations = it
                t_compute_total += time.perf_counter() - trecv
                if eff.early_exit and converged:
                    break
            times.append(time.perf_counter() - t0)
        for chan in chans:
            chan.send(_QUIT)
    finally:
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()

    med = statistics.median(times)
    wall = sum(times)
    result = DecodeResult(
        bits=np.array(bits, dtype=np.uint8),
        converged=converged,
        iterations_used=iterations,
    )
    report = SimReport(
        processors=p.num_slaves + 1,
        iterations=iterations,
        time_seconds=med,
        throughput_kbps=H.n / med / 1000.0,
        breakdown={
            "compute_master": t_compute_total,
            "messaging": t_msg_total,
            "other": wall - t_compute_total - t_msg_total,
        },
        extras={"repetitions": float(reps), "total_seconds": wall},
    )
    return result, report

