"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import itertools
import os
import time

import numpy as np
import pytest

from ldpcsim.cli import ber_sweep, scale_rows
from ldpcsim.code import generate_regular
from ldpcsim.decoder import DecoderConfig, decode
from ldpcsim.parsim.model import (
    DEFAULT_SPEEDUP_TARGETS,
    CostModel,
    calibrate,
    modeled_speedups,
    simulate_parallel,
    simulate_sequential,
)
from ldpcsim.parsim.workers import _timed_decode, check_block_messages
from ldpcsim.partition import (
    PACKET_BYTES,
    attach_edge_counts,
    make_partition,
    pack_llrs,
    plan_messages,
)

from conftest import SMALL_REGULAR_PARAMS, noisy_prior
from oracles import traced_pair, uncoded_bpsk_ber

SCENARIO_SLAVES = [2, 3, 4, 6, 7, 9]


def _announce(num: int, label: str, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} ({label}): PASS{suffix}")


def _partitioned_in_process(H, prior, cfg, part):
    """The live executors' timed decode with each slave block's check
    update run in process by the scalar kernel: the partitioned schedule
    without workers or wire."""
    part = attach_edge_counts(part, H)
    degs = H.row_degrees().tolist()
    block_degs = [degs[lo:hi] for lo, hi in part.group_bounds]

    def exchange(blocks):
        return [check_block_messages(d.tolist(), bd, cfg.clamp, cfg.qformat)
                for d, bd in zip(blocks, block_degs)], 0.0

    slices = list(zip(part.edge_bounds, part.edge_bounds[1:]))
    result, _ = _timed_decode(H, prior, cfg, slices, exchange, 1, part.num_slaves + 1)
    return result


def test_criterion_1_parallel_sequential_equivalence(fixture252):
    start = time.time()
    cfg = DecoderConfig()
    cm = CostModel()
    parts = {s: make_partition(252, s) for s in SCENARIO_SLAVES}
    for seed in range(100):
        prior = noisy_prior(fixture252, ebno_db=2.0, seed=seed)
        run = decode(fixture252, prior, cfg)
        # The model prices the one run in every scenario; it returns no bits.
        assert simulate_sequential(fixture252, run, cm).iterations == run.iterations_used
        for slaves, part in parts.items():
            par = simulate_parallel(fixture252, run, part, cm)
            assert par.iterations == run.iterations_used, (seed, slaves)
        # The slave blocks' updates together are decode's whole-code update:
        # each slave count on every sixth input.
        slaves = SCENARIO_SLAVES[seed % len(SCENARIO_SLAVES)]
        par_res = _partitioned_in_process(fixture252, prior, cfg, parts[slaves])
        assert np.array_equal(par_res.bits, run.bits), (seed, slaves)
        assert par_res.iterations_used == run.iterations_used
        assert par_res.converged == run.converged
    elapsed = time.time() - start
    assert elapsed < 60.0
    _announce(1, "parallel/sequential bit equivalence",
              f"100 inputs x {len(parts)} slave counts in {elapsed:.1f}s")


def test_criterion_2_reduced_matches_classic_minsum():
    cfg = DecoderConfig(max_iter=10, early_exit=False, clamp=None)
    worst = 0.0
    params = list(itertools.islice(itertools.cycle(SMALL_REGULAR_PARAMS), 50))
    for seed, (n, wc, wr) in enumerate(params):
        H = generate_regular(n, wc, wr, seed=seed)
        prior = np.random.default_rng(seed).normal(0, 2, n)
        reduced, ref, ours, theirs = traced_pair(H, prior, cfg)
        assert len(ours) == len(theirs) == 10
        for a, b in zip(ours, theirs):
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert np.array_equal(reduced.bits, ref.bits)
    assert worst < 1e-9
    _announce(2, "reduced vs classic min-sum messages",
              f"50 codes, max message gap {worst:.2e}")


def test_criterion_3_hamming_bruteforce_oracle(hamming74, hamming_codewords):
    def nearest_codeword(prior):
        correlations = [
            (float(np.dot(1.0 - 2.0 * word, prior)), i)
            for i, word in enumerate(hamming_codewords)
        ]
        correlations.sort(reverse=True)
        assert correlations[0][0] > correlations[1][0]  # unique optimum
        return hamming_codewords[correlations[0][1]]

    cases = 0
    for word in hamming_codewords:
        base = np.where(word == 0, 4.0, -4.0)
        for flip in range(7):
            prior = base.copy()
            prior[flip] = 0.5 if word[flip] else -0.5  # weakly wrong bit
            result = decode(hamming74, prior)
            ml = nearest_codeword(prior)
            assert np.array_equal(ml, word)
            assert result.converged
            assert np.array_equal(result.bits, word)
            cases += 1
    _announce(3, "Hamming exhaustive decoding oracle", f"{cases} corruptions")


def test_criterion_4_speedup_shape_and_calibration(fixture252):
    speedups = modeled_speedups(fixture252, CostModel(), SCENARIO_SLAVES)
    assert speedups[3] < 1.0
    peak_procs = max(speedups, key=lambda k: speedups[k])
    assert 5 <= peak_procs <= 8
    assert 1.1 <= speedups[peak_procs] <= 1.4
    assert speedups[10] < speedups[peak_procs]

    fitted = calibrate(CostModel(), DEFAULT_SPEEDUP_TARGETS, fixture252)
    refit = modeled_speedups(fixture252, fitted, SCENARIO_SLAVES)
    errs = {
        procs: abs(refit[procs] - target)
        for procs, target in DEFAULT_SPEEDUP_TARGETS.items()
    }
    assert max(errs.values()) <= 0.10
    _announce(
        4,
        "speedup shape + calibration",
        f"dip {speedups[3]:.2f}, peak {speedups[peak_procs]:.2f}@{peak_procs}PE, "
        f"max calib err {max(errs.values()):.3f}",
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="criterion applies to hosts with >= 4 hardware threads",
)
def test_criterion_5_worker_mode_speedup_ordering(fixture252):
    start = time.time()
    prior = noisy_prior(fixture252, ebno_db=3.0, seed=1)
    reports = scale_rows(
        fixture252, [3, 4, 5, 7], "threads", prior, DecoderConfig(), CostModel(),
        worst_case=True, reps=100,
    )[1]
    assert all(r.iterations == 30 for r in reports)
    speedups = {r.processors - 1: r.speedup for r in reports[1:]}
    best = max(speedups.values())
    assert best > speedups[2]
    elapsed = time.time() - start
    assert elapsed < 120.0
    _announce(
        5,
        "worker-mode speedup ordering",
        f"speedups {{'2': %.2f, '3': %.2f, '4': %.2f, '6': %.2f}} in %.0fs"
        % (speedups[2], speedups[3], speedups[4], speedups[6], elapsed),
    )


def test_criterion_6_ber_beats_uncoded_tenfold(fixture252):
    start = time.time()
    row = ber_sweep(
        fixture252, [3.0], min_bits=100_000, seed=0, cfg=DecoderConfig(max_iter=30)
    )[0]
    uncoded = uncoded_bpsk_ber(3.0)
    assert row["bits"] >= 100_000
    assert row["ber"] <= uncoded / 10.0
    elapsed = time.time() - start
    assert elapsed < 120.0
    _announce(
        6,
        "coded BER at 3 dB",
        f"ber {row['ber']:.2e} vs uncoded {uncoded:.2e} over {row['bits']} bits",
    )


def test_criterion_7_worst_case_accounting(fixture252):
    prior = noisy_prior(fixture252, ebno_db=3.0, seed=1)
    reports = scale_rows(
        fixture252, [s + 1 for s in SCENARIO_SLAVES], "costmodel", prior,
        DecoderConfig(), CostModel(), worst_case=True, reps=1,
    )[1]
    for rep in reports:
        assert rep.iterations == 30
        assert rep.throughput_kbps == pytest.approx(
            504 / rep.time_seconds / 1000.0, rel=1e-12
        )
        assert sum(rep.breakdown.values()) == rep.modeled_cycles
    _announce(7, "worst-case accounting", f"{len(reports)} scenarios at 30 iterations")


def test_criterion_8_packetization(fixture252):
    rng = np.random.default_rng(0)
    divisors = [s for s in range(1, 253) if 252 % s == 0]
    for slaves in divisors:
        part = make_partition(252, slaves)
        plan = plan_messages(fixture252, part)
        assert 2 * sum(plan.to_slave_bytes) == 2 * fixture252.edges * 4
        for lo_hi, nbytes, packets in zip(
            part.group_bounds, plan.to_slave_bytes, plan.to_slave_packets
        ):
            lo, hi = int(fixture252.row_ptr[lo_hi[0]]), int(fixture252.row_ptr[lo_hi[1]])
            block = rng.normal(0, 4, hi - lo).astype(np.float32).astype(float)
            wire = pack_llrs(block.tolist())
            assert all(len(p) <= PACKET_BYTES for p in wire)
            assert sum(len(p) for p in wire) == nbytes == (hi - lo) * 4
            assert len(wire) == packets
    four_way = plan_messages(fixture252, make_partition(252, 4))
    assert four_way.to_slave_packets == (12,) * 4
    _announce(8, "packetization", f"{len(divisors)} partitions, 128-byte cap held")
