import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from ldpcsim.code import generate_regular, syndrome_ok
from ldpcsim.decoder import DecoderConfig, QFormat, decode, worst_case_config
from ldpcsim.cli import scale_rows
from ldpcsim.errors import ConfigurationError, LengthMismatch, WorkerError
from ldpcsim.parsim.model import CostModel, simulate_parallel
from ldpcsim.parsim.workers import (
    WORKER_CAP_ENV,
    check_block_messages,
    fork_shares,
    run_parallel_workers,
    run_sequential_baseline,
)
from ldpcsim.partition import Partition, make_partition

from conftest import irregular_code, noisy_prior


@pytest.fixture(scope="module")
def small_code():
    return generate_regular(48, 3, 6, seed=2)


class TestScalarKernel:
    def test_matches_array_decoder_bitwise(self, small_code):
        # Same floats, not just same bits: messages after one block update.
        from ldpcsim.decoder import check_node_update_block, init_state

        rng = np.random.default_rng(0)
        prior = rng.normal(0, 2, 48)
        cfg = DecoderConfig()
        state = init_state(small_code, prior, cfg)
        state.check_msg = rng.normal(0, 1, small_code.edges)
        d = [
            float(state.total[v] - state.check_msg[e])
            for e, v in enumerate(small_code.edge_var)
        ]
        scalar = check_block_messages(
            d, small_code.row_degrees().tolist(), cfg.clamp, None
        )
        check_node_update_block(state, small_code, cfg)
        assert scalar.tobytes() == state.check_msg.tobytes()

    @pytest.mark.parametrize(
        "cfg",
        [
            DecoderConfig(max_iter=12, early_exit=False),
            DecoderConfig(max_iter=12, early_exit=False, clamp=None),
            DecoderConfig(max_iter=12, early_exit=False, clamp=6.0),
            DecoderConfig(max_iter=12, early_exit=False, arithmetic=QFormat(8, 4)),
        ],
    )
    def test_full_trajectory_matches_array_decoder(self, cfg):
        # The worker mode's bit-exactness rests on the scalar kernel
        # producing the same float64 values as the array path at every
        # iteration, so run the live executors' master loop with the scalar
        # kernel in process on three blocks and compare whole trajectories.
        from ldpcsim.decoder import init_state
        from ldpcsim.parsim.workers import _master_decode
        from ldpcsim.partition import attach_edge_counts

        for seed in range(6):
            H = generate_regular(36, 3, 6, seed=seed)
            prior = np.random.default_rng(seed).normal(0, 3, 36)
            array = decode(H, prior, cfg, record_messages=True, keep_state=True)

            part = attach_edge_counts(make_partition(H.m, 3), H)
            degs = H.row_degrees().tolist()
            block_degs = [degs[lo:hi] for lo, hi in part.group_bounds]
            trace = []

            def exchange(blocks):
                msgs = [
                    check_block_messages(d.tolist(), bd, cfg.clamp, cfg.qformat)
                    for d, bd in zip(blocks, block_degs)
                ]
                trace.append(np.concatenate(msgs).tobytes())
                return msgs, 0.0

            state = init_state(H, prior, cfg)
            slices = list(zip(part.edge_bounds, part.edge_bounds[1:]))
            result, _ = _master_decode(H, state, cfg, slices, exchange, 1, processors=4)
            assert trace == [t.tobytes() for t in array.message_trace]
            assert state.total.tolist() == array.final_state.total.tolist()
            assert result.bits.tolist() == array.bits.tolist()


EQUIVALENCE_CONFIGS = [
    DecoderConfig(),
    DecoderConfig(clamp=None),
    DecoderConfig(arithmetic=QFormat(8, 4)),
]


@pytest.mark.parametrize("worst_case", [True, False])
@pytest.mark.parametrize("cfg", EQUIVALENCE_CONFIGS, ids=["clamp64", "noclamp", "q8.4"])
@pytest.mark.parametrize("slaves", [0, 1, 2, 3])
def test_live_executors_match_decode(fixture252, slaves, cfg, worst_case):
    # Slave count 0 is the sequential baseline; both run one master loop.
    prior = noisy_prior(fixture252, ebno_db=2.0, seed=12)
    if slaves:
        result, report = run_parallel_workers(
            fixture252, prior, cfg, make_partition(252, slaves), reps=1,
            worst_case=worst_case,
        )
    else:
        result, report = run_sequential_baseline(
            fixture252, prior, cfg, reps=1, worst_case=worst_case
        )
    ref = decode(fixture252, prior, worst_case_config(cfg) if worst_case else cfg)
    assert np.array_equal(result.bits, ref.bits)
    assert result.bits.dtype == ref.bits.dtype
    assert result.converged == ref.converged
    assert result.iterations_used == ref.iterations_used == report.iterations
    assert (ref.iterations_used == 30) == worst_case
    assert report.processors == slaves + 1


def _same_decode(result, ref):
    assert np.array_equal(result.bits, ref.bits)
    assert result.converged == ref.converged
    assert result.iterations_used == ref.iterations_used


@pytest.mark.parametrize("seed", range(4))
def test_blocks_of_unequal_degree_match_decode(seed):
    # Three slave blocks of 5, 1 and 12 checks on rows of degree 2 to 7,
    # so the blocks carry unequal edge counts and unequal row lengths.
    H = irregular_code(18, 30, seed)
    assert len(set(H.row_degrees().tolist())) > 1
    part = Partition(check_bounds=(0, 5, 6, 18))
    prior = np.random.default_rng(300 + seed).normal(1.5, 2.0, H.n)
    for cfg in (DecoderConfig(clamp=None), DecoderConfig(clamp=2.0),
                DecoderConfig(arithmetic=QFormat(6, 2))):
        for worst_case in (True, False):
            ref = decode(H, prior, worst_case_config(cfg) if worst_case else cfg)
            live, _ = run_parallel_workers(H, prior, cfg, part, reps=1, worst_case=worst_case)
            _same_decode(live, ref)
            # The model prices the decode it is given and returns no bits.
            priced = simulate_parallel(H, ref, part, CostModel())
            assert priced.iterations == ref.iterations_used


@pytest.mark.parametrize("worst_case", [True, False])
@pytest.mark.parametrize("cfg", EQUIVALENCE_CONFIGS, ids=["clamp64", "noclamp", "q8.4"])
def test_baseline_matches_decode_on_negative_zero_priors(small_code, cfg, worst_case):
    # -0.0 and +0.0 priors give zero differences of both signs, whose
    # magnitude both kernels take as +0.0.
    prior = np.random.default_rng(4).normal(1.0, 2.0, small_code.n)
    prior[::3] = -0.0
    prior[1::7] = 0.0
    eff = worst_case_config(cfg) if worst_case else cfg
    ref = decode(small_code, prior, eff)
    result, _ = run_sequential_baseline(small_code, prior, cfg, reps=1, worst_case=worst_case)
    _same_decode(result, ref)


def nonzero_codeword(H, seed):
    """A random nonzero word in the null space of H over GF(2): H is
    row-reduced, the free bits are drawn and each pivot bit solved."""
    A = np.zeros((H.m, H.n), dtype=np.uint8)
    A[np.repeat(np.arange(H.m), H.row_degrees()), H.edge_var] = 1
    pivots = []
    row = 0
    for col in range(H.n):
        hits = np.flatnonzero(A[row:, col]) + row
        if len(hits) == 0:
            continue
        A[[row, hits[0]]] = A[[hits[0], row]]
        others = np.flatnonzero(A[:, col])
        others = others[others != row]
        A[others] ^= A[row]
        pivots.append(col)
        row += 1
        if row == H.m:
            break
    word = np.random.default_rng(seed).integers(0, 2, H.n).astype(np.uint8)
    word[pivots] = 0
    for r, col in enumerate(pivots):
        word[col] = np.count_nonzero(A[r] & word) % 2
    return word


@pytest.mark.parametrize("slaves", [0, 1, 2])
def test_nonzero_codeword_is_decoded(fixture252, slaves):
    # A reversed all-zero word is still a codeword; the reverse of this one
    # is not, so a syndrome check on the wrong bits cannot pass.
    word = nonzero_codeword(fixture252, seed=5)
    assert word.any() and syndrome_ok(fixture252, word)
    assert not syndrome_ok(fixture252, word[::-1])
    prior = noisy_prior(fixture252, ebno_db=4.0, seed=9, word=word)
    cfg = DecoderConfig()
    ref = decode(fixture252, prior, cfg)
    assert ref.converged and np.array_equal(ref.bits, word)
    if slaves:
        result, _ = run_parallel_workers(
            fixture252, prior, cfg, make_partition(252, slaves), reps=1, worst_case=False
        )
    else:
        result, _ = run_sequential_baseline(fixture252, prior, cfg, reps=1, worst_case=False)
    _same_decode(result, ref)


def _run(executor, H, prior):
    if executor == "baseline":
        return run_sequential_baseline(H, prior, DecoderConfig(), reps=1)
    return run_parallel_workers(H, prior, DecoderConfig(), make_partition(H.m, 2), reps=1)


@pytest.mark.parametrize("executor", ["baseline", "workers"])
class TestPriorChecks:
    # The live executors check their prior as `decode` does, before any
    # worker starts.
    @pytest.fixture(autouse=True)
    def no_workers(self, monkeypatch):
        import ldpcsim.parsim.workers as workers_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a worker was started for a bad prior")

        monkeypatch.setattr(workers_mod.mp, "get_context", refuse)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prior_raises(self, small_code, executor, bad):
        prior = np.full(small_code.n, bad)
        with pytest.raises(ValueError, match="finite"):
            _run(executor, small_code, prior)
        prior = noisy_prior(small_code, ebno_db=2.0, seed=1)
        prior[7] = bad
        with pytest.raises(ValueError, match="finite"):
            _run(executor, small_code, prior)

    @pytest.mark.parametrize("shape", [(2, 48), (1, 48), (), (47,)])
    def test_anything_but_one_word_raises(self, small_code, executor, shape):
        with pytest.raises(LengthMismatch):
            _run(executor, small_code, np.ones(shape))


class TestSequentialBaseline:
    def test_rejects_zero_reps(self, small_code):
        with pytest.raises(ValueError):
            run_sequential_baseline(
                small_code, noisy_prior(small_code, 2.0, 0), DecoderConfig(), reps=0
            )

    def test_bits_match_decode(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=7)
        cfg = DecoderConfig()
        result, report = run_sequential_baseline(
            fixture252, prior, cfg, reps=2, worst_case=True
        )
        ref = decode(fixture252, prior, worst_case_config(cfg))
        assert np.array_equal(result.bits, ref.bits)
        assert result.iterations_used == ref.iterations_used == report.iterations == 30
        assert report.processors == 1


class TestParallelWorkers:
    @pytest.mark.parametrize("slaves", [2, 3])
    def test_bits_match_decode(self, small_code, slaves):
        cfg = DecoderConfig()
        for seed in range(10):
            prior = noisy_prior(small_code, ebno_db=1.0, seed=seed)
            result, report = run_parallel_workers(
                small_code,
                prior,
                cfg,
                make_partition(small_code.m, slaves),
                reps=1,
                worst_case=True,
            )
            ref = decode(small_code, prior, worst_case_config(cfg))
            assert np.array_equal(result.bits, ref.bits)
            assert result.converged == ref.converged
            assert report.processors == slaves + 1

    def test_early_exit_mode_matches_decode(self, small_code):
        cfg = DecoderConfig()
        prior = noisy_prior(small_code, ebno_db=3.0, seed=3)
        result, report = run_parallel_workers(
            small_code, prior, cfg, make_partition(small_code.m, 2),
            reps=1, worst_case=False,
        )
        ref = decode(small_code, prior, cfg)
        assert np.array_equal(result.bits, ref.bits)
        assert result.iterations_used == ref.iterations_used

    def test_repetitions_do_not_change_result(self, small_code):
        cfg = DecoderConfig()
        prior = noisy_prior(small_code, ebno_db=2.0, seed=4)
        part = make_partition(small_code.m, 2)
        one, _ = run_parallel_workers(
            small_code, prior, cfg, part, reps=1, worst_case=True
        )
        many, _ = run_parallel_workers(
            small_code, prior, cfg, part, reps=100, worst_case=True
        )
        assert np.array_equal(one.bits, many.bits)
        assert one.iterations_used == many.iterations_used
        assert one.converged == many.converged

    def test_fixed_point_wire_stays_exact(self, fixture252):
        cfg = DecoderConfig(arithmetic=QFormat(8, 4))
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=8)
        result, _ = run_parallel_workers(
            fixture252, prior, cfg, make_partition(252, 3), reps=1, worst_case=True
        )
        ref = decode(fixture252, prior, worst_case_config(cfg))
        assert np.array_equal(result.bits, ref.bits)

    @pytest.mark.parametrize("slaves", [1, 2])
    def test_fixed_point_run_matches_decode(self, fixture252, slaves):
        cfg = DecoderConfig(arithmetic=QFormat(8, 4))
        prior = noisy_prior(fixture252, ebno_db=2.0, seed=9)
        result, _ = run_parallel_workers(
            fixture252, prior, cfg, make_partition(252, slaves), reps=1, worst_case=True
        )
        ref = decode(fixture252, prior, worst_case_config(cfg))
        assert np.array_equal(result.bits, ref.bits)
        assert result.converged == ref.converged
        assert result.iterations_used == ref.iterations_used == 30

    @pytest.mark.parametrize("slaves", [1, 2])
    def test_wire_codec_called_once_per_block_per_direction(
        self, small_code, monkeypatch, slaves
    ):
        # The benchmark's tracer wraps exactly these module globals and
        # counts one frame per call, so the master must go through them
        # once per slave block per direction per iteration.
        import ldpcsim.parsim.workers as workers_mod

        calls = {"pack_llrs": 0, "unpack_llrs": 0}

        def counting(name):
            original = getattr(workers_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(workers_mod, name, counting(name))
        reps = 2
        prior = noisy_prior(small_code, ebno_db=2.0, seed=10)
        result, _ = run_parallel_workers(
            small_code, prior, DecoderConfig(), make_partition(small_code.m, slaves),
            reps=reps, worst_case=True,
        )
        assert result.iterations_used == 30
        assert calls == {
            "pack_llrs": slaves * 30 * reps,
            "unpack_llrs": slaves * 30 * reps,
        }

    def test_worker_cap_enforced(self, small_code, monkeypatch):
        monkeypatch.setenv(WORKER_CAP_ENV, "2")
        prior = noisy_prior(small_code, ebno_db=2.0, seed=1)
        with pytest.raises(WorkerError):
            run_parallel_workers(
                small_code,
                prior,
                DecoderConfig(),
                make_partition(small_code.m, 3),
                reps=1,
            )

    def test_invalid_worker_cap(self, small_code, monkeypatch):
        monkeypatch.setenv(WORKER_CAP_ENV, "many")
        prior = noisy_prior(small_code, ebno_db=2.0, seed=1)
        with pytest.raises(ConfigurationError):
            run_parallel_workers(
                small_code,
                prior,
                DecoderConfig(),
                make_partition(small_code.m, 2),
                reps=1,
            )

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_worker_cap_below_one_is_rejected(self, small_code, monkeypatch, cap):
        monkeypatch.setenv(WORKER_CAP_ENV, cap)
        prior = noisy_prior(small_code, ebno_db=2.0, seed=1)
        with pytest.raises(ConfigurationError, match=f"{WORKER_CAP_ENV}=.* is below 1"):
            run_parallel_workers(
                small_code, prior, DecoderConfig(), make_partition(small_code.m, 1), reps=1
            )

    def test_worker_failure_surfaces(self, small_code, monkeypatch):
        # Children fork after the patch, so the crash happens slave-side.
        import ldpcsim.parsim.workers as workers_mod

        def boom(*args, **kwargs):
            raise RuntimeError("injected fault")

        original = workers_mod.check_block_messages
        monkeypatch.setattr(workers_mod, "check_block_messages", boom)
        prior = noisy_prior(small_code, ebno_db=2.0, seed=6)
        try:
            with pytest.raises(WorkerError):
                run_parallel_workers(
                    small_code,
                    prior,
                    DecoderConfig(),
                    make_partition(small_code.m, 2),
                    reps=1,
                )
        finally:
            monkeypatch.setattr(workers_mod, "check_block_messages", original)

    def test_slave_exit_raises_and_skips_the_scenario(self, small_code, monkeypatch):
        # A slave that dies mid-run is a WorkerError, so the threads-mode
        # sweep reports its scenarios as skipped rather than crashing.
        import ldpcsim.parsim.workers as workers_mod

        parent = os.getpid()
        original = workers_mod.check_block_messages

        def exit_in_slave(*args):
            if os.getpid() != parent:
                os._exit(3)
            return original(*args)

        monkeypatch.setattr(workers_mod, "check_block_messages", exit_in_slave)
        prior = noisy_prior(small_code, ebno_db=2.0, seed=6)
        with pytest.raises(WorkerError, match="exited"):
            run_parallel_workers(
                small_code, prior, DecoderConfig(), make_partition(small_code.m, 2), reps=1
            )
        assert mp.active_children() == []
        rows, reports = scale_rows(
            small_code, [1, 2, 3], "threads", prior, DecoderConfig(), CostModel(),
            worst_case=True, reps=1,
        )
        assert [r["status"] for r in rows] == ["ok", "skipped", "skipped"]
        assert all(r["reason"].startswith("WorkerError") for r in rows[1:])
        assert len(reports) == 1

    def test_one_failing_slave_stops_every_slave_at_once(self, small_code, monkeypatch):
        # Only the 5-row first slave raises; the other is left waiting for
        # its next block and must be stopped without a join timeout.
        import ldpcsim.parsim.workers as workers_mod

        original = workers_mod.check_block_messages

        def first_slave_fails(d, degs, clamp, qf):
            if len(degs) == 5:
                raise RuntimeError("injected fault")
            return original(d, degs, clamp, qf)

        monkeypatch.setattr(workers_mod, "check_block_messages", first_slave_fails)
        prior = noisy_prior(small_code, ebno_db=2.0, seed=6)
        t0 = time.perf_counter()
        with pytest.raises(WorkerError, match="RuntimeError: injected fault"):
            run_parallel_workers(
                small_code, prior, DecoderConfig(), Partition(check_bounds=(0, 5, 24)), reps=1
            )
        assert time.perf_counter() - t0 < 2.0

    def test_breakdown_sums_to_total_wall(self, small_code):
        # Both executors report seconds summed over the reps.
        prior = noisy_prior(small_code, ebno_db=2.0, seed=5)
        _, parallel = run_parallel_workers(
            small_code, prior, DecoderConfig(), make_partition(small_code.m, 2),
            reps=3, worst_case=True,
        )
        _, baseline = run_sequential_baseline(
            small_code, prior, DecoderConfig(), reps=3, worst_case=True
        )
        for report in (parallel, baseline):
            assert set(report.breakdown) == {"compute_master", "messaging", "other"}
            assert sum(report.breakdown.values()) == pytest.approx(
                report.extras["total_seconds"], rel=1e-9
            )
            assert report.breakdown["compute_master"] > 0
            assert report.extras["repetitions"] == 3.0
        assert parallel.breakdown["messaging"] > 0
        assert baseline.breakdown["messaging"] == 0.0


def test_send_without_acknowledgement_times_out(monkeypatch):
    # The far end takes the frame but never acknowledges it, like a worker
    # that is alive but stuck; no worker process is started.
    import multiprocessing as mp

    import ldpcsim.parsim.workers as workers_mod

    monkeypatch.setattr(workers_mod, "_WAIT_SECONDS", 0.2)
    near, far = mp.Pipe(duplex=True)
    try:
        with pytest.raises(WorkerError, match="acknowledgement"):
            workers_mod._Channel(near).send(b"D1234")
        assert far.recv_bytes() == b"D1234"
    finally:
        near.close()
        far.close()


def _rank_and_pid(rank, procs):
    return rank, procs, os.getpid()


class TestForkShares:
    def test_one_process_forks_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process was started for one share")

        monkeypatch.setattr(mp, "get_context", refuse)
        assert fork_shares(_rank_and_pid, 1) == [(0, 1, os.getpid())]

    @pytest.mark.parametrize("procs", [2, 3])
    def test_results_come_back_in_rank_order(self, procs):
        results = fork_shares(_rank_and_pid, procs)
        assert [(rank, p) for rank, p, _ in results] == [(r, procs) for r in range(procs)]
        assert results[0][2] == os.getpid()
        assert len({pid for _, _, pid in results}) == procs

    def test_share_past_the_wait_times_out(self, monkeypatch):
        import ldpcsim.parsim.workers as workers_mod

        monkeypatch.setattr(workers_mod, "_WAIT_SECONDS", 0.2)

        def slow_child(rank, procs):
            if rank:
                time.sleep(30)
            return rank

        t0 = time.perf_counter()
        with pytest.raises(WorkerError, match="timed out"):
            fork_shares(slow_child, 2)
        assert time.perf_counter() - t0 < 5.0
