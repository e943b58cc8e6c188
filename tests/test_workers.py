import numpy as np
import pytest

from ldpcsim.code import generate_regular
from ldpcsim.decoder import DecoderConfig, QFormat, decode, worst_case_config
from ldpcsim.errors import WorkerError
from ldpcsim.parsim.workers import (
    WORKER_CAP_ENV,
    check_block_messages,
    run_parallel_workers,
    run_sequential_baseline,
)
from ldpcsim.partition import make_partition

from conftest import noisy_prior


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
        assert scalar == state.check_msg.tolist()

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
        # iteration, so compare totals exactly over whole trajectories.
        from ldpcsim.code import generate_regular
        from ldpcsim.parsim.workers import _Graph, _scalar_iteration_tail

        for seed in range(6):
            H = generate_regular(36, 3, 6, seed=seed)
            prior = np.random.default_rng(seed).normal(0, 3, 36)
            array = decode(H, prior, cfg, record_messages=True, keep_state=True)

            g = _Graph.of(H)
            clamp, qf = cfg.clamp, cfg.qformat
            pr = [float(x) for x in cfg.saturate(prior)]
            total = list(pr)
            msg = [0.0] * H.edges
            for trace in array.message_trace:
                d = [total[v] - msg[e] for e, v in enumerate(g.edge_var)]
                msg = check_block_messages(d, g.row_degs, clamp, qf)
                assert msg == trace.tolist()
                total, bits, _ = _scalar_iteration_tail(g, pr, msg, clamp, qf)
            assert total == array.final_state.total.tolist()
            assert bits == array.bits.tolist()


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
        with pytest.raises(WorkerError):
            run_parallel_workers(
                small_code,
                prior,
                DecoderConfig(),
                make_partition(small_code.m, 2),
                reps=1,
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

    def test_breakdown_sums_to_total_wall(self, small_code):
        prior = noisy_prior(small_code, ebno_db=2.0, seed=5)
        _, report = run_parallel_workers(
            small_code, prior, DecoderConfig(), make_partition(small_code.m, 2),
            reps=3, worst_case=True,
        )
        assert sum(report.breakdown.values()) == pytest.approx(
            report.extras["total_seconds"], rel=1e-9
        )


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
