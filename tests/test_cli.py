import json
import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from ldpcsim.channel import ChannelConfig, llr_init, modulate, transmit
from ldpcsim.cli import (
    BER_BATCH,
    ber_batch_width,
    ber_sweep,
    main,
    scale_rows,
    uncoded_bpsk_ber,
)
from ldpcsim.code import CodeInfo, ParityCheckMatrix, generate_regular
from ldpcsim.decoder import DecoderConfig, decode
from ldpcsim.errors import ConfigurationError, WorkerError
from ldpcsim.parsim import WORKER_CAP_ENV, CostModel
from ldpcsim.code import load_alist

from conftest import DATA

SRC = str(Path(__file__).parent.parent / "src")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ldpcsim", "gen", "--n", "6", "--wc", "2", "--wr", "4"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("6 3\n")


@pytest.fixture(scope="module")
def fixture_alist(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "code_252x504.alist"
    assert main(["gen", "--n", "504", "--wc", "3", "--wr", "6",
                 "--seed", "1", "--out", str(path)]) == 0
    return path


class TestGen:
    def test_writes_requested_dimensions(self, fixture_alist):
        H = load_alist(fixture_alist.read_text())
        assert (H.m, H.n) == (252, 504)

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.alist"
        b = tmp_path / "b.alist"
        for out in (a, b):
            assert main(["gen", "--n", "24", "--wc", "3", "--wr", "6",
                         "--seed", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_exits_2(self, capsys):
        assert main(["gen", "--n", "5", "--wc", "3", "--wr", "4"]) == 2
        assert "error" in capsys.readouterr().err


class TestDecode:
    def test_high_snr_converges(self, fixture_alist, capsys):
        rc = main(["decode", "--matrix", str(fixture_alist),
                   "--ebno", "6", "--seed", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["n"] == 504
        assert set(payload["bits_hex"]) == {"0"}

    def test_llr_file_input(self, hamming74, tmp_path, capsys):
        llr = tmp_path / "llrs.txt"
        llr.write_text("\n".join(["8.0"] * 7) + "\n")
        rc = main(["decode", "--matrix", str(DATA / "hamming_4x7.alist"),
                   "--llr-file", str(llr)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["iterations_used"] == 1

    def test_fixed_point_flag(self, fixture_alist, capsys):
        rc = main(["decode", "--matrix", str(fixture_alist), "--ebno", "5",
                   "--seed", "3", "--qformat", "8.4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True

    def test_forced_iteration_budget(self, fixture_alist, capsys):
        rc = main(["decode", "--matrix", str(fixture_alist), "--ebno", "2",
                   "--seed", "1", "--max-iter", "30", "--no-early-exit"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations_used"] == 30

    def test_deterministic_per_seed(self, fixture_alist, capsys):
        outputs = []
        for _ in range(2):
            assert main(["decode", "--matrix", str(fixture_alist),
                         "--ebno", "2", "--seed", "4"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_malformed_alist_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.alist"
        bad.write_text("3 3\n1 1\n")
        rc = main(["decode", "--matrix", str(bad), "--ebno", "3"])
        assert rc == 1
        assert "MalformedAlist" in capsys.readouterr().err

    def test_missing_matrix_exits_2(self):
        assert main(["decode", "--ebno", "3"]) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [(["--max-iter", "0"], "max_iter"), (["--qformat", "8.9"], "Q8.9")],
    )
    def test_invalid_decoder_flag_exits_2(self, flags, message, capsys):
        assert main(["decode", "--gen", "48", "3", "6", "--ebno", "3", *flags]) == 2
        assert message in capsys.readouterr().err


class TestBer:
    def test_min_bits_floor(self, fixture_alist):
        assert main(["ber", "--matrix", str(fixture_alist),
                     "--min-bits", "5000"]) == 2

    def test_curve_improves_with_snr(self, fixture_alist, capsys):
        rc = main(["ber", "--matrix", str(fixture_alist), "--ebno", "0,3",
                   "--min-bits", "10000", "--seed", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "ebno_db,bits,errors,ber,avg_iters,frame_errors"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        assert all(int(r[1]) >= 10000 for r in rows)
        assert float(rows[1][3]) < float(rows[0][3])
        # a word with errors has at least one: frames <= bit errors, <= words
        assert all(int(r[5]) <= min(int(r[2]), int(r[1]) // 504) for r in rows)
        assert int(rows[0][5]) > 0

    def test_uncoded_reference_value(self):
        # Q(sqrt(2*Eb/N0)) at 3 dB, from the closed form.
        assert uncoded_bpsk_ber(3.0) == pytest.approx(0.0228784, rel=1e-4)

    def test_deterministic_per_seed(self, fixture_alist, capsys):
        outputs = []
        for _ in range(2):
            assert main(["ber", "--matrix", str(fixture_alist), "--ebno", "2",
                         "--min-bits", "10000", "--seed", "9"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def ber_rows_one_word_at_a_time(H, ebno_list, min_bits, seed, cfg):
    """ber_sweep's rows as a loop decoding one word per `decode` call."""
    rows = []
    symbols = modulate(np.zeros(H.n, dtype=np.uint8))
    for idx, ebno in enumerate(ebno_list):
        ch = ChannelConfig(ebno_db=ebno, rate=CodeInfo.from_matrix(H).rate, seed=seed)
        rng = np.random.default_rng([seed, idx])
        bits = errors = frames = iters = words = 0
        while bits < min_bits:
            result = decode(H, llr_init(transmit(symbols, ch, rng=rng), ch), cfg)
            bits += H.n
            errors += int(result.bits.sum())
            frames += int(result.bits.any())
            iters += result.iterations_used
            words += 1
        rows.append({"ebno_db": ebno, "bits": bits, "errors": errors,
                     "ber": errors / bits, "avg_iters": iters / words,
                     "frame_errors": frames})
    return rows


class TestBerSweep:
    def test_stream_pinned_to_golden_rows(self, fixture252):
        # The rows bench/golden.json holds for seed 1: any change to the
        # rng stream, the batching or the decoder's arithmetic shows here.
        rows = ber_sweep(fixture252, [1.0, 2.0], 100_000, seed=1)
        assert [(r["bits"], r["errors"], r["avg_iters"]) for r in rows] == [
            (100296, 10479, 28.160804020100503),
            (100296, 1791, 15.291457286432161),
        ]

    @pytest.mark.parametrize("min_bits", [0, -504])
    def test_no_bits_requested_is_rejected(self, hamming74, min_bits):
        with pytest.raises(ValueError, match="min_bits"):
            ber_sweep(hamming74, [1.0], min_bits, seed=1)

    @pytest.mark.parametrize(
        "min_bits",
        [
            (2 * BER_BATCH + 1) * 504 - 7,  # ceil gives 2 full batches + 1 word
            2_000,  # 4 words: a single batch shorter than BER_BATCH
        ],
    )
    def test_batches_match_one_word_at_a_time(self, fixture252, monkeypatch, min_bits):
        # One process, so the counting decode sees every call.
        monkeypatch.setenv(WORKER_CAP_ENV, "1")
        cfg = DecoderConfig(max_iter=12)
        expected = ber_rows_one_word_at_a_time(fixture252, [1.5, 3.0], min_bits, 4, cfg)
        decoded = []

        def counting_decode(H, prior, cfg):
            decoded.append(len(prior))
            return decode(H, prior, cfg)

        monkeypatch.setattr("ldpcsim.cli.decode", counting_decode)
        rows = ber_sweep(fixture252, [1.5, 3.0], min_bits, 4, cfg)
        words = -(-min_bits // 504)
        assert rows == expected
        assert sum(decoded) == 2 * words
        assert max(decoded) <= BER_BATCH
        assert all(r["bits"] == words * 504 for r in rows)

    @pytest.mark.parametrize("m,degree,width", [
        (252, 6, BER_BATCH),  # the 504-bit (3,6) code's 1,512 slots
        (504, 6, 8),  # twice the slots, half the words
        (4032, 6, 1),  # 24,192 slots: one word at a time
        (10080, 6, 1),  # the 20160-bit (3,6) code
    ])
    def test_batch_width_scales_with_row_slots(self, m, degree, width):
        H = ParityCheckMatrix(
            [list(range(degree * c, degree * (c + 1))) for c in range(m)], degree * m
        )
        assert H.slots.var.size == m * degree
        assert ber_batch_width(H) == width

    def test_longer_code_decodes_narrower_batches(self, monkeypatch):
        monkeypatch.setenv(WORKER_CAP_ENV, "1")
        H = generate_regular(1008, 3, 6, seed=2)
        cfg = DecoderConfig(max_iter=8)
        expected = ber_rows_one_word_at_a_time(H, [2.5], 20 * 1008, 5, cfg)
        decoded = []

        def counting_decode(H, prior, cfg):
            decoded.append(len(prior))
            return decode(H, prior, cfg)

        monkeypatch.setattr("ldpcsim.cli.decode", counting_decode)
        assert ber_sweep(H, [2.5], 20 * 1008, 5, cfg) == expected
        assert decoded == [8, 8, 4]

    def test_parent_decodes_every_other_chunk_of_two(self, fixture252, monkeypatch):
        monkeypatch.setenv(WORKER_CAP_ENV, "2")
        H, ebno_list, seed = fixture252, [1.5, 3.0], 7
        words = 4 * BER_BATCH + 6  # chunks of 16, 16, 16, 16 and 6 words
        ch = [ChannelConfig(ebno_db=e, rate=CodeInfo.from_matrix(H).rate, seed=seed)
              for e in ebno_list]
        symbols = modulate(np.zeros(H.n, dtype=np.uint8))
        chunks = []
        for idx in range(len(ebno_list)):
            rng = np.random.default_rng([seed, idx])
            chunks.append([
                llr_init(transmit(np.broadcast_to(symbols, (min(BER_BATCH, words - f), H.n)),
                                  ch[idx], rng=rng), ch[idx])
                for f in range(0, words, BER_BATCH)
            ])
        decoded = []

        def recording_decode(H, prior, cfg):
            decoded.append(prior)  # the children record into their own copies
            return decode(H, prior, cfg)

        monkeypatch.setattr("ldpcsim.cli.decode", recording_decode)
        ber_sweep(H, ebno_list, words * H.n, seed, DecoderConfig(max_iter=5))
        expected = [c for point in chunks for c in point[::2]]
        assert len(decoded) == len(expected) == 6
        assert all(np.array_equal(a, b) for a, b in zip(decoded, expected))

    @pytest.mark.parametrize("failure", ["raise", "exit"])
    def test_child_failure_raises_and_leaves_no_process(
        self, fixture252, monkeypatch, failure
    ):
        monkeypatch.setenv(WORKER_CAP_ENV, "2")
        # A hang would time out here with another message.
        monkeypatch.setattr("ldpcsim.parsim.workers._WAIT_SECONDS", 30.0)
        parent = os.getpid()

        def failing_decode(H, prior, cfg):
            if os.getpid() != parent:
                if failure == "exit":
                    os._exit(3)
                raise RuntimeError("chunk decode failed in a child")
            return decode(H, prior, cfg)

        monkeypatch.setattr("ldpcsim.cli.decode", failing_decode)
        message = ("RuntimeError: chunk decode failed in a child" if failure == "raise"
                   else "exited without its share")
        with pytest.raises(WorkerError, match=message):
            ber_sweep(fixture252, [2.0], 3 * BER_BATCH * 504, 1)
        assert mp.active_children() == []
        monkeypatch.setattr("ldpcsim.cli.decode", decode)
        ber_sweep(fixture252, [2.0], 3 * BER_BATCH * 504, 1)
        assert mp.active_children() == []

    @pytest.mark.parametrize("cap", ["0", "-2"])
    def test_process_count_below_one_is_rejected(self, hamming74, monkeypatch, cap):
        monkeypatch.setenv(WORKER_CAP_ENV, cap)
        with pytest.raises(ConfigurationError, match=f"{WORKER_CAP_ENV}=.* is below 1"):
            ber_sweep(hamming74, [1.0], 7, seed=1)


@pytest.fixture(scope="module")
def code48():
    return generate_regular(48, 3, 6, seed=1)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    ebno_list=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3),
    chunks=st.integers(1, 5),
    last_bits=st.integers(1, BER_BATCH * 48),
)
def test_rows_do_not_depend_on_process_count(code48, seed, ebno_list, chunks, last_bits):
    # min_bits drawn as whole 16-word chunks of the 48-bit code plus a
    # last chunk, so 2 and 3 processes split most examples.
    min_bits = (chunks - 1) * BER_BATCH * 48 + last_bits
    cfg = DecoderConfig(max_iter=10)
    expected = ber_rows_one_word_at_a_time(code48, ebno_list, min_bits, seed, cfg)
    for procs in ("1", "2", "3"):
        with mock.patch.dict(os.environ, {WORKER_CAP_ENV: procs}):
            assert ber_sweep(code48, ebno_list, min_bits, seed, cfg) == expected
    assert mp.active_children() == []


class TestScale:
    def test_default_costmodel_sweep(self, fixture_alist, capsys):
        rc = main(["scale", "--matrix", str(fixture_alist), "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "scenario,processors,throughput_kbps,speedup,status,reason"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 7
        assert rows[0][3] == "-"
        speedups = {int(r[1]): float(r[3]) for r in rows[1:]}
        assert max(speedups, key=lambda k: speedups[k]) == 5

    def test_skipped_scenario_reason(self, fixture_alist, capsys):
        rc = main(["scale", "--matrix", str(fixture_alist),
                   "--processors", "6", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[4] == "skipped"
        assert "NotDivisible" in row[5]

    def test_single_processor_row_only(self, fixture_alist, capsys):
        rc = main(["scale", "--matrix", str(fixture_alist),
                   "--processors", "1", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[3] == "-"

    def test_deterministic_output(self, fixture_alist, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["scale", "--matrix", str(fixture_alist),
                         "--seed", "1", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_no_worst_case_allows_early_exit(self, fixture_alist, capsys):
        rc = main(["scale", "--matrix", str(fixture_alist), "--seed", "1",
                   "--processors", "1,5", "--no-worst-case", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["worst_case"] is False
        assert all(rep["iterations"] < 30 for rep in payload["reports"])

    def test_json_format_and_plot_out(self, fixture_alist, tmp_path, capsys):
        plot = tmp_path / "plot.csv"
        rc = main(["scale", "--matrix", str(fixture_alist), "--seed", "1",
                   "--format", "json", "--plot-out", str(plot)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["worst_case"] is True
        assert len(payload["rows"]) == 7
        assert all(rep["iterations"] == 30 for rep in payload["reports"])
        plot_lines = plot.read_text().strip().splitlines()
        assert plot_lines[0] == "nS,Par,Seq"
        assert len(plot_lines) == 8

    def test_cost_config_overrides(self, fixture_alist, tmp_path, capsys):
        cfg = tmp_path / "cm.cfg"
        cfg.write_text("cycles_packet_fixed = 0\ncycles_per_hop = 0\n")
        rc = main(["scale", "--matrix", str(fixture_alist), "--seed", "1",
                   "--cost-config", str(cfg)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        speedups = {int(r[1]): float(r[3])
                    for r in (line.split(",") for line in lines[1:])
                    if r[3] not in ("-", "")}
        # comm-free model: monotone gain, no initial dip
        assert speedups[3] > 1.0

    def test_costmodel_sweep_decodes_once(self, monkeypatch):
        # Every scenario prices the one decode run; a skipped scenario
        # (4 slaves do not divide 18 checks) prices nothing.  A decode is
        # counted under either name the sweep could reach it by.
        import ldpcsim.cli as cli_mod
        import ldpcsim.parsim.model as model_mod

        calls = {"decode": 0, "simulate_sequential": 0, "simulate_parallel": 0}
        for module, name in [(cli_mod, "decode"), (model_mod, "decode"),
                             (cli_mod, "simulate_sequential"),
                             (cli_mod, "simulate_parallel")]:
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        H = generate_regular(36, 3, 6, seed=1)
        prior = np.random.default_rng(1).normal(2.0, 1.0, H.n)
        rows, reports = scale_rows(H, [1, 3, 4, 5, 7], "costmodel", prior,
                                   DecoderConfig(), CostModel(), True, 1)
        assert calls == {"decode": 1, "simulate_sequential": 1, "simulate_parallel": 3}
        assert [r["status"] for r in rows] == ["ok", "ok", "ok", "skipped", "ok"]
        assert all(rep.iterations == 30 for rep in reports)

    def test_unknown_mode_raises_before_any_executor(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an executor ran")

        for name in ("decode", "simulate_sequential", "simulate_parallel",
                     "run_sequential_baseline", "run_parallel_workers"):
            monkeypatch.setattr(f"ldpcsim.cli.{name}", never)
        H = generate_regular(24, 3, 6, seed=1)
        with pytest.raises(ValueError, match="costmodel") as info:
            scale_rows(H, [1, 3], "costmodle", np.zeros(H.n), DecoderConfig(),
                       CostModel(), True, 1)
        assert "threads" in str(info.value)

    @pytest.mark.parametrize("line", ["cycles_per_var_edge = nan", "clock_hz = nan",
                                      "cycles_per_hop = inf"])
    def test_non_finite_cost_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        rc = main(["scale", "--gen", "48", "3", "6", "--seed", "1",
                   "--processors", "1,3", "--cost-config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert line.split(" =")[0] in captured.err
        assert captured.out == ""

    def test_unknown_cost_key_exits_2(self, fixture_alist, tmp_path):
        cfg = tmp_path / "cm.cfg"
        cfg.write_text("warp_factor = 9\n")
        assert main(["scale", "--matrix", str(fixture_alist),
                     "--cost-config", str(cfg)]) == 2

    def test_calibrate_flag_with_config_targets(self, fixture_alist, tmp_path, capsys):
        cfg = tmp_path / "cm.cfg"
        cfg.write_text(
            "target_3 = 0.97\ntarget_4 = 1.12\ntarget_5 = 1.25\n"
            "target_7 = 1.24\ntarget_8 = 1.24\ntarget_10 = 1.22\n"
        )
        rc = main(["scale", "--matrix", str(fixture_alist), "--seed", "1",
                   "--cost-config", str(cfg), "--calibrate"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        speedups = {int(r[1]): float(r[3])
                    for r in (line.split(",") for line in lines[1:])
                    if r[3] not in ("-", "")}
        for procs, target in [(3, 0.97), (4, 1.12), (5, 1.25),
                              (7, 1.24), (8, 1.24), (10, 1.22)]:
            assert abs(speedups[procs] - target) <= 0.10

    def test_calibrate_zero_compute_costs_exits_1(self, fixture_alist, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            "cycles_per_check_edge = 0\ncycles_per_var_edge = 0\n"
            "cycles_per_syndrome_edge = 0\n"
        )
        rc = main(["scale", "--matrix", str(fixture_alist), "--seed", "1",
                   "--cost-config", str(cfg), "--calibrate"])
        assert rc == 1
        assert "DegenerateCostModel" in capsys.readouterr().err

    def test_placement_override_changes_model(self, fixture_alist, tmp_path, capsys):
        def speedup_at_5(config_text):
            cfg = tmp_path / "cm.cfg"
            cfg.write_text(config_text)
            assert main(["scale", "--matrix", str(fixture_alist), "--seed", "1",
                         "--processors", "5", "--cost-config", str(cfg)]) == 0
            row = capsys.readouterr().out.strip().splitlines()[1].split(",")
            return float(row[3])

        near = speedup_at_5("placement_5 = 3x2@1,0\n")
        far = speedup_at_5("placement_5 = 5x1@0,0\ncycles_per_hop = 600\n")
        assert far < near

    def test_threads_mode_small(self, capsys):
        rc = main(["scale", "--gen", "48", "3", "6", "--seed", "2",
                   "--processors", "1,3", "--mode", "threads", "--reps", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.split(",")[4] == "ok" for line in lines[1:])

    def test_threads_mode_honors_worker_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("LDPC_PARSIM_THREADS", "1")
        rc = main(["scale", "--gen", "48", "3", "6", "--seed", "2",
                   "--processors", "3", "--mode", "threads", "--reps", "1"])
        assert rc == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert row[4] == "skipped"
        assert "WorkerError" in row[5]


@pytest.mark.parametrize("cap", ["many", "0"])
@pytest.mark.parametrize("command", [
    ["ber", "--ebno", "1", "--min-bits", "10000"],
    ["scale", "--processors", "1,3", "--mode", "threads", "--reps", "1"],
])
def test_bad_worker_cap_exits_2(monkeypatch, capsys, cap, command):
    monkeypatch.setenv(WORKER_CAP_ENV, cap)
    assert main([*command, "--gen", "48", "3", "6", "--seed", "2"]) == 2
    assert f"{WORKER_CAP_ENV}={cap!r}" in capsys.readouterr().err
