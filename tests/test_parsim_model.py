import math
from dataclasses import replace

import numpy as np
import pytest

from ldpcsim.cli import scale_rows
from ldpcsim.decoder import DecoderConfig, decode
from ldpcsim.errors import DegenerateCostModel, LengthMismatch, NoFeasiblePoint
from ldpcsim.parsim.model import (
    DEFAULT_SPEEDUP_TARGETS,
    CalibrationWarning,
    CostModel,
    MeshPlacement,
    calibrate,
    modeled_speedups,
    plot_csv,
    simulate_parallel,
    simulate_sequential,
)
from ldpcsim.partition import make_partition

from conftest import noisy_prior

UNIT_COMPUTE = CostModel(
    cycles_per_check_edge=1.0,
    cycles_per_var_edge=1.0,
    cycles_per_syndrome_edge=1.0,
    cycles_packet_fixed=0.0,
    cycles_per_hop=0.0,
    cycles_iter_fixed=0.0,
)

SCENARIO_SLAVES = [2, 3, 4, 6, 7, 9]


class TestMeshPlacement:
    def test_cells_distinct_and_hops_positive(self):
        for procs in [2, 3, 4, 5, 7, 8, 10, 13]:
            pl = MeshPlacement.star(procs)
            cells = {pl.master_xy, *pl.slave_xy}
            assert len(cells) == procs
            assert all(h >= 1 for h in pl.hops)
            assert len(pl.slave_xy) == procs - 1

    def test_even_grid_center_tie_break_is_lower_left(self):
        pl = MeshPlacement.star(4)  # 2x2 grid
        assert pl.master_xy == (0, 0)
        pl = MeshPlacement.star(5)  # 3x2 grid
        assert pl.master_xy == (1, 0)

    def test_needs_a_slave(self):
        with pytest.raises(ValueError):
            MeshPlacement.star(1)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            MeshPlacement(1, 1, (0, 0), ((0, 0),), (1,))
        with pytest.raises(ValueError):
            MeshPlacement(2, 1, (0, 0), ((1, 0),), (0,))

    def test_from_spec_round_trip(self):
        pl = MeshPlacement.from_spec(5, "3x2@1,0")
        assert pl == MeshPlacement.star(5)
        corner = MeshPlacement.from_spec(5, "3x2@0,0")
        assert corner.master_xy == (0, 0)
        assert sum(corner.hops) > sum(pl.hops)

    def test_from_spec_validation(self):
        with pytest.raises(ValueError):
            MeshPlacement.from_spec(5, "2x2@0,0")  # grid too small
        with pytest.raises(ValueError):
            MeshPlacement.from_spec(5, "nonsense")


class TestSequentialAccounting:
    def test_unit_cost_closed_form(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=0)
        _, report = simulate_sequential(
            fixture252, prior, DecoderConfig(), UNIT_COMPUTE, worst_case=True
        )
        assert report.iterations == 30
        assert report.modeled_cycles == 30 * (1512 + 1512 + 1512) == 136080

    def test_zero_cost_model_is_degenerate(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=0)
        zero = CostModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DegenerateCostModel):
            simulate_sequential(fixture252, prior, DecoderConfig(), zero)

    def test_decode_identity_contract(self, fixture252):
        cfg = DecoderConfig()
        for seed in range(50):
            prior = noisy_prior(fixture252, ebno_db=2.0, seed=seed)
            direct = decode(fixture252, prior, cfg)
            via_sim, report = simulate_sequential(fixture252, prior, cfg, CostModel())
            assert np.array_equal(direct.bits, via_sim.bits)
            assert direct.iterations_used == via_sim.iterations_used == report.iterations


    def test_refuses_a_batch(self, fixture252):
        # The report prices one word: a (B, n) prior is an error, not B words
        # priced as one.
        prior = np.stack([noisy_prior(fixture252, ebno_db=3.0, seed=s) for s in (0, 1)])
        with pytest.raises(LengthMismatch):
            simulate_sequential(fixture252, prior, DecoderConfig(), CostModel())


class TestParallelSimulation:
    @pytest.mark.parametrize("words", [2, 504])
    def test_refuses_a_batch(self, fixture252, words):
        # words == n would otherwise pass the codeword shape check.
        prior = np.ones((words, 504))
        with pytest.raises(LengthMismatch):
            simulate_parallel(
                fixture252, prior, DecoderConfig(), make_partition(252, 2), CostModel()
            )

    def test_bit_exact_equivalence_small_sweep(self, fixture252):
        cfg = DecoderConfig()
        cm = CostModel()
        for seed in range(5):
            prior = noisy_prior(fixture252, ebno_db=2.0, seed=seed)
            seq_res, seq_rep = simulate_sequential(fixture252, prior, cfg, cm)
            for slaves in SCENARIO_SLAVES:
                par_res, _ = simulate_parallel(
                    fixture252, prior, cfg, make_partition(252, slaves), cm
                )
                assert np.array_equal(par_res.bits, seq_res.bits)
                assert par_res.iterations_used == seq_res.iterations_used
                assert par_res.converged == seq_res.converged

    def test_single_slave_is_pure_overhead(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=1)
        cfg = DecoderConfig()
        cm = CostModel()
        _, seq = simulate_sequential(fixture252, prior, cfg, cm, worst_case=True)
        _, par = simulate_parallel(
            fixture252, prior, cfg, make_partition(252, 1), cm, worst_case=True
        )
        assert par.time_seconds >= seq.time_seconds

    def test_breakdown_sums_exactly(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=2)
        for slaves in SCENARIO_SLAVES:
            _, rep = simulate_parallel(
                fixture252,
                prior,
                DecoderConfig(),
                make_partition(252, slaves),
                CostModel(),
                worst_case=True,
            )
            assert sum(rep.breakdown.values()) == rep.modeled_cycles

    def test_comm_cost_monotonicity(self, fixture252):
        base = CostModel()
        speed_at = []
        for factor in [0.5, 1.0, 2.0, 4.0]:
            cm = replace(
                base,
                cycles_packet_fixed=base.cycles_packet_fixed * factor,
                cycles_per_hop=base.cycles_per_hop * factor,
            )
            speed_at.append(modeled_speedups(fixture252, cm, [4])[5])
        assert speed_at == sorted(speed_at, reverse=True)

    def test_amdahl_bounds(self, fixture252):
        cm = CostModel()
        seq_iter = 1512 * (
            cm.cycles_per_check_edge
            + cm.cycles_per_var_edge
            + cm.cycles_per_syndrome_edge
        ) + cm.cycles_iter_fixed
        speedups = modeled_speedups(fixture252, cm, SCENARIO_SLAVES)
        for slaves in SCENARIO_SLAVES:
            master = (
                1512 * (cm.cycles_per_var_edge + cm.cycles_per_syndrome_edge)
                + cm.cycles_iter_fixed
            )
            max_slave = (1512 / slaves) * cm.cycles_per_check_edge
            assert speedups[slaves + 1] <= seq_iter / (master + max_slave) + 1e-12
            assert speedups[slaves + 1] <= slaves + 1

    def test_initial_drop_with_defaults(self, fixture252):
        speedups = modeled_speedups(fixture252, CostModel(), SCENARIO_SLAVES)
        assert speedups[3] < 1.0

    def test_default_peak_shape(self, fixture252):
        speedups = modeled_speedups(fixture252, CostModel(), SCENARIO_SLAVES)
        peak_procs = max(speedups, key=lambda k: speedups[k])
        assert peak_procs in (5, 7)
        assert 1.1 <= speedups[peak_procs] <= 1.4
        assert speedups[10] < speedups[peak_procs]

    def test_custom_placement_changes_time_not_bits(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=2.0, seed=4)
        cfg = DecoderConfig()
        cm = CostModel()
        part = make_partition(252, 4)
        res_near, rep_near = simulate_parallel(
            fixture252, prior, cfg, part, cm,
            placement=MeshPlacement.from_spec(5, "3x2@1,0"),
        )
        res_far, rep_far = simulate_parallel(
            fixture252, prior, cfg, part, cm,
            placement=MeshPlacement.from_spec(5, "5x1@0,0"),
        )
        assert np.array_equal(res_near.bits, res_far.bits)
        assert rep_far.time_seconds > rep_near.time_seconds

    def test_placement_slave_count_must_match(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=2.0, seed=4)
        with pytest.raises(ValueError):
            simulate_parallel(
                fixture252, prior, DecoderConfig(), make_partition(252, 4),
                CostModel(), placement=MeshPlacement.star(3),
            )

    def test_scale_rows_reports(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=3)
        _, reports = scale_rows(
            fixture252, [s + 1 for s in SCENARIO_SLAVES], "costmodel", prior,
            DecoderConfig(), CostModel(), worst_case=True, reps=1,
        )
        assert [r.processors for r in reports] == [1, 3, 4, 5, 7, 8, 10]
        assert reports[0].speedup is None
        assert all(r.iterations == 30 for r in reports)
        for rep in reports[1:]:
            assert rep.speedup == pytest.approx(
                reports[0].time_seconds / rep.time_seconds
            )

    def test_plot_csv_shape(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=3)
        _, reports = scale_rows(
            fixture252, [3, 5], "costmodel", prior, DecoderConfig(), CostModel(),
            worst_case=True, reps=1,
        )
        lines = plot_csv(reports).strip().splitlines()
        assert lines[0] == "nS,Par,Seq"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == first[2]
        with pytest.raises(ValueError):
            plot_csv(reports[1:])  # baseline row missing


class TestCalibrate:
    def test_reaches_reference_targets(self, fixture252):
        fitted = calibrate(CostModel(), DEFAULT_SPEEDUP_TARGETS, fixture252)
        speedups = modeled_speedups(fixture252, fitted, SCENARIO_SLAVES)
        for procs, target in DEFAULT_SPEEDUP_TARGETS.items():
            assert abs(speedups[procs] - target) <= 0.10

    def test_fitted_point_pinned(self, fixture252):
        fitted = calibrate(CostModel(), DEFAULT_SPEEDUP_TARGETS, fixture252)
        point = (fitted.cycles_packet_fixed, fitted.cycles_per_hop, fitted.cycles_iter_fixed)
        assert point == (2859.75, 0.0, 3255.0)

    def test_idempotent(self, fixture252):
        once = calibrate(CostModel(), DEFAULT_SPEEDUP_TARGETS, fixture252)
        twice = calibrate(once, DEFAULT_SPEEDUP_TARGETS, fixture252)
        assert twice == once

    def test_unreachable_targets_hit_comm_free_boundary(self, fixture252):
        high = {procs: 5.0 for procs in DEFAULT_SPEEDUP_TARGETS}
        with pytest.warns(CalibrationWarning):
            with pytest.raises(NoFeasiblePoint):
                calibrate(CostModel(), high, fixture252)

    def test_flat_targets_pull_speedups_flat(self, fixture252):
        flat = {procs: 1.0 for procs in DEFAULT_SPEEDUP_TARGETS}
        fitted = calibrate(CostModel(), flat, fixture252, tolerance=0.2)
        speedups = modeled_speedups(fixture252, fitted, SCENARIO_SLAVES)
        assert all(abs(v - 1.0) <= 0.2 for v in speedups.values())


def test_throughput_definition(fixture252):
    prior = noisy_prior(fixture252, ebno_db=3.0, seed=4)
    _, rep = simulate_sequential(
        fixture252, prior, DecoderConfig(), CostModel(), worst_case=True
    )
    assert rep.throughput_kbps == pytest.approx(
        504 / rep.time_seconds / 1000.0, rel=1e-12
    )
    assert math.isclose(rep.time_seconds, rep.modeled_cycles / 100e6)
