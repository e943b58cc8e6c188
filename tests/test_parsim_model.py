import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcsim.cli import scale_rows
from ldpcsim.code import generate_regular
from ldpcsim.decoder import DecoderConfig, decode, worst_case_config
from ldpcsim.errors import DegenerateCostModel, LengthMismatch, NoFeasiblePoint, NotDivisible
from ldpcsim.parsim.model import (
    DEFAULT_SPEEDUP_TARGETS,
    CalibrationWarning,
    CostModel,
    MeshPlacement,
    _calibration_grid,
    _scenario_geometry,
    _squared_errors,
    _stacked,
    calibrate,
    modeled_speedups,
    parallel_iteration_cost,
    plot_csv,
    sequential_iteration_cycles,
    simulate_parallel,
    simulate_sequential,
)
from ldpcsim.partition import make_partition

from conftest import SMALL_REGULAR_PARAMS, noisy_prior

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


class TestCostModel:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_one_point_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="cycles_per_var_edge must be finite and >= 0"):
            CostModel(cycles_per_var_edge=value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_every_point_of_an_array_is_checked(self, bad):
        points = np.array([[0.0], [60.0], [bad], [120.0]])
        with pytest.raises(ValueError, match="cycles_per_hop"):
            CostModel(cycles_per_hop=points)
        CostModel(cycles_per_hop=np.where(np.isfinite(points) & (points >= 0), points, 1.0))

    @pytest.mark.parametrize("clock", [math.nan, math.inf, 0.0, -1.0])
    def test_clock_must_be_finite_and_positive(self, clock):
        with pytest.raises(ValueError, match="clock_hz must be finite and > 0"):
            CostModel(clock_hz=clock)

    def test_zero_costs_and_defaults_are_accepted(self):
        CostModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        CostModel()


class TestSequentialAccounting:
    def test_unit_cost_closed_form(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=0)
        run = decode(fixture252, prior, worst_case_config(DecoderConfig()))
        report = simulate_sequential(fixture252, run, UNIT_COMPUTE)
        assert report.iterations == 30
        assert report.modeled_cycles == 30 * (1512 + 1512 + 1512) == 136080

    def test_zero_cost_model_is_degenerate(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=0)
        zero = CostModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        run = decode(fixture252, prior, DecoderConfig())
        with pytest.raises(DegenerateCostModel):
            simulate_sequential(fixture252, run, zero)

    def test_decode_identity_contract(self, fixture252):
        # The model prices the decode it is given and returns no bits: the
        # report's iteration count is the run's.
        cfg = DecoderConfig()
        for seed in range(50):
            prior = noisy_prior(fixture252, ebno_db=2.0, seed=seed)
            direct = decode(fixture252, prior, cfg)
            report = simulate_sequential(fixture252, direct, CostModel())
            assert report.iterations == direct.iterations_used

    def test_refuses_a_batch(self, fixture252):
        # The report prices one word: a (B, n) prior is an error, not B words
        # priced as one.
        prior = np.stack([noisy_prior(fixture252, ebno_db=3.0, seed=s) for s in (0, 1)])
        run = decode(fixture252, prior, DecoderConfig())
        with pytest.raises(LengthMismatch):
            simulate_sequential(fixture252, run, CostModel())


class TestParallelSimulation:
    @pytest.mark.parametrize("words", [2, 504])
    def test_refuses_a_batch(self, fixture252, words):
        # words == n would otherwise pass the codeword shape check.
        run = decode(fixture252, np.ones((words, 504)), DecoderConfig())
        with pytest.raises(LengthMismatch):
            simulate_parallel(fixture252, run, make_partition(252, 2), CostModel())

    def test_bit_exact_equivalence_small_sweep(self, fixture252):
        cfg = DecoderConfig()
        cm = CostModel()
        for seed in range(5):
            prior = noisy_prior(fixture252, ebno_db=2.0, seed=seed)
            run = decode(fixture252, prior, cfg)
            seq_rep = simulate_sequential(fixture252, run, cm)
            assert seq_rep.iterations == run.iterations_used
            for slaves in SCENARIO_SLAVES:
                par_rep = simulate_parallel(
                    fixture252, run, make_partition(252, slaves), cm
                )
                assert par_rep.iterations == run.iterations_used

    def test_single_slave_is_pure_overhead(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=1)
        cfg = DecoderConfig()
        cm = CostModel()
        run = decode(fixture252, prior, worst_case_config(cfg))
        seq = simulate_sequential(fixture252, run, cm)
        par = simulate_parallel(fixture252, run, make_partition(252, 1), cm)
        assert par.time_seconds >= seq.time_seconds

    def test_breakdown_sums_exactly(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=2)
        run = decode(fixture252, prior, worst_case_config(DecoderConfig()))
        for slaves in SCENARIO_SLAVES:
            rep = simulate_parallel(
                fixture252, run, make_partition(252, slaves), CostModel()
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

    @pytest.mark.parametrize("cm", [CostModel(), UNIT_COMPUTE,
                                    CostModel(cycles_packet_fixed=3255.0, cycles_per_hop=0.0)])
    def test_speedups_equal_one_scenario_at_a_time(self, fixture252, cm):
        # The one broadcast over every scenario prices each as its own
        # parallel_iteration_cost call does, bit for bit.
        H = fixture252
        seq = sequential_iteration_cycles(H.edges, cm)
        alone = {
            s + 1: seq / parallel_iteration_cost(
                H.edges, *_scenario_geometry(H, make_partition(H.m, s)), cm
            ).total
            for s in SCENARIO_SLAVES
        }
        speedups = modeled_speedups(H, cm, SCENARIO_SLAVES)
        assert list(speedups) == list(alone)
        got, want = (np.array(list(d.values())) for d in (speedups, alone))
        assert got.tobytes() == want.tobytes()
        assert modeled_speedups(H, cm, []) == {}

    def test_zero_cost_model_speedups_are_degenerate(self, fixture252):
        zero = CostModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DegenerateCostModel):
            modeled_speedups(fixture252, zero, SCENARIO_SLAVES)

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
        # The model returns no bits: both placements price the one run.
        run = decode(fixture252, prior, cfg)
        rep_near = simulate_parallel(
            fixture252, run, part, cm,
            placement=MeshPlacement.from_spec(5, "3x2@1,0"),
        )
        rep_far = simulate_parallel(
            fixture252, run, part, cm,
            placement=MeshPlacement.from_spec(5, "5x1@0,0"),
        )
        assert rep_near.iterations == rep_far.iterations == run.iterations_used
        assert rep_far.time_seconds > rep_near.time_seconds

    def test_placement_slave_count_must_match(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=2.0, seed=4)
        run = decode(fixture252, prior, DecoderConfig())
        with pytest.raises(ValueError):
            simulate_parallel(
                fixture252, run, make_partition(252, 4),
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


# The target sets the calibration tests fit: the reference curve, a flat
# curve and one no cost point reaches.
TARGET_SETS = {
    "reference": DEFAULT_SPEEDUP_TARGETS,
    "flat": {procs: 1.0 for procs in DEFAULT_SPEEDUP_TARGETS},
    "high": {procs: 5.0 for procs in DEFAULT_SPEEDUP_TARGETS},
}


def _oracle_iteration_total(edges, group_edges, packets, hops, cm):
    """The one-point iteration cost the broadcast kernel replaced, summed."""
    sends = [p * (cm.cycles_packet_fixed + h * cm.cycles_per_hop)
             for p, h in zip(packets, hops)]
    t = 0.0
    done = []
    for cost, e in zip(sends, group_edges):
        t += cost
        done.append(t + e * cm.cycles_per_check_edge)
    scatter = t
    stall = 0.0
    gather = 0.0
    for s, recv_cost in enumerate(sends):
        wait = max(0.0, done[s] - t)
        stall += wait
        gather += recv_cost
        t += wait + recv_cost
    master = (
        edges * (cm.cycles_per_var_edge + cm.cycles_per_syndrome_edge)
        + cm.cycles_iter_fixed
    )
    return scatter + stall + gather + master


def _oracle_error(edges, geometries, goal, cm, point):
    """One point's squared speedup error, point by point as calibrate did."""
    pf, hop, fixed = point
    at = replace(cm, cycles_packet_fixed=pf, cycles_per_hop=hop, cycles_iter_fixed=fixed)
    seq = sequential_iteration_cycles(edges, at)
    diff = np.array(
        [seq / _oracle_iteration_total(edges, *g, at) for g in geometries]
    ) - goal
    return float(diff @ diff)


def _oracle_fit(edges, geometries, goal, cm, points, grid_errors):
    """The point-by-point search: strict scan of the grid in loop order,
    then coordinate descent pricing one candidate at a time."""
    scale = cm.cycles_per_check_edge
    best = None
    best_err = np.inf
    for point, e in zip(points, grid_errors):
        if e < best_err - 1e-15:
            best_err = e
            best = point
    point = list(best)
    for step in [scale, scale / 4.0, scale / 16.0, scale / 64.0]:
        for _ in range(40):
            improved = False
            for axis in range(3):
                for delta in (step, -step):
                    cand = point.copy()
                    cand[axis] = max(0.0, cand[axis] + delta)
                    e = _oracle_error(edges, geometries, goal, cm, cand)
                    if e < best_err - 1e-15:
                        best_err = e
                        point = cand
                        improved = True
            if not improved:
                break
    return tuple(point)


@pytest.mark.parametrize("name", TARGET_SETS)
def test_broadcast_matches_point_by_point_oracle(fixture252, name):
    targets = TARGET_SETS[name]
    cm = CostModel()
    slave_counts = [procs - 1 for procs in sorted(targets)]
    goal = np.array([targets[s + 1] for s in slave_counts])
    geometries = [
        _scenario_geometry(fixture252, make_partition(252, s)) for s in slave_counts
    ]
    scale = cm.cycles_per_check_edge
    points = [
        [pf, hop, fx]
        for pf in np.linspace(0.0, 30.0 * scale, 31).tolist()
        for hop in np.linspace(0.0, 3.0 * scale, 7).tolist()
        for fx in np.linspace(0.0, 40.0 * scale, 11).tolist()
    ]
    grid = _calibration_grid(scale)
    assert grid.tolist() == points
    oracle = [_oracle_error(fixture252.edges, geometries, goal, cm, p) for p in points]
    broadcast = _squared_errors(fixture252.edges, _stacked(geometries), goal, cm, grid)
    assert broadcast.shape == (31 * 7 * 11,)
    assert broadcast.tolist() == oracle  # bit for bit, every grid point

    pf, hop, fixed = _oracle_fit(
        fixture252.edges, geometries, goal, cm, points, oracle
    )
    expected = replace(cm, cycles_packet_fixed=pf, cycles_per_hop=hop,
                       cycles_iter_fixed=fixed)
    # An infinite tolerance returns the high set's fit instead of raising.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CalibrationWarning)
        assert calibrate(cm, targets, fixture252, tolerance=math.inf) == expected


class TestCalibrate:
    def test_reaches_reference_targets(self, fixture252):
        fitted = calibrate(CostModel(), DEFAULT_SPEEDUP_TARGETS, fixture252)
        speedups = modeled_speedups(fixture252, fitted, SCENARIO_SLAVES)
        for procs, target in DEFAULT_SPEEDUP_TARGETS.items():
            assert abs(speedups[procs] - target) <= 0.10

    def test_fitted_point_pinned(self, fixture252):
        # 252 checks divide among every default target's slaves: no
        # target is skipped, and nothing warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error", CalibrationWarning)
            fitted = calibrate(CostModel(), DEFAULT_SPEEDUP_TARGETS, fixture252)
        point = (fitted.cycles_packet_fixed, fitted.cycles_per_hop, fitted.cycles_iter_fixed)
        assert point == (2859.75, 0.0, 3255.0)

    def test_targets_whose_slaves_do_not_divide_the_checks_are_skipped(self):
        # 48 checks: the targets of 8 and 10 processors (7 and 9 slaves)
        # are left out, and the fit is the fit of the other four alone.
        H = generate_regular(96, 3, 6, seed=1)
        with pytest.warns(CalibrationWarning, match=r"targets for 8, 10 processors"):
            fitted = calibrate(CostModel(), DEFAULT_SPEEDUP_TARGETS, H)
        point = (fitted.cycles_packet_fixed, fitted.cycles_per_hop, fitted.cycles_iter_fixed)
        assert point == (1418.25, 616.125, 17887.0)
        kept = {procs: DEFAULT_SPEEDUP_TARGETS[procs] for procs in (3, 4, 5, 7)}
        with warnings.catch_warnings():
            warnings.simplefilter("error", CalibrationWarning)
            assert calibrate(CostModel(), kept, H) == fitted

    def test_no_target_left_is_not_divisible(self):
        H = generate_regular(96, 3, 6, seed=1)
        with pytest.raises(NotDivisible):
            calibrate(CostModel(), {8: 1.24, 10: 1.22}, H)

    def test_idempotent(self, fixture252):
        once = calibrate(CostModel(), DEFAULT_SPEEDUP_TARGETS, fixture252)
        twice = calibrate(once, DEFAULT_SPEEDUP_TARGETS, fixture252)
        assert twice == once

    def test_unreachable_targets_hit_comm_free_boundary(self, fixture252):
        high = {procs: 5.0 for procs in DEFAULT_SPEEDUP_TARGETS}
        with pytest.warns(CalibrationWarning):
            with pytest.raises(NoFeasiblePoint):
                calibrate(CostModel(), high, fixture252)

    def test_no_targets_rejected_before_the_search(self, fixture252):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least one target"):
                calibrate(CostModel(), {}, fixture252)

    @pytest.mark.parametrize("targets, key", [
        ({1: 1.0, 3: 0.97}, "target_1"),
        ({0: 1.0}, "target_0"),
        ({3: 0.97, 5: math.nan}, "target_5"),
        ({5: math.inf}, "target_5"),
        ({5: 0.0}, "target_5"),
        ({5: -1.25}, "target_5"),
    ])
    def test_bad_target_rejected_by_key(self, fixture252, targets, key):
        with pytest.raises(ValueError, match=f"^{key}[: ]"):
            calibrate(CostModel(), targets, fixture252)

    def test_zero_compute_costs_are_degenerate(self, fixture252):
        # The grid scales with cycles_per_check_edge, so every point is
        # (0, 0, 0) and every scenario's iteration time is zero.
        free = CostModel(cycles_per_check_edge=0.0, cycles_per_var_edge=0.0,
                         cycles_per_syndrome_edge=0.0)
        with pytest.raises(DegenerateCostModel):
            calibrate(free, DEFAULT_SPEEDUP_TARGETS, fixture252)

    def test_overflowing_cost_is_degenerate(self, fixture252):
        # A NaN cost is refused on construction (TestCostModel), but a
        # finite one can still overflow: every speedup is inf / inf.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DegenerateCostModel, match="finite"):
                calibrate(CostModel(cycles_per_var_edge=1e308),
                          DEFAULT_SPEEDUP_TARGETS, fixture252)

    def test_flat_targets_pull_speedups_flat(self, fixture252):
        flat = {procs: 1.0 for procs in DEFAULT_SPEEDUP_TARGETS}
        fitted = calibrate(CostModel(), flat, fixture252, tolerance=0.2)
        speedups = modeled_speedups(fixture252, fitted, SCENARIO_SLAVES)
        assert all(abs(v - 1.0) <= 0.2 for v in speedups.values())


def test_throughput_definition(fixture252):
    prior = noisy_prior(fixture252, ebno_db=3.0, seed=4)
    run = decode(fixture252, prior, worst_case_config(DecoderConfig()))
    rep = simulate_sequential(fixture252, run, CostModel())
    assert rep.throughput_kbps == pytest.approx(
        504 / rep.time_seconds / 1000.0, rel=1e-12
    )
    assert math.isclose(rep.time_seconds, rep.modeled_cycles / 100e6)


_COST_FIELDS = (
    "cycles_per_check_edge",
    "cycles_per_var_edge",
    "cycles_per_syndrome_edge",
    "cycles_packet_fixed",
    "cycles_per_hop",
    "cycles_iter_fixed",
)
_cost_points = st.lists(
    st.tuples(*[st.floats(0.0, 5000.0, allow_subnormal=False)] * len(_COST_FIELDS)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=30, deadline=None)
@given(
    params=st.sampled_from(SMALL_REGULAR_PARAMS),
    seed=st.integers(0, 2**16),
    points=_cost_points,
    data=st.data(),
)
def test_model_conservation(params, seed, points, data):
    n, wc, wr = params
    H = generate_regular(n, wc, wr, seed=seed)
    one_point = [CostModel(**dict(zip(_COST_FIELDS, point))) for point in points]
    # Every cost field an array of the points, shaped to broadcast over the
    # scenarios of a stacked geometry.
    arrays = CostModel(**{
        name: np.array([getattr(cm, name) for cm in one_point])[:, None]
        for name in _COST_FIELDS
    })
    prior = noisy_prior(H, ebno_db=2.0, seed=seed)
    run = decode(H, prior, DecoderConfig(max_iter=3))
    geometries = []
    for slaves in (d for d in range(1, H.m + 1) if H.m % d == 0):
        part = make_partition(H.m, slaves)
        placements = [MeshPlacement.star(slaves + 1)]
        w = data.draw(st.integers(1, slaves + 1), label="width")
        h = -(-(slaves + 1) // w)
        mx = data.draw(st.integers(0, w - 1), label="master x")
        my = data.draw(st.integers(0, h - 1), label="master y")
        placements.append(MeshPlacement.from_spec(slaves + 1, f"{w}x{h}@{mx},{my}"))
        for placement in placements:
            geometry = _scenario_geometry(H, part, placement)
            geometries.append(geometry)
            for cm in one_point:
                cost = parallel_iteration_cost(H.edges, *geometry, cm)
                assert cost.total == (
                    cost.scatter + cost.slave_stall + cost.gather + cost.master
                )
                if cost.total == 0:
                    with pytest.raises(DegenerateCostModel):
                        simulate_parallel(H, run, part, cm, placement)
                    continue
                report = simulate_parallel(H, run, part, cm, placement)
                assert sum(report.breakdown.values()) == report.modeled_cycles
    # Each row of the array-valued kernel, over every scenario at once, is
    # the one-point call bit for bit.
    stacked = parallel_iteration_cost(H.edges, *_stacked(geometries), arrays)
    shape = (len(one_point), len(geometries))
    for i, cm in enumerate(one_point):
        for j, geometry in enumerate(geometries):
            cost = parallel_iteration_cost(H.edges, *geometry, cm)
            for phase in ("scatter", "slave_stall", "gather", "master"):
                rows = np.broadcast_to(getattr(stacked, phase), shape)
                assert rows[i, j] == getattr(cost, phase)
