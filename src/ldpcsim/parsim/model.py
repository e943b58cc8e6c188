"""Deterministic cost-model simulation of the star-on-mesh decoder.

Time is modeled analytically per iteration, not by event-driven router
simulation: the master's sends and receives are serialized (the star
bottleneck), each packet costs a fixed overhead plus a per-hop router
charge, and slaves compute their check blocks as soon as their block
arrives.  The per-iteration phases on the master's clock are

    scatter     sequential sends, one slave block after another
    slave_stall idle time blocked on a slave that is still computing
    gather      sequential receives of refreshed check messages
    master      variable-node update, syndrome check, fixed overhead

and their sum is the modeled iteration time exactly.  The model prices a
given `DecodeResult` and never decodes: its reports carry the run's
iteration count and no bits, so it can change only time, never results,
and one decode prices a whole scenario sweep.  The live workers
(`parsim.workers`) are what execute the partitioned schedule.

The cost formula is written once and prices one cost point or an array of
them: `calibrate` prices its 31x7x11 grid of communication costs for every
scenario in a few broadcast calls, then scans the errors in grid order and
refines the best point by coordinate descent, with the same comparisons,
and so the same fitted point, as a point-by-point search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

import numpy as np

from ..code import ParityCheckMatrix
from ..decoder import DecodeResult
from ..errors import DegenerateCostModel, LengthMismatch, NoFeasiblePoint, NotDivisible
from ..partition import Partition, make_partition, plan_messages

# Unused here; bench/tracer.py wraps each of these names in this module.
from ..code import syndrome_ok  # noqa: F401
from ..decoder import (  # noqa: F401
    check_node_update_block,
    decode,
    hard_decision,
    init_state,
    variable_node_update,
)
from ..partition import attach_edge_counts  # noqa: F401


@dataclass(frozen=True)
class CostModel:
    """Cycle costs of the modeled 100 MHz mesh platform.

    Compute costs are cycles per edge visited in the respective update
    (cycles_per_check_edge covers the slave-side work including pack and
    unpack; cycles_per_var_edge covers the master-side per-edge work:
    difference preparation plus total accumulation).  Communication costs
    are per packet: a fixed send/receive overhead plus a charge per mesh
    hop.  Defaults are frozen from a calibration run against the bundled
    reference speedup curve (see DEFAULT_SPEEDUP_TARGETS).

    A cost field may also hold an array, one value per cost point: the
    cost formulas then broadcast over the points (calibrate prices its
    grid this way).  The simulators and modeled_speedups price one point.
    """

    cycles_per_check_edge: float = 248.0
    cycles_per_var_edge: float = 60.0
    cycles_per_syndrome_edge: float = 10.0
    cycles_packet_fixed: float = 2750.0
    cycles_per_hop: float = 60.0
    cycles_iter_fixed: float = 1500.0
    clock_hz: float = 100e6

    def __post_init__(self):
        # Every cost point of every field: finite, and >= 0 (the clock
        # > 0).  NaN fails each comparison, so min and max catch it.
        for f in fields(self):
            value = getattr(self, f.name)
            array = isinstance(value, np.ndarray)
            lo, hi = (value.min(), value.max()) if array else (value, value)
            clock = f.name == "clock_hz"
            if not ((lo > 0 if clock else lo >= 0) and hi < math.inf):
                raise ValueError(f"{f.name} must be finite and {'> 0' if clock else '>= 0'}")


#: Reference speedup-vs-processors curve measured on the mesh platform this
#: model emulates (keyed by total processor count, master included).
DEFAULT_SPEEDUP_TARGETS: dict[int, float] = {
    3: 0.97,
    4: 1.12,
    5: 1.25,
    7: 1.24,
    8: 1.24,
    10: 1.22,
}


@dataclass(frozen=True)
class MeshPlacement:
    """Star placement on a 2D mesh: master central, slaves around it."""

    width: int
    height: int
    master_xy: tuple[int, int]
    slave_xy: tuple[tuple[int, int], ...]
    hops: tuple[int, ...]

    def __post_init__(self):
        cells = [self.master_xy, *self.slave_xy]
        if len(set(cells)) != len(cells):
            raise ValueError("placement cells must be distinct")
        for x, y in cells:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"cell ({x},{y}) outside {self.width}x{self.height} grid")
        if any(h < 1 for h in self.hops):
            raise ValueError("every slave must be at least one hop away")

    @classmethod
    def star(cls, processors: int) -> "MeshPlacement":
        """Smallest near-square grid holding all PEs; master at the center
        (lower-left of the central candidates on even grids), slaves filled
        outward by Manhattan distance."""
        if processors < 2:
            raise ValueError("star placement needs at least one slave")
        w = math.isqrt(processors - 1) + 1
        h = -(-processors // w)
        return cls._fill(processors, w, h, (w - 1) // 2, (h - 1) // 2)

    @classmethod
    def from_spec(cls, processors: int, text: str) -> "MeshPlacement":
        """Parse a grid/master override like "4x3@1,1"; slaves are placed
        on the remaining cells outward by Manhattan distance."""
        try:
            grid, master = text.strip().split("@")
            w, h = (int(t) for t in grid.lower().split("x"))
            mx, my = (int(t) for t in master.split(","))
        except ValueError as exc:
            raise ValueError(f"placement spec {text!r} is not WxH@mx,my") from exc
        if w * h < processors:
            raise ValueError(f"{w}x{h} grid cannot hold {processors} PEs")
        return cls._fill(processors, w, h, mx, my)

    @classmethod
    def _fill(cls, processors: int, w: int, h: int, mx: int, my: int) -> "MeshPlacement":
        others = [
            (x, y) for y in range(h) for x in range(w) if (x, y) != (mx, my)
        ]
        others.sort(key=lambda xy: (abs(xy[0] - mx) + abs(xy[1] - my), xy[1], xy[0]))
        slaves = tuple(others[: processors - 1])
        hops = tuple(abs(x - mx) + abs(y - my) for x, y in slaves)
        return cls(width=w, height=h, master_xy=(mx, my), slave_xy=slaves, hops=hops)


@dataclass
class SimReport:
    """Throughput/speedup record for one scenario.

    breakdown partitions the total time exactly; its keys depend on the
    producer.  The cost model (`simulate_sequential`, `simulate_parallel`)
    writes modeled cycles, summing to modeled_cycles: compute_master (the
    master's own computation), slave_stall (master idle on slaves, i.e.
    the un-overlapped portion of slave compute) and communication (send
    plus receive busy time).  The live executors
    (`parsim.workers.run_sequential_baseline`, `run_parallel_workers`)
    write wall seconds summed over the reps, summing to
    extras["total_seconds"]: messaging (the master's time in the pipe
    exchange) and compute_master (the rest).  extras carries non-additive
    diagnostics such as the raw max slave compute.
    """

    processors: int
    iterations: int
    time_seconds: float
    throughput_kbps: float
    speedup: float | None = None
    modeled_cycles: float | None = None
    breakdown: dict[str, float] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class IterationCost:
    scatter: float
    slave_stall: float
    gather: float
    master: float

    @property
    def total(self) -> float:
        return self.scatter + self.slave_stall + self.gather + self.master


def sequential_iteration_cycles(edges: int, cm: CostModel) -> float:
    return (
        edges
        * (
            cm.cycles_per_check_edge
            + cm.cycles_per_var_edge
            + cm.cycles_per_syndrome_edge
        )
        + cm.cycles_iter_fixed
    )


def parallel_iteration_cost(
    edges: int,
    group_edges: tuple[int, ...],
    packets: tuple[int, ...],
    hops: tuple[int, ...],
    cm: CostModel,
) -> IterationCost:
    """One iteration on the master's clock under the blocking contract.

    Sends go out back to back; slave s starts computing when its block has
    arrived and the master collects results in the same order, waiting
    whenever the next slave is not done yet.  The live workers follow the
    same contract: one data frame out and one result frame back per slave,
    neither acknowledged, so only data packets are priced.  With
    array-valued cost fields every phase is an array, one entry per cost
    point, each equal bit for bit to the one-point call.
    """
    sends = [p * (cm.cycles_packet_fixed + h * cm.cycles_per_hop)
             for p, h in zip(packets, hops)]
    t = 0.0
    done = []
    for cost, e in zip(sends, group_edges):
        t = t + cost
        done.append(t + e * cm.cycles_per_check_edge)
    scatter = t
    stall = 0.0
    gather = 0.0
    for s, recv_cost in enumerate(sends):
        lag = done[s] - t
        # max(0, lag) for a float and for an array of points alike; a
        # negative lag gives -0.0, which leaves every sum it enters unchanged.
        wait = lag * (lag > 0.0)
        stall = stall + wait
        gather = gather + recv_cost
        t = t + (wait + recv_cost)
    master = (
        edges * (cm.cycles_per_var_edge + cm.cycles_per_syndrome_edge)
        + cm.cycles_iter_fixed
    )
    return IterationCost(
        scatter=scatter, slave_stall=stall, gather=gather, master=master
    )


def _scenario_geometry(
    H: ParityCheckMatrix, p: Partition, placement: MeshPlacement | None = None
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(edges, packets, hops) per slave: the cost-free part of a scenario,
    i.e. the trailing arguments of parallel_iteration_cost.  The edge counts
    come from the one message plan; the placement defaults to the star of
    p.num_slaves + 1 PEs."""
    plan = plan_messages(H, p)
    placement = placement or MeshPlacement.star(p.num_slaves + 1)
    if len(placement.slave_xy) != p.num_slaves:
        raise ValueError(
            f"placement has {len(placement.slave_xy)} slaves, partition {p.num_slaves}"
        )
    edges = tuple(b // plan.word_bytes for b in plan.to_slave_bytes)
    return edges, plan.to_slave_packets, placement.hops


def _report(
    processors: int,
    iterations: int,
    n_bits: int,
    cm: CostModel,
    breakdown: dict[str, float],
    extras: dict[str, float],
) -> SimReport:
    # Total is the sum of the breakdown entries, so conservation is exact.
    cycles = sum(breakdown.values())
    if cycles <= 0:
        raise DegenerateCostModel("modeled time is zero; throughput undefined")
    seconds = cycles / cm.clock_hz
    return SimReport(
        processors=processors,
        iterations=iterations,
        time_seconds=seconds,
        throughput_kbps=n_bits / seconds / 1000.0,
        modeled_cycles=cycles,
        breakdown=breakdown,
        extras=extras,
    )


def _require_one_word(word: np.ndarray) -> None:
    # The reports price or time one word's iterations against H.n bits:
    # `word` is the run's prior or its decoded bits.
    if np.ndim(word) != 1:
        raise LengthMismatch(f"a priced or timed run decodes one word, got {np.shape(word)}")


def simulate_sequential(
    H: ParityCheckMatrix, run: DecodeResult, cm: CostModel
) -> SimReport:
    """Single-PE price of `run`, a decode of one word on H: every executed
    iteration at the sequential cost.  Prices the given run; never decodes."""
    _require_one_word(run.bits)
    breakdown = {
        "compute_master": run.iterations_used * sequential_iteration_cycles(H.edges, cm),
        "slave_stall": 0.0,
        "communication": 0.0,
    }
    return _report(1, run.iterations_used, H.n, cm, breakdown, {})


def simulate_parallel(
    H: ParityCheckMatrix,
    run: DecodeResult,
    p: Partition,
    cm: CostModel,
    placement: MeshPlacement | None = None,
) -> SimReport:
    """Price of `run`, a decode of one word on H, on the star schedule of
    `p` and `placement`: every executed iteration at the parallel cost.

    Check rows read only the previous totals and their own edges, so the
    slave blocks' updates together are the whole-code update and the
    partitioned run executes `run`'s iterations.  Prices the given run and
    never decodes; a partition or placement that does not fit raises.
    """
    _require_one_word(run.bits)
    geometry = _scenario_geometry(H, p, placement)
    iterations = run.iterations_used
    cost = parallel_iteration_cost(H.edges, *geometry, cm)
    max_slave_compute = max(geometry[0]) * cm.cycles_per_check_edge
    breakdown = {
        "compute_master": iterations * cost.master,
        "slave_stall": iterations * cost.slave_stall,
        "communication": iterations * (cost.scatter + cost.gather),
    }
    extras = {
        "scatter_cycles": iterations * cost.scatter,
        "gather_cycles": iterations * cost.gather,
        "max_slave_compute_cycles": iterations * max_slave_compute,
    }
    return _report(p.num_slaves + 1, iterations, H.n, cm, breakdown, extras)


def _stacked(geometries: list[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scenario geometries as (edges, packets, hops) arrays of shape
    (slots, scenarios), so one parallel_iteration_cost call prices every
    scenario.  Scenarios with fewer slaves are padded with zero-packet,
    zero-edge slots after their last slave; such a slot adds exact zeros to
    every phase."""
    slots = max(len(g[0]) for g in geometries)
    out = np.zeros((3, slots, len(geometries)), dtype=np.int64)
    for j, geometry in enumerate(geometries):
        for field_, values in zip(out, geometry):
            field_[: len(values), j] = values
    return out[0], out[1], out[2]


def _speedups(edges: int, cm: CostModel, total):
    """Closed-form speedup from the modeled parallel iteration time `total`
    (an array of them: one per scenario, and per cost point when cm's
    fields are arrays)."""
    if np.any(total == 0):
        raise DegenerateCostModel("modeled iteration time is zero; speedup undefined")
    return sequential_iteration_cycles(edges, cm) / total


def modeled_speedups(
    H: ParityCheckMatrix, cm: CostModel, slave_counts: list[int]
) -> dict[int, float]:
    """Closed-form speedup per scenario (iteration counts cancel), every
    scenario priced in one broadcast over their `_stacked` geometries."""
    if not slave_counts:
        return {}
    stacked = _stacked([_scenario_geometry(H, make_partition(H.m, s)) for s in slave_counts])
    total = parallel_iteration_cost(H.edges, *stacked, cm).total
    speedups = _speedups(H.edges, cm, total).tolist()
    return dict(zip([s + 1 for s in slave_counts], speedups))


class CalibrationWarning(UserWarning):
    """Calibration landed on a degenerate (comm-free) boundary point, or
    skipped the targets whose slave count does not divide the checks."""


def _with_comm_costs(cm: CostModel, pf, hop, fixed) -> CostModel:
    """cm with the three fitted costs replaced (floats or arrays of points)."""
    return replace(
        cm, cycles_packet_fixed=pf, cycles_per_hop=hop, cycles_iter_fixed=fixed
    )


def _calibration_grid(scale: float) -> np.ndarray:
    """The 31x7x11 search grid as (points, 3) rows (packet fixed, per hop,
    iteration fixed), in the order the scan visits them."""
    axes = (
        np.linspace(0.0, 30.0 * scale, 31),
        np.linspace(0.0, 3.0 * scale, 7),
        np.linspace(0.0, 40.0 * scale, 11),
    )
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def _squared_errors(
    edges: int, stacked: tuple, goal: np.ndarray, cm: CostModel, points: np.ndarray
) -> np.ndarray:
    """Squared speedup error against goal of each row of points, priced in
    one broadcast: rows are (packet fixed, per hop, iteration fixed) and
    the other costs come from cm."""
    at = _with_comm_costs(cm, *points.T[:, :, None])
    total = parallel_iteration_cost(edges, *stacked, at).total
    diff = _speedups(edges, at, total) - goal
    # One BLAS dot per row: the call a single point's `diff @ diff` makes,
    # so each row's error equals the one-point error bit for bit.
    return (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]


def calibrate(
    cm: CostModel,
    targets: Mapping[int, float],
    H: ParityCheckMatrix,
    tolerance: float = 0.10,
) -> CostModel:
    """Fit (cycles_packet_fixed, cycles_per_hop, cycles_iter_fixed) to a
    target speedup-per-processor-count curve by deterministic grid search
    plus coordinate refinement, minimizing squared speedup error.

    The errors of the 31x7x11 grid come from broadcasts of the cost
    formula over slices of the grid; a strict scan of them in grid order
    picks the start, so ties resolve to the first point.  Coordinate
    descent then visits its candidates in a fixed order and moves to each
    one that improves.  It prices a candidate it has not seen together with
    the rest of its sweep and their neighbours, in one call: that changes
    how often the formula runs, never an error or a decision.

    A target whose slave count does not divide H.m is left out, as the
    sweep skips its scenario, with a CalibrationWarning naming it.
    Raises ValueError when there is no target, or one for fewer than 2
    processors or of a speedup that is not finite and > 0, NotDivisible
    when every target is left out, DegenerateCostModel when a scenario's
    modeled iteration time is zero, and NoFeasiblePoint when the best fit
    misses some target by more than `tolerance`.  Compute costs are taken
    from `cm` unchanged.
    """
    if not targets:
        raise ValueError("calibration needs at least one target")
    for procs, speedup in targets.items():
        if procs < 2:
            raise ValueError(f"target_{procs}: a target needs at least 2 processors")
        if not 0 < speedup < math.inf:
            raise ValueError(f"target_{procs} = {speedup}: a speedup must be finite and > 0")
    slave_counts = [procs - 1 for procs in sorted(targets) if H.m % (procs - 1) == 0]
    skipped = ", ".join(str(procs) for procs in sorted(targets) if H.m % (procs - 1))
    if not slave_counts:
        raise NotDivisible(f"{H.m} check nodes not divisible by any target's slave count")
    if skipped:
        warnings.warn(f"calibration skipped the targets for {skipped} processors: their slave "
                      f"counts do not divide the {H.m} check nodes", CalibrationWarning)
    goal = np.array([targets[s + 1] for s in slave_counts])
    # The geometry does not depend on the fitted costs: build it once.
    stacked = _stacked(
        [_scenario_geometry(H, make_partition(H.m, s)) for s in slave_counts]
    )

    def errors(points) -> list[float]:
        return _squared_errors(H.edges, stacked, goal, cm, np.array(points)).tolist()

    scale = cm.cycles_per_check_edge
    grid = _calibration_grid(scale)
    # Eleven broadcasts of 217 points: the formula holds about thirty
    # (points, scenarios) arrays at once, which for the whole grid would add
    # 3 MB to the process's peak memory.
    grid_errors = [e for rows in np.split(grid, 11) for e in errors(rows)]
    best = None
    best_err = np.inf
    for i, e in enumerate(grid_errors):
        if e < best_err - 1e-15:
            best_err = e
            best = i
    if best is None:
        raise DegenerateCostModel("no grid point has a finite speedup error")
    point = tuple(grid[best].tolist())

    def neighbour(origin, axis, delta):
        cand = list(origin)
        cand[axis] = max(0.0, cand[axis] + delta)
        return tuple(cand)

    # Coordinate descent with shrinking steps, deterministic.
    known = {point: best_err}
    steps = [scale, scale / 4.0, scale / 16.0, scale / 64.0]
    for step in steps:
        moves = [(axis, delta) for axis in range(3) for delta in (step, -step)]
        for _ in range(40):
            improved = False
            for k, move in enumerate(moves):
                cand = neighbour(point, *move)
                if cand not in known:
                    # The rest of this sweep and the neighbours of each of
                    # its candidates are where the descent looks next.
                    ahead = [neighbour(point, *m) for m in moves[k:]]
                    ahead += [neighbour(c, *m) for c in ahead for m in moves]
                    batch = [c for c in dict.fromkeys(ahead) if c not in known]
                    known.update(zip(batch, errors(batch)))
                e = known[cand]
                if e < best_err - 1e-15:
                    best_err = e
                    point = cand
                    improved = True
            if not improved:
                break
    fitted = _with_comm_costs(cm, *point)
    if point[0] == 0.0 and point[1] == 0.0:
        warnings.warn(
            "calibration drove all communication costs to zero",
            CalibrationWarning,
        )
    got = modeled_speedups(H, fitted, slave_counts)
    errs = [abs(got[s + 1] - targets[s + 1]) for s in slave_counts]
    if max(errs) > tolerance:
        raise NoFeasiblePoint(
            f"best fit misses a target by {max(errs):.3f} (> {tolerance})"
        )
    return fitted


def plot_csv(reports: list[SimReport]) -> str:
    """Plot-data CSV (columns nS, Par, Seq): parallel throughput per
    processor count against the flat sequential baseline."""
    base = next((r for r in reports if r.processors == 1), None)
    if base is None:
        raise ValueError("plot data needs the single-processor baseline report")
    lines = ["nS,Par,Seq"]
    for r in reports:
        lines.append(f"{r.processors},{r.throughput_kbps:.6g},{base.throughput_kbps:.6g}")
    return "\n".join(lines) + "\n"
