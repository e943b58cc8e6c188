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
them.  `calibrate` prices its 31x7x11 grid of communication costs for every
scenario in one broadcast over an open mesh (packet fixed, per hop and
iteration fixed each on an axis of its own), so the send/stall recurrence
runs once per (packet fixed, per hop) pair and only the master phase spans
the whole grid.  It scans the errors in grid order and refines the best
point by coordinate descent, pricing a box of points around the current one
per broadcast, with the same comparisons, and so the same fitted point, as
a point-by-point search.
"""

from __future__ import annotations

import itertools
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

    A cost field may also hold an array of values: the cost formulas then
    broadcast over them, and arrays of different fields broadcast against
    each other (calibrate prices an open mesh of its three fitted costs
    this way).  The simulators and modeled_speedups price one point.
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
    """Star placement on a 2D mesh: the master's cell and its slaves',
    all distinct; a slave's hops are its Manhattan distance from the master."""

    master_xy: tuple[int, int]
    slave_xy: tuple[tuple[int, int], ...]

    def __post_init__(self):
        cells = [self.master_xy, *self.slave_xy]
        if len(set(cells)) != len(cells):
            raise ValueError("placement cells must be distinct")

    @property
    def hops(self) -> tuple[int, ...]:
        mx, my = self.master_xy
        return tuple(abs(x - mx) + abs(y - my) for x, y in self.slave_xy)

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
        """Parse a grid/master override like "4x3@1,1", master inside the
        grid; slaves are placed on the other cells outward by Manhattan distance."""
        try:
            grid, master = text.strip().split("@")
            w, h = (int(t) for t in grid.lower().split("x"))
            mx, my = (int(t) for t in master.split(","))
        except ValueError as exc:
            raise ValueError(f"placement spec {text!r} is not WxH@mx,my") from exc
        if not (0 <= mx < w and 0 <= my < h):
            raise ValueError(f"placement spec {text!r}: master outside the {w}x{h} grid")
        if w * h < processors:
            raise ValueError(f"{w}x{h} grid cannot hold {processors} PEs")
        return cls._fill(processors, w, h, mx, my)

    @classmethod
    def _fill(cls, processors: int, w: int, h: int, mx: int, my: int) -> "MeshPlacement":
        others = [(x, y) for y in range(h) for x in range(w) if (x, y) != (mx, my)]
        others.sort(key=lambda xy: (abs(xy[0] - mx) + abs(xy[1] - my), xy[1], xy[0]))
        return cls(master_xy=(mx, my), slave_xy=tuple(others[: processors - 1]))


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
    array-valued cost fields every phase is an array, broadcast over the
    cost fields it reads, each entry equal bit for bit to the one-point call.
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
    for s, recv_cost in enumerate(sends):
        lag = done[s] - t
        # max(0, lag) for a float and for an array of points alike; a
        # negative lag gives -0.0, which leaves every sum it enters unchanged.
        wait = lag * (lag > 0.0)
        stall = stall + wait
        t = t + (wait + recv_cost)
    master = (
        edges * (cm.cycles_per_var_edge + cm.cycles_per_syndrome_edge)
        + cm.cycles_iter_fixed
    )
    # The receives sum the same packet costs as the sends, from 0.0 and in
    # the same order: the gather is the scatter, bit for bit.
    return IterationCost(
        scatter=scatter, slave_stall=stall, gather=scatter, master=master
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


#: How far the descent looks ahead: when it meets a candidate it has not
#: priced, it prices the box of points within this many repeated moves of
#: its current point along each axis (5x5x5 points at 2) in one broadcast.
_LOOKAHEAD = 2


class CalibrationWarning(UserWarning):
    """Calibration landed on a degenerate (comm-free) boundary point, or
    skipped the targets whose slave count does not divide the checks."""


def _with_comm_costs(cm: CostModel, pf, hop, fixed) -> CostModel:
    """cm with the three fitted costs replaced (floats or arrays of points)."""
    return replace(
        cm, cycles_packet_fixed=pf, cycles_per_hop=hop, cycles_iter_fixed=fixed
    )


def _calibration_axes(scale: float) -> tuple[list[float], list[float], list[float]]:
    """The axes of the 31x7x11 search grid (packet fixed, per hop,
    iteration fixed); the scan visits their product in itertools.product
    order."""
    return (
        np.linspace(0.0, 30.0 * scale, 31).tolist(),
        np.linspace(0.0, 3.0 * scale, 7).tolist(),
        np.linspace(0.0, 40.0 * scale, 11).tolist(),
    )


def _mesh_errors(
    edges: int, stacked: tuple, goal: np.ndarray, cm: CostModel, axes: tuple
) -> np.ndarray:
    """Squared speedup error against goal of every point of the open mesh
    of `axes` (packet fixed, per hop, iteration fixed values), flat in
    itertools.product order and priced in one broadcast; the other costs
    come from cm.  The send/stall recurrence reads only the packet and hop
    costs, so it runs once per (packet fixed, per hop) pair, and the
    iteration fixed cost enters the master phase and the sequential time."""
    shapes = ((-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1))
    at = _with_comm_costs(cm, *(np.reshape(a, s) for a, s in zip(axes, shapes)))
    total = parallel_iteration_cost(edges, *stacked, at).total
    diff = (_speedups(edges, at, total) - goal).reshape(-1, goal.size)
    # One BLAS dot per point: the call a single point's `diff @ diff` makes,
    # so each point's error equals the one-point error bit for bit.
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

    The errors of the 31x7x11 grid come from one broadcast of the cost
    formula over the grid's open mesh; a strict scan of them in grid order
    picks the start, so ties resolve to the first point.  Coordinate
    descent then visits its candidates in a fixed order and moves to each
    one that improves.  It prices a candidate it has not seen together with
    the box of points within _LOOKAHEAD moves of its current point along
    each axis, in one broadcast: that changes how often the formula runs,
    never an error or a decision.

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

    def errors(axes) -> list[float]:
        return _mesh_errors(H.edges, stacked, goal, cm, axes).tolist()

    scale = cm.cycles_per_check_edge
    axes = _calibration_axes(scale)
    best = None
    best_err = np.inf
    for i, e in enumerate(errors(axes)):
        if e < best_err - 1e-15:
            best_err = e
            best = i
    if best is None:
        raise DegenerateCostModel("no grid point has a finite speedup error")
    point = next(itertools.islice(itertools.product(*axes), best, None))

    def neighbour(origin, axis, delta):
        cand = list(origin)
        cand[axis] = max(0.0, cand[axis] + delta)
        return tuple(cand)

    def box(origin, step):
        # Per axis, the values within _LOOKAHEAD repeated moves of origin,
        # each move computed as neighbour computes it.
        sides = []
        for v in origin:
            values = {v}
            for delta in (step, -step):
                w = v
                for _ in range(_LOOKAHEAD):
                    w = max(0.0, w + delta)
                    values.add(w)
            sides.append(sorted(values))
        return sides

    # Coordinate descent with shrinking steps, deterministic.
    known = {point: best_err}
    steps = [scale, scale / 4.0, scale / 16.0, scale / 64.0]
    for step in steps:
        moves = [(axis, delta) for axis in range(3) for delta in (step, -step)]
        for _ in range(40):
            improved = False
            for move in moves:
                cand = neighbour(point, *move)
                if cand not in known:
                    ahead = box(point, step)
                    known.update(zip(itertools.product(*ahead), errors(ahead)))
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
