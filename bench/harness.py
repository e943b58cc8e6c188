"""Workloads, timing loop, correctness gate and metric report of the
ldpcsim benchmark.

Every workload is a closed loop: this one process runs one operation at a
time and starts the next when the previous one has returned.  The
operation kinds are

    ber        cli.ber_sweep at Eb/N0 1 and 2 dB, float64, early exit
    decode     decoder.decode of the fixed worst-case word, 30 iterations
    scalar     workers.run_sequential_baseline of that word (1 rep)
    workers    workers.run_parallel_workers of that word, once per slave count
    calibrate  model.calibrate of CostModel() to DEFAULT_SPEEDUP_TARGETS
    model      costmodel cli.scale_rows over processors 1,3,4,5,7,8,10

Each workload runs every kind, so every run reports every end-to-end metric;
the workloads differ in how many of each kind one round holds (the mix) and
in the code the model sweep runs on.  Rounds repeat until the run's time is
used up.

Both codes are built from CODE_SEED, whatever the workload seed: how many
permutations `generate_regular` draws before one has no duplicate edge
depends on the seed and moves the n=20160 construction time by a factor of
several, which would swamp set-up time.  The workload seed draws every
channel word: the BER sweep's noise, the worst-case word and the model
sweep's prior.  The program under test only receives the codes and words.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from ldpcsim import channel, cli, code, decoder, partition
from ldpcsim.parsim import model, workers

from reference import REF_SECONDS, reference_seconds
from tracer import Tracer, check_restored

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"

DEFAULT_SEED = 1
CODE_SEED = 1
WC, WR = 3, 6
SHORT_N = 504
BER_EBNO = [1.0, 2.0]
WORD_EBNO = 2.0
MODEL_EBNO = 3.0  # the `ldpcsim scale` default
PROCESSORS = [1, 3, 4, 5, 7, 8, 10]
SLAVE_COUNTS = (1, 2)
WORKER_REPS = 4
WORD_BYTES = 8  # float64 wire words

DECODES_PER_REF = 10  # decode samples between two reference points
REF_PASSES = 5  # reference passes per point
SPEED_WINDOW_S = 0.25  # reference passes this close to a sample scale it

# Operations per round.  `workers: k` runs k calls for each slave count.
MIXES = {
    "ber-sweep": {"ber": 3, "calibrate": 1, "model": 3, "decode": 20,
                  "scalar": 3, "workers": 2},
    "worst-case-word": {"ber": 2, "calibrate": 1, "model": 3, "decode": 40,
                        "scalar": 8, "workers": 4},
    "scale-model": {"ber": 1, "calibrate": 2, "model": 3, "decode": 20,
                    "scalar": 3, "workers": 2},
}

# The operation kind whose spans give the decoder-layer figures.
FOCUS = {"ber-sweep": "ber", "worst-case-word": "decode", "scale-model": "model"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "ber_kbps": "kb/s",
    "decode_ms_p50": "ms",
    "decode_ms_tail": "ms",
    "scalar_ms": "ms",
    "workers_ms_s1": "ms",
    "workers_ms_s2": "ms",
    "calibrate_s": "s",
    "model_sweep_s": "s",
}
RATES = {"ber_kbps"}  # scaled up, not down, on a slow host


@dataclass(frozen=True)
class Sizes:
    long_n: int = 20160  # m = 10080 divides by every default slave count
    ber_min_bits: int = 100_000
    # Set-up repeats: at least min_setups, more while within setup_budget_s.
    min_setups: int = 3
    max_setups: int = 7
    setup_budget_s: float = 1.0
    min_rounds: int = 2


FULL = Sizes()
TINY = Sizes(long_n=2520, ber_min_bits=2000, min_setups=1, max_setups=1)


# -- host ----------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def host_record() -> dict:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level = _read(f"{base}/level")
        if level == "unknown":
            break
        if _read(f"{base}/type") in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        workers.WORKER_CAP_ENV: os.environ.get(workers.WORKER_CAP_ENV),
    }


def _cache_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip()
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def working_set_note(host: dict, H_largest) -> str:
    llc = max((_cache_bytes(v) for v in host["caches"].values()), default=0)
    ws = decoder_bytes_per_iteration(H_largest)
    return (
        f"largest decoder working set {ws} bytes (computed) against a last-level "
        f"cache of {llc} bytes: no working set reaches 4x the LLC, so no memory "
        "bandwidth claim is made"
    )


def usable_slaves(host: dict) -> dict[int, str | None]:
    """Slave counts this host can run, else the reason they are skipped."""
    cap = host["nproc"]
    env = host[workers.WORKER_CAP_ENV]
    if env is not None and env.strip().lstrip("-").isdigit():
        cap = min(cap, int(env))
    return {
        s: None if s <= cap else f"{s} slaves exceed the cap of {cap} (nproc/"
        f"{workers.WORKER_CAP_ENV})"
        for s in SLAVE_COUNTS
    }


# -- inputs --------------------------------------------------------------


@dataclass
class Inputs:
    short: object  # ParityCheckMatrix, 252x504
    model_code: object  # code the model sweep runs on
    word: np.ndarray  # worst-case word LLRs on the short code
    model_prior: np.ndarray  # LLRs the model sweep decodes


def _llrs(H, ebno_db: float, seed: int) -> np.ndarray:
    ch = channel.ChannelConfig(
        ebno_db=ebno_db, rate=code.CodeInfo.from_matrix(H).rate, seed=seed
    )
    sent = channel.modulate(np.zeros(H.n, dtype=np.uint8))
    return channel.llr_init(channel.transmit(sent, ch), ch)


def _round_trip(n: int):
    H = code.generate_regular(n, WC, WR, seed=CODE_SEED)
    return code.load_alist(code.save_alist(H))


def build_inputs(workload: str, seed: int, sizes: Sizes) -> Inputs:
    short = _round_trip(SHORT_N)
    model_code = _round_trip(sizes.long_n) if workload == "scale-model" else short
    return Inputs(
        short=short,
        model_code=model_code,
        word=_llrs(short, WORD_EBNO, seed),
        model_prior=_llrs(model_code, MODEL_EBNO, seed),
    )


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    probe = (
        "import time; t = time.perf_counter(); "
        "import ldpcsim.cli, ldpcsim.parsim; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip())


# -- computed sizes --------------------------------------------------------


def decoder_bytes_per_iteration(H) -> int:
    """Bytes of the arrays one decoder iteration touches, each counted once:
    per edge the variable index and the check message (8 + 8), per variable
    the prior, the total and the decided bit (8 + 8 + 1), per check the row
    pointer (8).  Computed from array sizes, not measured."""
    return H.edges * 16 + H.n * 17 + (H.m + 1) * 8


def payload_bytes_per_decode(H, slaves: int, iterations: int) -> int:
    """Wire bytes per decode: each iteration sends every edge's difference
    out and its refreshed message back, 8-byte words plus a 1-byte frame
    type per block.  Computed from array sizes, not measured."""
    part = partition.make_partition(H.m, slaves)
    per_iter = sum(
        2 * ((hi - lo) * WORD_BYTES + 1) for lo, hi in partition.edge_slices(H, part)
    )
    return iterations * per_iter


# -- correctness ---------------------------------------------------------


def word_signature(result) -> tuple:
    return (
        np.asarray(result.bits, dtype=np.uint8).tobytes(),
        bool(result.converged),
        int(result.iterations_used),
    )


def word_digest(sig: tuple) -> str:
    bits, converged, iterations = sig
    h = hashlib.sha256(bits)
    h.update(f"|{converged}|{iterations}".encode())
    return h.hexdigest()


def ber_rows_key(rows: list[dict]) -> list[list]:
    return [[r["ebno_db"], r["bits"], r["errors"], r["avg_iters"]] for r in rows]


def model_rows_key(rows: list[dict]) -> list[list]:
    return [[r["processors"], r["status"], r["throughput_kbps"], r["speedup"]]
            for r in rows]


def calibrated_point(cm) -> list[float]:
    return [cm.cycles_packet_fixed, cm.cycles_per_hop, cm.cycles_iter_fixed]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class Gate:
    """Compares each result with the run's first result of its kind and,
    where a golden value applies, with that."""

    def __init__(self, golden: dict, seed: int, sizes: Sizes, long_n: int | None):
        self.errors: list[str] = []
        self.refs: dict[str, object] = {}
        self.golden = golden if sizes == FULL else {}
        self.seeded = self.golden.get("seeds", {}).get(str(seed), {})
        self.model_golden = self.golden.get("model_sweep", {}).get(str(long_n), None)

    def fail(self, what: str) -> bool:
        self.errors.append(what)
        return False

    def same(self, kind: str, value, golden=None) -> bool:
        if golden is not None and value != golden:
            return self.fail(f"{kind}: {value!r} differs from the golden {golden!r}")
        ref = self.refs.setdefault(kind, value)
        if value != ref:
            return self.fail(f"{kind}: {value!r} differs from the first {ref!r}")
        return True

    def ber(self, rows: list[dict], min_bits: int) -> bool:
        for r in rows:
            if not (r["bits"] >= min_bits and 0 <= r["errors"] <= r["bits"]
                    and 1 <= r["avg_iters"] <= decoder.DecoderConfig().max_iter):
                return self.fail(f"ber row out of range: {r}")
        return self.same("ber", ber_rows_key(rows), self.seeded.get("ber_rows"))

    def word(self, kind: str, result) -> bool:
        sig = word_signature(result)
        if sig[2] != decoder.DecoderConfig().max_iter:
            return self.fail(f"{kind}: worst case ran {sig[2]} iterations")
        golden = self.seeded.get("word_digest")
        if golden is not None and word_digest(sig) != golden:
            return self.fail(f"{kind}: word digest differs from the golden value")
        ref = self.refs.setdefault("word", sig)
        if sig != ref:
            return self.fail(f"{kind}: bits/converged/iterations differ from decode")
        return True

    def calibrate(self, cm) -> bool:
        return self.same("calibrate", calibrated_point(cm),
                         self.golden.get("calibrated_point"))

    def model(self, rows: list[dict]) -> bool:
        bad = [r for r in rows if r["status"] != "ok"]
        if bad:
            return self.fail(f"model sweep skipped scenarios: {bad}")
        return self.same("model", model_rows_key(rows), self.model_golden)


# -- the run -------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, sizes: Sizes, host: dict,
                 inputs: Inputs, gate: Gate, tracer: Tracer | None):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.inputs = inputs
        self.gate = gate
        self.tracer = tracer
        self.slaves = usable_slaves(host)
        self.cfg = decoder.DecoderConfig()
        self.worst = decoder.worst_case_config(self.cfg)
        # (start, end, raw value) per sample, and (start, seconds) per pass
        # of the speed reference, on the perf_counter clock
        self.samples: dict[str, list[tuple[float, float, float]]] = {}
        self.refs: list[tuple[float, float]] = []
        self.reports: dict[int, list] = {s: [] for s in SLAVE_COUNTS}
        self.attempted = 0
        self.failed = 0
        self.traced_round_s: list[float] = []
        self.plain_round_s: list[float] = []

    def _sample(self, key: str, t0: float, t1: float, value: float) -> None:
        self.samples.setdefault(key, []).append((t0, t1, value))

    def _reference(self) -> None:
        for _ in range(REF_PASSES):
            self.refs.append((perf_counter(), reference_seconds()))

    def speed_factors(self) -> list[float]:
        return [r / REF_SECONDS for _, r in self.refs]

    def scaled(self, key: str) -> list[float]:
        """Samples of `key` scaled to nominal host speed by the median of the
        reference passes within SPEED_WINDOW_S of each sample."""
        window = SPEED_WINDOW_S
        t = np.array([r[0] for r in self.refs])
        ref = np.array([r[1] for r in self.refs])
        out = []
        for t0, t1, v in self.samples.get(key, []):
            lo, hi = np.searchsorted(t, [t0 - window, t1 + window])
            factor = float(np.median(ref[lo:hi])) / REF_SECONDS
            out.append(v * factor if key in RATES else v / factor)
        return out

    def raw(self, key: str) -> list[float]:
        return [v for _, _, v in self.samples.get(key, [])]

    def log(self) -> dict:
        return {"samples": self.samples, "refs": self.refs}

    def _op(self, kind: str, fn, traced: bool) -> float:
        """Run one operation; return its wall time (0 when it failed)."""
        self.attempted += 1
        root = self.tracer.begin_unit(kind) if traced else None
        ok = False
        t0 = perf_counter()
        try:
            ok = fn()
        except Exception as exc:  # every failure is counted, none is fatal
            self.gate.fail(f"{kind}: {type(exc).__name__}: {exc}")
        finally:
            dt = perf_counter() - t0
            if root is not None:
                self.tracer.end_unit(root)
        if not ok:
            self.failed += 1
            return 0.0
        return dt

    # Each op returns True when its output passed the gate and records its
    # sample itself, from the time measured around the library call only.

    def op_ber(self) -> bool:
        t0 = perf_counter()
        rows = cli.ber_sweep(self.inputs.short, BER_EBNO, self.sizes.ber_min_bits,
                             self.seed, self.cfg)
        dt = perf_counter() - t0
        ok = self.gate.ber(rows, self.sizes.ber_min_bits)
        if ok:
            self._sample("ber_kbps", t0, t0 + dt, sum(r["bits"] for r in rows) / dt / 1e3)
        return ok

    def op_decode(self) -> bool:
        t0 = perf_counter()
        result = decoder.decode(self.inputs.short, self.inputs.word, self.worst)
        dt = perf_counter() - t0
        ok = self.gate.word("decode", result)
        if ok:
            self._sample("decode_ms", t0, t0 + dt, dt * 1e3)
        return ok

    def op_scalar(self) -> bool:
        t0 = perf_counter()
        result, _ = workers.run_sequential_baseline(
            self.inputs.short, self.inputs.word, self.cfg, reps=1, worst_case=True
        )
        dt = perf_counter() - t0
        ok = self.gate.word("scalar", result)
        if ok:
            self._sample("scalar_ms", t0, t0 + dt, dt * 1e3)
        return ok

    def op_workers(self, slaves: int) -> bool:
        H = self.inputs.short
        part = partition.make_partition(H.m, slaves)
        t0 = perf_counter()
        result, report = workers.run_parallel_workers(
            H, self.inputs.word, self.cfg, part, reps=WORKER_REPS, worst_case=True
        )
        dt = perf_counter() - t0
        ok = self.gate.word(f"workers s{slaves}", result)
        if ok:
            self._sample(f"workers_ms_s{slaves}", t0, t0 + dt, dt / WORKER_REPS * 1e3)
            self.reports[slaves].append(report)
        return ok

    def op_calibrate(self) -> bool:
        t0 = perf_counter()
        cm = model.calibrate(model.CostModel(), model.DEFAULT_SPEEDUP_TARGETS,
                             self.inputs.short)
        dt = perf_counter() - t0
        ok = self.gate.calibrate(cm)
        if ok:
            self._sample("calibrate_s", t0, t0 + dt, dt)
        return ok

    def op_model(self) -> bool:
        t0 = perf_counter()
        rows, _ = cli.scale_rows(
            self.inputs.model_code, PROCESSORS, "costmodel", self.inputs.model_prior,
            self.cfg, model.CostModel(), worst_case=True, reps=1,
        )
        dt = perf_counter() - t0
        ok = self.gate.model(rows)
        if ok:
            self._sample("model_sweep_s", t0, t0 + dt, dt)
        return ok

    def op_probe(self) -> None:
        """Traced rounds only: the scalar check kernel on the 126-row block a
        slave of two owns and on the 252-row whole code, fed the first
        iteration's differences of the worst-case word.  Slave-side calls run
        in forked processes the tracer cannot see."""
        H = self.inputs.short
        clamp = self.cfg.clamp
        d = [float(x) for x in self.worst.saturate(self.inputs.word)[H.edge_var]]
        degs = H.row_degrees().tolist()
        half = int(H.row_ptr[H.m // 2])
        for _ in range(5):
            workers.check_block_messages(d[:half], degs[: H.m // 2], clamp, None)
            workers.check_block_messages(d, degs, clamp, None)

    def round(self, traced: bool) -> float:
        """One mix round; returns its time without the trace-only probe."""
        mix = MIXES[self.workload]
        gc.collect()
        if traced:
            self.tracer.install()
        spent = 0.0
        ops = [("ber", self.op_ber)] * mix["ber"]
        ops += [("calibrate", self.op_calibrate)] * mix["calibrate"]
        ops += [("model", self.op_model)] * mix["model"]
        ops += [("decode", self.op_decode)] * mix["decode"]
        ops += [("scalar", self.op_scalar)] * mix["scalar"]
        for _ in range(mix["workers"]):
            ops += [(f"workers{s}", functools.partial(self.op_workers, s))
                    for s, skipped in self.slaves.items() if skipped is None]
        try:
            for i, (kind, fn) in enumerate(ops):
                if kind != "decode" or i % DECODES_PER_REF == 0:
                    self._reference()
                spent += self._op(kind, fn, traced)
            self._reference()
            if traced:
                root = self.tracer.begin_unit("probe")
                try:
                    self.op_probe()
                finally:
                    self.tracer.end_unit(root)
        finally:
            if traced:
                self.tracer.restore()
        return spent

    def warm_up(self) -> None:
        """One call of each short operation, untimed, so lazy set-up in the
        library and numpy is done before measuring."""
        self.op_decode()
        self.op_scalar()
        for s, skipped in self.slaves.items():
            if skipped is None:
                self.op_workers(s)
        self.op_model()
        self.samples.clear()
        self.refs.clear()
        for reps in self.reports.values():
            reps.clear()

    def measure(self, seconds: float, trace: bool) -> None:
        t_end = perf_counter() + seconds
        rounds = 0
        while rounds < self.sizes.min_rounds or perf_counter() < t_end:
            traced = trace and rounds % 2 == 0
            spent = self.round(traced)
            (self.traced_round_s if traced else self.plain_round_s).append(spent)
            rounds += 1


# -- metrics -------------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else None


def summary(xs: list[float]) -> dict:
    """Median, quartiles, relative spread and sample count of a sample."""
    if not xs:
        return {"n": 0}
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(xs)}


def tail(xs: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value."""
    ordered = sorted(xs)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError(f"tail needs at least 11 samples, got {len(ordered)}")
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, setup_s: list[float]) -> tuple[dict, dict]:
    """(metric values, detail with spreads, sample counts and speedups)."""
    sampled = {"ber_kbps": "ber_kbps", "decode_ms_p50": "decode_ms",
               "scalar_ms": "scalar_ms", "calibrate_s": "calibrate_s",
               "model_sweep_s": "model_sweep_s"}
    sampled.update({f"workers_ms_s{sl}": f"workers_ms_s{sl}" for sl in SLAVE_COUNTS})
    decode_ms = run.scaled("decode_ms")
    pct, tail_ms = tail(decode_ms)
    values = {
        "setup_s": _median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": 1.0 - run.failed / run.attempted,
        "decode_ms_tail": tail_ms,
    }
    detail = {}
    for name, key in sampled.items():
        values[name] = _median(run.scaled(key))
        detail[name] = summary(run.scaled(key))
        detail[name]["raw_median"] = _median(run.raw(key))
    values = {k: values[k] for k in END_TO_END_UNITS}
    detail["setup_s"] = summary(setup_s)
    detail["decode_ms_tail"] = {"percentile": pct, "value": tail_ms, "n": len(decode_ms),
                                "raw_value": tail(run.raw("decode_ms"))[1]}
    detail["host_speed"] = summary(run.speed_factors())
    detail["speedup"] = {
        f"s{sl}": {"scalar_ms": values["scalar_ms"],
                   "workers_ms": values[f"workers_ms_s{sl}"],
                   "ratio": values["scalar_ms"] / values[f"workers_ms_s{sl}"],
                   "gated": False}
        for sl in SLAVE_COUNTS if values[f"workers_ms_s{sl}"]
    }
    detail["skipped"] = {f"workers_ms_s{sl}": why
                         for sl, why in run.slaves.items() if why}
    return values, detail


def per_layer(run: Run, inputs: Inputs) -> dict:
    """Per-layer figures from the traced rounds' spans."""
    t = run.tracer
    a = t.arrays()
    unit_kinds = sorted(set(t.unit_kinds))
    unit_kind = np.array([unit_kinds.index(k) for k in t.unit_kinds] + [-1])[a["unit"]]

    def named(name: str) -> np.ndarray:
        return a["name_id"] == t.name_index(name)

    def pick(name: str, of_kinds) -> np.ndarray:
        wanted = [unit_kinds.index(k) for k in of_kinds if k in unit_kinds]
        return named(name) & np.isin(unit_kind, wanted)

    def mean_us(name, kinds, col="self"):
        sel = pick(name, kinds)
        return float(a[col][sel].mean() * 1e6) if sel.any() else None

    def per_unit(kind: str, count) -> float | None:
        """A count that must repeat exactly in every unit of `kind`."""
        got = {count(u) for u in t.units_of(kind)}
        if len(got) != 1:
            run.gate.fail(f"per-unit count varies across {kind} units: {sorted(got)}")
            return None
        return float(got.pop())

    def spans_in(name: str, u: int) -> int:
        return int((named(name) & (a["unit"] == u)).sum())

    focus = FOCUS[run.workload]
    focus_code = inputs.model_code if focus == "model" else inputs.short
    blk = pick("decoder.check_node_update_block", [focus])
    edges = sum(t.work.get(("decoder.check_node_update_block", u), 0)
                for u in t.units_of(focus))
    root = pick(f"op.{focus}", [focus])

    m = {
        "decoder.check_node_update_block_us": mean_us("decoder.check_node_update_block", [focus]),
        "decoder.variable_node_update_us": mean_us("decoder.variable_node_update", [focus]),
        "decoder.hard_decision_us": mean_us("decoder.hard_decision", [focus]),
        "decoder.init_state_us": mean_us("decoder.init_state", [focus]),
        "decoder.decode_self_us": mean_us("decoder.decode", [focus]),
        "decoder.iterations": per_unit("ber", lambda u: t.work.get(("decoder.decode", u), 0)),
        "decoder.decode_calls": per_unit("ber", lambda u: spans_in("decoder.decode", u)),
        "decoder.edge_updates_per_s": edges / float(a["dur"][blk].sum()) if blk.any() else None,
        "decoder.bytes_per_iteration": float(decoder_bytes_per_iteration(focus_code)),
        "code.syndrome_ok_us": mean_us("code.syndrome_ok", [focus]),
        "code.generate_regular_s": _median(
            [float(a["dur"][named("code.generate_regular") & (a["unit"] == u)].sum())
             for u in t.units_of("setup")]),
        "code.load_alist_s": _median(
            [float(a["dur"][named("code.load_alist") & (a["unit"] == u)].sum())
             for u in t.units_of("setup")]),
        "channel.transmit_us": mean_us("channel.transmit", ["ber"]),
        "channel.llr_init_us": mean_us("channel.llr_init", ["ber"]),
        "partition.attach_edge_counts_calls": per_unit(
            "calibrate", lambda u: spans_in("partition.attach_edge_counts", u)),
        "partition.plan_messages_calls": per_unit(
            "calibrate", lambda u: spans_in("partition.plan_messages", u)),
        "model.modeled_speedups_calls": per_unit(
            "calibrate", lambda u: spans_in("model.modeled_speedups", u)),
        "model.modeled_speedups_us": mean_us("model.modeled_speedups", ["calibrate"], "dur"),
        "model.simulate_sequential_s": _s(mean_us("model.simulate_sequential", ["model"], "dur")),
        "model.simulate_parallel_s": _s(mean_us("model.simulate_parallel", ["model"], "dur")),
        "cli.ber_sweep_self_ms": _ms(mean_us("cli.ber_sweep", ["ber"])),
        "cli.scale_rows_self_ms": _ms(mean_us("cli.scale_rows", ["model"])),
        "trace.overhead_ratio": _median(run.traced_round_s) / _median(run.plain_round_s),
        "trace.attributed_share": attributed_share(a, root),
    }
    H = inputs.short
    for rows in (H.m // 2, H.m):
        m[f"workers.check_block_messages_{rows}rows_us"] = mean_us(
            f"workers.check_block_messages/{rows}", ["probe", "scalar"])
    for sl in (sl for sl, skipped in run.slaves.items() if skipped is None):
        words = int(H.row_ptr[H.m // sl])
        op = f"workers{sl}"
        m[f"partition.pack_llrs_{words}w_us"] = mean_us(f"partition.pack_llrs/{words}", [op])
        m[f"partition.unpack_llrs_{words}w_us"] = mean_us(f"partition.unpack_llrs/{words}", [op])
        reports = run.reports[sl]
        m[f"workers.compute_master_s{sl}_ms"] = _median(
            [r.breakdown["compute_master"] / WORKER_REPS * 1e3 for r in reports])
        m[f"workers.messaging_s{sl}_ms"] = _median(
            [r.breakdown["messaging"] / WORKER_REPS * 1e3 for r in reports])
        frames = per_unit(op, lambda u: spans_in(f"partition.pack_llrs/{words}", u)
                          + spans_in(f"partition.unpack_llrs/{words}", u))
        m[f"workers.frames_per_decode_s{sl}"] = None if frames is None else frames / WORKER_REPS
        m[f"workers.payload_bytes_per_decode_s{sl}"] = float(
            payload_bytes_per_decode(H, sl, decoder.DecoderConfig().max_iter))
    return m


def attributed_share(a: dict, root: np.ndarray) -> float:
    """Share of the root spans' time covered by spans below the library
    entry point each root calls (the root's direct children)."""
    entry = np.isin(a["parent"], np.flatnonzero(root))
    unattributed = a["self"][root].sum() + a["self"][entry].sum()
    return float(1.0 - unattributed / a["dur"][root].sum())


def _s(us):
    return None if us is None else us / 1e6


def _ms(us):
    return None if us is None else us / 1e3


PER_LAYER_UNITS = {
    "decoder.iterations": "count",
    "decoder.decode_calls": "count",
    "decoder.edge_updates_per_s": "1/s",
    "decoder.bytes_per_iteration": "bytes-computed",
    "partition.attach_edge_counts_calls": "count",
    "partition.plan_messages_calls": "count",
    "model.modeled_speedups_calls": "count",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_share": "share",
}


def layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.startswith("workers.frames_per_decode"):
        return "count"
    if name.startswith("workers.payload_bytes"):
        return "bytes-computed"
    for suffix in ("_us", "_ms", "_s"):
        if name.endswith(suffix):
            return suffix[1:]
    raise KeyError(name)


# -- entry point ---------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = FULL, out_dir: Path | None = None) -> tuple[dict, dict]:
    """Set up, warm up, measure and check one workload.

    Returns (result, detail): result is the object printed as the last line,
    detail carries the host record, spreads, sample counts and gate errors.
    """
    host = host_record()
    tracer = Tracer() if trace else None
    setup_s = []
    setup_refs = []
    inputs = None
    t_setup = perf_counter()
    while len(setup_s) < sizes.min_setups or (
        len(setup_s) < sizes.max_setups
        and perf_counter() - t_setup < sizes.setup_budget_s
    ):
        setup_refs.extend(reference_seconds() for _ in range(REF_PASSES))
        imp = import_seconds()
        if tracer is not None:
            tracer.install()
            root = tracer.begin_unit("setup")
        t0 = perf_counter()
        try:
            inputs = build_inputs(workload, seed, sizes)
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_unit(root)
                tracer.restore()
        setup_s.append(imp + dt)
    setup_s = [x * REF_SECONDS / statistics.median(setup_refs) for x in setup_s]

    gate = Gate(load_golden(), seed, sizes,
                sizes.long_n if workload == "scale-model" else SHORT_N)
    run = Run(workload, seed, sizes, host, inputs, gate, tracer)
    run.warm_up()
    run.measure(seconds, trace)

    detail = {"workload": workload, "seed": seed, "host": host,
              "note": working_set_note(host, inputs.model_code),
              "rounds": len(run.plain_round_s) + len(run.traced_round_s)}
    if trace:
        values = per_layer(run, inputs)
        units = {k: layer_unit(k) for k in values}
        detail["trace"] = {"spans": len(tracer.start),
                           "traced_round_s": summary(run.traced_round_s),
                           "plain_round_s": summary(run.plain_round_s)}
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(out_dir / f"spans-{workload}-seed{seed}.npz")
        leftover = check_restored()
        if leftover:
            gate.fail(f"tracer left wrappers on {leftover}")
    else:
        values, more = end_to_end(run, setup_s)
        units = END_TO_END_UNITS
        detail.update(more)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"samples-{workload}-seed{seed}.json"
            path.write_text(json.dumps(run.log()))
    missing = [k for k, v in values.items() if v is None
               and k not in detail.get("skipped", {})]
    if missing:
        gate.fail(f"no samples for {missing}")
    detail["errors"] = gate.errors
    metrics = {}
    for k, v in values.items():
        metrics[k] = {"value": v, "unit": units[k]}
    result = {
        "correct": not gate.errors and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, detail
