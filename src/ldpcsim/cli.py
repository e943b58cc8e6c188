"""Command-line front end: code generation, single decodes, BER curves
and the throughput/speedup scenario sweep.

Exit codes: 0 success, 1 runtime error, 2 invalid arguments, infeasible
parameters or an input file that cannot be read or parsed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import asdict, fields, replace

import numpy as np

from .channel import ChannelConfig, llr_init, modulate, transmit
from .code import CodeInfo, ParityCheckMatrix, generate_regular, load_alist, save_alist
from .decoder import DecodeResult, DecoderConfig, QFormat, decode, worst_case_config
from .errors import (
    ConfigurationError,
    EmptyRowOrColumn,
    InfeasibleParameters,
    LdpcError,
    MalformedAlist,
    NotDivisible,
    WorkerError,
)
from .parsim import (
    DEFAULT_SPEEDUP_TARGETS,
    CostModel,
    MeshPlacement,
    calibrate,
    plot_csv,
    run_parallel_workers,
    run_sequential_baseline,
    simulate_parallel,
    simulate_sequential,
)
from .parsim.workers import fork_shares, worker_count
from .partition import make_partition

DEFAULT_PROCESSORS = [1, 3, 4, 5, 7, 8, 10]
SCALE_MODES = ("costmodel", "threads")


def _read_input(flag: str, path: str, parse):
    """parse(text) of the input file `path` given by `flag`.  A file that
    cannot be read, or that parse rejects, is bad input: it raises
    InfeasibleParameters (exit 2) naming the flag."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InfeasibleParameters(f"{flag} {path}: cannot read: {exc}") from exc
    except (MalformedAlist, EmptyRowOrColumn, ValueError) as exc:
        raise InfeasibleParameters(f"{flag} {path}: {type(exc).__name__}: {exc}") from exc


def _read_matrix(args) -> ParityCheckMatrix:
    if getattr(args, "gen", None):
        n, wc, wr = args.gen
        return generate_regular(n, wc, wr, seed=args.seed)
    if not args.matrix:
        raise InfeasibleParameters("need --matrix PATH or --gen N WC WR")
    return _read_input("--matrix", args.matrix, load_alist)


def _qformat(spec: str | None) -> QFormat | None:
    if not spec:
        return None
    total, dot, frac = spec.partition(".")
    if not (dot and total.isdecimal() and frac.isdecimal()):
        raise ConfigurationError(f"--qformat expects TOTAL.FRAC, e.g. 8.4, got {spec!r}")
    try:
        return QFormat(int(total), int(frac))
    except ConfigurationError as exc:
        raise ConfigurationError(f"--qformat {spec}: {exc}") from exc


def _decoder_config(args) -> DecoderConfig:
    return DecoderConfig(
        max_iter=args.max_iter,
        early_exit=not args.no_early_exit,
        clamp=args.clamp,
        qformat=_qformat(getattr(args, "qformat", None)),
    )


def _parse_llrs(text: str) -> np.ndarray:
    values = np.array([float(line) for line in text.splitlines() if line.strip()])
    if not np.isfinite(values).all():
        raise ValueError("LLRs must be finite")
    return values


def _prior_from_args(H: ParityCheckMatrix, args) -> np.ndarray:
    if getattr(args, "llr_file", None):
        values = _read_input("--llr-file", args.llr_file, _parse_llrs)
        if len(values) != H.n:
            raise InfeasibleParameters(f"--llr-file holds {len(values)} LLRs, need n={H.n}")
        return values
    ch = ChannelConfig(ebno_db=args.ebno, rate=CodeInfo.from_matrix(H).rate, seed=args.seed)
    return llr_init(transmit(modulate(np.zeros(H.n, dtype=np.uint8)), ch), ch)


def _result_json(result: DecodeResult, n: int) -> dict:
    return {
        "n": n,
        "converged": bool(result.converged),
        "iterations_used": int(result.iterations_used),
        "bits_hex": np.packbits(result.bits).tobytes().hex(),
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cost_model(args) -> tuple[CostModel, dict[int, MeshPlacement], dict[int, float]]:
    """Cost model, placement overrides and calibration targets from a
    "key = value" file: cost fields by name, "placement_5 = 3x2@1,0",
    "target_5 = 1.25"."""
    overrides, placements, targets = {}, {}, {}

    def parse(text: str) -> None:
        names = {f.name for f in fields(CostModel)}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key.startswith("placement_"):
                procs = int(key.removeprefix("placement_"))
                placements[procs] = MeshPlacement.from_spec(procs, value)
            elif key.startswith("target_"):
                targets[int(key.removeprefix("target_"))] = float(value)
            elif key in names:
                overrides[key] = float(value)
            else:
                raise InfeasibleParameters(f"unknown cost model key {key!r}")

    if getattr(args, "cost_config", None):
        _read_input("--cost-config", args.cost_config, parse)
    return replace(CostModel(), **overrides), placements, targets


def cmd_gen(args) -> int:
    H = generate_regular(args.n, args.wc, args.wr, seed=args.seed)
    _emit(save_alist(H), args.out)
    return 0


def cmd_decode(args) -> int:
    H = _read_matrix(args)
    prior = _prior_from_args(H, args)
    result = decode(H, prior, _decoder_config(args))
    _emit(json.dumps(_result_json(result, H.n), indent=2) + "\n", args.out)
    return 0


# Most words resident in a share's decoder state in `ber_sweep`.  A batch shares
# numpy's per-call cost over its words.  On the 504-bit (3,6) code a 2-point,
# 100k-bit sweep ran 2.5x faster than one word at a time with 8 words
# (+1.0 MB peak RSS), 3.4x with 16 (+1.7 MB) and 4.1x with 32 (+3.1 MB);
# 16 keeps the growth under 5% of the 40 MB process.  The state grows
# with the words times H's padded row slots and column slots (`H.slots`,
# 1,512 of each on that code); `ber_batch_width` scales the words by both,
# so larger codes get fewer words, the same memory.
BER_BATCH = 16
_BATCH_SLOTS = BER_BATCH * (1512 + 1512)


def ber_batch_width(H: ParityCheckMatrix) -> int:
    """Words resident in a share's decoder state in `ber_sweep` on H, and
    words per chunk of noise: BER_BATCH, scaled down on codes with more
    than 3,024 row and column slots, and at least one."""
    return max(1, min(BER_BATCH, _BATCH_SLOTS // (H.slots.var.size + H.slots.col.size)))


def _share_priors(
    H: ParityCheckMatrix, channels: list[ChannelConfig], sizes: list[int], rank: int, procs: int
) -> Iterator[np.ndarray]:
    """The priors of the chunks i with i % procs == rank of every point,
    in order, one (size, n) array per chunk.

    Every chunk's noise is drawn, so each point's stream stays in step
    whichever chunks this share decodes.
    """
    symbols = modulate(np.zeros(H.n, dtype=np.uint8))
    for idx, ch in enumerate(channels):
        rng = np.random.default_rng([ch.seed, idx])
        for chunk, size in enumerate(sizes):
            received = transmit(np.broadcast_to(symbols, (size, H.n)), ch, rng=rng)
            if chunk % procs == rank:
                yield llr_init(received, ch)


def _sweep_share(
    H: ParityCheckMatrix,
    channels: list[ChannelConfig],
    sizes: list[int],
    cfg: DecoderConfig,
    rank: int,
    procs: int,
) -> list[tuple[int, int, int]]:
    """(bit errors, frame errors, iterations) per point, summed over the
    chunks i with i % procs == rank, whose words one `decode` call streams
    through one decoder state.  A point's words are a contiguous run of the
    result."""
    result = decode(H, _share_priors(H, channels, sizes, rank, procs), cfg)
    words = sum(sizes[rank::procs])
    totals = []
    for first in range(0, len(channels) * words, words):
        bits = result.bits[first : first + words]
        totals.append((
            int(bits.sum()),
            int(bits.any(axis=1).sum()),
            int(result.word_iterations[first : first + words].sum()),
        ))
    return totals


def ber_sweep(
    H: ParityCheckMatrix,
    ebno_list: list[float],
    min_bits: int,
    seed: int,
    cfg: DecoderConfig | None = None,
) -> list[dict]:
    """Monte-Carlo BER rows, all-zero codeword, one rng substream per point.

    Each point decodes ceil(min_bits / n) words, whose noise is drawn in
    chunks of `ber_batch_width(H)` words.  The chunks are spread over
    `worker_count()` processes (LDPC_PARSIM_THREADS when set, else this
    process's CPUs; at most one per chunk of a point): process r decodes
    chunks i with i % processes == r of every point, in one `decode`
    stream; this one is r = 0 and the others are forked.  The counts are
    integer sums of per-word outcomes, so the rows do not depend on the
    process count.
    frame_errors counts the words with at least one wrong bit.
    """
    if min_bits < 1:
        raise ValueError(f"min_bits must be >= 1, got {min_bits}")
    if not ebno_list:
        raise ValueError("ebno_list names no Eb/N0 point")
    cfg = cfg or DecoderConfig()
    rate = CodeInfo.from_matrix(H).rate
    channels = [ChannelConfig(ebno_db=ebno, rate=rate, seed=seed) for ebno in ebno_list]
    words = -(-min_bits // H.n)
    width = ber_batch_width(H)
    sizes = [min(width, words - first) for first in range(0, words, width)]
    procs = min(worker_count(), len(sizes))
    shares = fork_shares(functools.partial(_sweep_share, H, channels, sizes, cfg), procs)
    rows = []
    bits = words * H.n
    for ebno, point in zip(ebno_list, zip(*shares)):
        errors, frame_errors, iters = (sum(col) for col in zip(*point))
        rows.append(
            {
                "ebno_db": ebno,
                "bits": bits,
                "errors": errors,
                "ber": errors / bits,
                "avg_iters": iters / words,
                "frame_errors": frame_errors,
            }
        )
    return rows


def _flag_list(flag: str, spec: str, kind, valid, expects: str) -> list:
    """The comma-separated values of `flag`, each read by `kind`;
    InfeasibleParameters naming the flag unless every one reads and is
    `valid`."""
    try:
        values = [kind(x) for x in spec.split(",")]
        if all(valid(x) for x in values):
            return values
    except ValueError:
        pass
    raise InfeasibleParameters(f"{flag} expects comma-separated {expects}, got {spec!r}")


def cmd_ber(args) -> int:
    if args.min_bits < 10_000:
        raise InfeasibleParameters("--min-bits must be at least 10000")
    ebno_list = _flag_list("--ebno", args.ebno, float, math.isfinite,
                           "finite dB values, e.g. 0,1.5,3")
    H = _read_matrix(args)
    rows = ber_sweep(H, ebno_list, args.min_bits, args.seed, _decoder_config(args))
    lines = ["ebno_db,bits,errors,ber,avg_iters,frame_errors"]
    for r in rows:
        lines.append(
            f"{r['ebno_db']:g},{r['bits']},{r['errors']},{r['ber']:.6g},"
            f"{r['avg_iters']:.3f},{r['frame_errors']}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def scale_rows(
    H: ParityCheckMatrix,
    processors: list[int],
    mode: str,
    prior: np.ndarray,
    cfg: DecoderConfig,
    cm: CostModel,
    worst_case: bool,
    reps: int,
    placements: dict[int, MeshPlacement] | None = None,
) -> tuple[list[dict], list]:
    """The scenario sweep: one row per requested processor count, plus
    the reports (baseline first, then each scenario that ran, with its
    speedup over the baseline).

    `mode` picks the executor pair: "costmodel" decodes the word once and
    prices that run with `simulate_sequential`/`simulate_parallel`,
    "threads" times live workers with
    `run_sequential_baseline`/`run_parallel_workers`; any other mode
    raises ValueError before either runs.  Non-divisible or failed
    scenarios are reported as skipped with the reason.
    """
    if mode not in SCALE_MODES:
        raise ValueError(f"unknown scale mode {mode!r}; expected one of {SCALE_MODES}")
    placements = placements or {}
    if mode == "costmodel":
        run = decode(H, prior, worst_case_config(cfg) if worst_case else cfg)
        base = simulate_sequential(H, run, cm)
    else:
        _, base = run_sequential_baseline(H, prior, cfg, reps=reps, worst_case=worst_case)
    rows = []
    reports = [base]
    for idx, procs in enumerate(processors, start=1):
        row = {"scenario": idx, "processors": procs, "status": "ok", "reason": ""}
        if procs == 1:
            row.update(throughput_kbps=base.throughput_kbps, speedup="-")
            rows.append(row)
            continue
        slaves = procs - 1
        try:
            part = make_partition(H.m, slaves)
            if mode == "costmodel":
                rep = simulate_parallel(H, run, part, cm, placements.get(procs))
            else:
                _, rep = run_parallel_workers(
                    H, prior, cfg, part, reps=reps, worst_case=worst_case
                )
        except (NotDivisible, WorkerError) as exc:
            row.update(
                throughput_kbps=None,
                speedup=None,
                status="skipped",
                reason=f"{type(exc).__name__}: {exc}",
            )
            rows.append(row)
            continue
        rep.speedup = base.time_seconds / rep.time_seconds
        reports.append(rep)
        row.update(throughput_kbps=rep.throughput_kbps, speedup=rep.speedup)
        rows.append(row)
    return rows, reports


def _scale_csv(rows: list[dict]) -> str:
    lines = ["scenario,processors,throughput_kbps,speedup,status,reason"]
    for r in rows:
        thr = "" if r["throughput_kbps"] is None else f"{r['throughput_kbps']:.6g}"
        sp = r["speedup"]
        sp = "" if sp is None else (sp if isinstance(sp, str) else f"{sp:.4g}")
        lines.append(
            f"{r['scenario']},{r['processors']},{thr},{sp},{r['status']},{r['reason']}"
        )
    return "\n".join(lines) + "\n"


def cmd_scale(args) -> int:
    processors = _flag_list("--processors", args.processors, int, lambda p: p >= 1,
                            "processor counts >= 1, e.g. 1,3,5")
    if args.reps < 1:
        raise InfeasibleParameters(f"--reps must be at least 1, got {args.reps}")
    H = _read_matrix(args)
    cfg = _decoder_config(args)
    cm, placements, targets = _cost_model(args)
    if args.calibrate:
        cm = calibrate(cm, targets or DEFAULT_SPEEDUP_TARGETS, H)
    prior = _prior_from_args(H, args)
    rows, reports = scale_rows(
        H,
        processors,
        args.mode,
        prior,
        cfg,
        cm,
        worst_case=args.worst_case,
        reps=args.reps,
        placements=placements,
    )
    if args.format == "json":
        payload = {
            "mode": args.mode,
            "worst_case": args.worst_case,
            "cost_model": asdict(cm),
            "rows": rows,
            "reports": [asdict(rep) for rep in reports],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(_scale_csv(rows), args.out)
    if args.plot_out:
        _emit(plot_csv(reports), args.plot_out)
    return 0


def _add_decoder_flags(sub) -> None:
    sub.add_argument("--max-iter", type=int, default=30)
    sub.add_argument("--no-early-exit", action="store_true")
    sub.add_argument("--clamp", type=float, default=64.0)
    sub.add_argument("--qformat", help="fixed-point Q-format TOTAL.FRAC, e.g. 8.4")


def _add_matrix_flags(sub) -> None:
    sub.add_argument("--matrix", help="alist file")
    sub.add_argument("--gen", type=int, nargs=3, metavar=("N", "WC", "WR"),
                     help="generate a regular code instead of loading one")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpcsim",
        description="Reduced min-sum LDPC decoding, partitioned execution "
        "and throughput/speedup reporting",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a regular code as alist")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--wc", type=int, required=True)
    gen.add_argument("--wr", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_gen)

    dec = subs.add_parser("decode", help="decode one word, print JSON")
    _add_matrix_flags(dec)
    dec.add_argument("--llr-file", help="one LLR per line")
    dec.add_argument("--ebno", type=float, default=3.0,
                     help="transmit the all-zero codeword at this Eb/N0 (dB)")
    _add_decoder_flags(dec)
    dec.add_argument("--out")
    dec.set_defaults(func=cmd_decode)

    ber = subs.add_parser("ber", help="Monte-Carlo BER curve as CSV")
    _add_matrix_flags(ber)
    ber.add_argument("--ebno", default="0,1,2,3", help="comma-separated dB list")
    ber.add_argument("--min-bits", type=int, default=100_000)
    _add_decoder_flags(ber)
    ber.add_argument("--out")
    ber.set_defaults(func=cmd_ber)

    scale = subs.add_parser("scale", help="throughput/speedup scenario sweep")
    _add_matrix_flags(scale)
    scale.add_argument(
        "--processors",
        default=",".join(str(p) for p in DEFAULT_PROCESSORS),
        help="comma-separated total processor counts (master included)",
    )
    scale.add_argument("--mode", choices=SCALE_MODES, default="costmodel")
    scale.add_argument("--ebno", type=float, default=3.0)
    scale.add_argument("--worst-case", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="force the full iteration budget in every scenario")
    scale.add_argument("--reps", type=int, default=100,
                       help="decode repetitions per scenario in threads mode")
    scale.add_argument("--cost-config", help="key=value overrides for the cost model")
    scale.add_argument("--calibrate", action="store_true",
                       help="fit comm costs to the bundled reference speedups first")
    _add_decoder_flags(scale)
    scale.add_argument("--format", choices=["csv", "json"], default="csv")
    scale.add_argument("--out")
    scale.add_argument("--plot-out", help="also write plot data (nS,Par,Seq)")
    scale.set_defaults(func=cmd_scale)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, InfeasibleParameters, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LdpcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
