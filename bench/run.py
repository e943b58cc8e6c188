#!/usr/bin/env python3
"""Run one workload of the ldpcsim benchmark and print its result.

    python3 bench/run.py --workload ber-sweep --seed 1 --seconds 34 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.  The
line before it is a JSON detail record (host, spreads, sample counts,
speedups with their bases, gate errors); a readable summary goes to
standard error.  Traced runs also write their spans under `.bench_out/`.

Exit codes: 0 all outputs correct, 1 an output failed the gate (the result
is still printed), 2 the package or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ber-sweep", "worst-case-word", "scale-model")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=34.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import ldpcsim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ldpcsim" / "__init__.py").is_file():
        raise ImportError(f"no ldpcsim package under {src}")
    sys.path.insert(0, str(src))
    import ldpcsim

    if Path(ldpcsim.__file__).resolve().parent != (src / "ldpcsim").resolve():
        raise ImportError(f"ldpcsim imported from {ldpcsim.__file__}, not {src}")


def report(result: dict, detail: dict) -> str:
    lines = [f"{detail['workload']} seed={detail['seed']} rounds={detail['rounds']} "
             f"correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}"]
    for name, m in result["metrics"].items():
        extra = detail.get(name) or {}
        spread = extra.get("spread")
        lines.append(f"  {name:40s} {m['value']!s:>22} {m['unit']:14s}"
                     + (f" spread {spread:.3f} n={extra['n']}" if spread is not None else ""))
    for name, sp in detail.get("speedup", {}).items():
        lines.append(f"  speedup {name} = scalar {sp['scalar_ms']:.3f} ms / workers "
                     f"{sp['workers_ms']:.3f} ms = {sp['ratio']:.3f} (not gated)")
    for name, why in detail.get("skipped", {}).items():
        lines.append(f"  skipped {name}: {why}")
    lines.append(f"  host {json.dumps(detail['host'])}")
    lines.append(f"  {detail['note']}")
    lines.extend(f"  ERROR {e}" for e in detail["errors"])
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness

    result, detail = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        out_dir=ROOT / ".bench_out",
    )
    print(report(result, detail), file=sys.stderr)
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
