"""In-memory span tracer that times ldpcsim's public functions from outside.

The tracer swaps each traced function, on every module that calls it, for a
wrapper that records one span: name, start, end, parent span and unit id
(one unit is one benchmark operation).  Spans live in flat arrays while the
benchmark runs and are written out at the end.  `restore` puts every
original function back; `check_restored` proves it.

Self time is a span's duration minus the time its direct children cover;
children never overlap because each wrapped call runs to completion on the
calling thread.  Spans recorded inside forked worker processes stay in
those processes and are not seen here.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np


def _iterations(args, kwargs, result):
    return result.iterations_used


def _block_edges(args, kwargs, result):
    # check_node_update_block(state, H, cfg, c_lo=0, c_hi=None)
    H = args[1]
    c_lo = args[3] if len(args) > 3 else kwargs.get("c_lo", 0)
    c_hi = args[4] if len(args) > 4 else kwargs.get("c_hi")
    c_hi = H.m if c_hi is None else c_hi
    return int(H.row_ptr[c_hi] - H.row_ptr[c_lo])


def _packed_words(args, kwargs, result):
    return len(args[0])


def _unpacked_words(args, kwargs, result):
    return len(result)


def _by_packed_words(args, kwargs):
    return len(args[0])


def _by_unpacked_words(args, kwargs):
    word_bytes = args[1] if len(args) > 1 else kwargs.get("word_bytes", 4)
    return sum(len(p) for p in args[0]) // word_bytes


def _by_rows(args, kwargs):
    return len(args[1])


# (span name, modules whose attribute is swapped, attribute, work, label).
# `work(args, kwargs, result)` adds to a per-unit counter for the span name;
# `label(args, kwargs)` suffixes the span name with "/<value>" so calls on
# different block sizes are told apart.
TARGETS = [
    ("decoder.decode", ("ldpcsim.decoder", "ldpcsim.cli", "ldpcsim.parsim.model"),
     "decode", _iterations, None),
    ("decoder.check_node_update_block", ("ldpcsim.decoder", "ldpcsim.parsim.model"),
     "check_node_update_block", _block_edges, None),
    ("decoder.variable_node_update", ("ldpcsim.decoder", "ldpcsim.parsim.model"),
     "variable_node_update", None, None),
    ("decoder.hard_decision", ("ldpcsim.decoder", "ldpcsim.parsim.model"),
     "hard_decision", None, None),
    ("decoder.init_state", ("ldpcsim.decoder", "ldpcsim.parsim.model"),
     "init_state", None, None),
    ("code.syndrome_ok", ("ldpcsim.decoder", "ldpcsim.parsim.model"),
     "syndrome_ok", None, None),
    ("code.generate_regular", ("ldpcsim.code",), "generate_regular", None, None),
    ("code.save_alist", ("ldpcsim.code",), "save_alist", None, None),
    ("code.load_alist", ("ldpcsim.code",), "load_alist", None, None),
    ("channel.transmit", ("ldpcsim.channel", "ldpcsim.cli"), "transmit", None, None),
    ("channel.llr_init", ("ldpcsim.channel", "ldpcsim.cli"), "llr_init", None, None),
    ("partition.pack_llrs", ("ldpcsim.parsim.workers",), "pack_llrs",
     _packed_words, _by_packed_words),
    ("partition.unpack_llrs", ("ldpcsim.parsim.workers",), "unpack_llrs",
     _unpacked_words, _by_unpacked_words),
    ("partition.attach_edge_counts",
     ("ldpcsim.partition", "ldpcsim.parsim.model", "ldpcsim.parsim.workers"),
     "attach_edge_counts", None, None),
    ("partition.plan_messages", ("ldpcsim.parsim.model",), "plan_messages", None, None),
    ("model.modeled_speedups", ("ldpcsim.parsim.model",), "modeled_speedups", None, None),
    ("model.calibrate", ("ldpcsim.parsim.model", "ldpcsim.cli"), "calibrate", None, None),
    ("model.simulate_sequential", ("ldpcsim.parsim.model", "ldpcsim.cli"),
     "simulate_sequential", None, None),
    ("model.simulate_parallel", ("ldpcsim.parsim.model", "ldpcsim.cli"),
     "simulate_parallel", None, None),
    ("workers.check_block_messages", ("ldpcsim.parsim.workers",),
     "check_block_messages", None, _by_rows),
    ("workers.run_sequential_baseline", ("ldpcsim.parsim.workers", "ldpcsim.cli"),
     "run_sequential_baseline", None, None),
    ("workers.run_parallel_workers", ("ldpcsim.parsim.workers", "ldpcsim.cli"),
     "run_parallel_workers", None, None),
    ("cli.ber_sweep", ("ldpcsim.cli",), "ber_sweep", None, None),
    ("cli.scale_rows", ("ldpcsim.cli",), "scale_rows", None, None),
]


class Tracer:
    """Span store plus the patch table of the functions it wraps."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.unit_kinds: list[str] = []
        self.work: dict[tuple[str, int], float] = {}
        self._stack: list[int] = []
        self._unit = -1
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self._unit)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_unit(self, kind: str) -> int:
        """Start a new unit (one benchmark operation) and its root span."""
        self._unit = len(self.unit_kinds)
        self.unit_kinds.append(kind)
        return self._open(f"op.{kind}")

    def end_unit(self, root: int) -> None:
        self._close(root)
        self._unit = -1

    # -- patching --------------------------------------------------------

    def _wrapper(self, name: str, fn, work, label):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if label is None else f"{name}/{label(args, kwargs)}"
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if work is not None:
                key = (name, tracer._unit)
                tracer.work[key] = tracer.work.get(key, 0) + work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for name, modules, attr, work, label in TARGETS:
            for mod_name in modules:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                self._originals.append((mod, attr, original))
                setattr(mod, attr, self._wrapper(name, original, work, label))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals = []

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "unit": np.frombuffer(self.unit, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "dur": dur,
            "self": dur - covered,
        }

    def name_index(self, name: str) -> int:
        """Id of a span name, or -1 when no span of that name was recorded."""
        return self._name_ids.get(name, -1)

    def units_of(self, kind: str) -> list[int]:
        return [u for u, k in enumerate(self.unit_kinds) if k == kind]

    def write(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            unit_kinds=np.array(self.unit_kinds),
            **{k: a[k] for k in ("name_id", "unit", "start", "end", "parent")},
        )


def check_restored() -> list[str]:
    """Names of traced attributes that are still wrappers (empty when clean)."""
    left = []
    for _, modules, attr, _, _ in TARGETS:
        for mod_name in modules:
            fn = getattr(importlib.import_module(mod_name), attr)
            if getattr(fn, "__wrapped__", None) is not None:
                left.append(f"{mod_name}.{attr}")
    return left
