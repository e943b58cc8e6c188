"""Equal check-node grouping and the 128-byte packet wire format.

The star schedule keeps all variable nodes on the master; each slave owns
a contiguous block of check nodes.  Per iteration the master sends each
slave the per-edge differences for its block and receives the refreshed
check messages back.  Wire payloads are little-endian word arrays: each
block is encoded in one numpy step and its packets of at most 128 bytes
are slices of that one buffer; decoding joins the packets and decodes
them in one step.  Headers are not modeled here (the cost model prices
per-packet overhead instead).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .code import ParityCheckMatrix
from .decoder import QFormat
from .errors import NotDivisible, PacketOverflow, PartitionMismatch

PACKET_BYTES = 128


@dataclass(frozen=True)
class Partition:
    """Contiguous check blocks: slave s owns checks check_bounds[s]:check_bounds[s+1].
    make_partition leaves edge_bounds empty; each attach_edge_counts call binds
    them to H, after which slave s owns edge ids edge_bounds[s]:edge_bounds[s+1]."""

    check_bounds: tuple[int, ...]
    edge_bounds: tuple[int, ...] = ()

    @property
    def num_slaves(self) -> int:
        return len(self.check_bounds) - 1

    @property
    def group_bounds(self) -> list[tuple[int, int]]:
        """[start, stop) check-index range per slave."""
        return list(zip(self.check_bounds, self.check_bounds[1:]))

    @property
    def edge_counts(self) -> tuple[int, ...]:
        """Edges per slave block; empty until bound to a matrix."""
        return tuple(hi - lo for lo, hi in zip(self.edge_bounds, self.edge_bounds[1:]))


@dataclass(frozen=True)
class MessagePlan:
    """Per-slave payload/packet counts of one iteration's scatter.  The
    gather carries the same counts back, one message per difference."""

    word_bytes: int
    to_slave_bytes: tuple[int, ...]
    to_slave_packets: tuple[int, ...]


def make_partition(m: int, num_slaves: int) -> Partition:
    """Split m checks into num_slaves equal contiguous blocks (unbound)."""
    if num_slaves < 1:
        raise NotDivisible(f"need at least one slave, got {num_slaves}")
    if m % num_slaves != 0:
        raise NotDivisible(f"{m} check nodes not divisible by {num_slaves} slaves")
    return Partition(check_bounds=tuple(range(0, m + 1, m // num_slaves)))


def attach_edge_counts(p: Partition, H: ParityCheckMatrix) -> Partition:
    """Bind the check boundaries to H: check that they rise from 0 to H.m,
    then gather the per-slave edge bounds from H.row_ptr in one step."""
    b = p.check_bounds
    if b[0] != 0 or b[-1] != H.m or any(lo >= hi for lo, hi in zip(b, b[1:])):
        raise PartitionMismatch(
            f"partition boundaries {b[0]}..{b[-1]} do not rise to the {H.m} checks of H"
        )
    return replace(p, edge_bounds=tuple(H.row_ptr[list(b)].tolist()))


def packet_count(payload_bytes: int) -> int:
    return -(-payload_bytes // PACKET_BYTES) if payload_bytes > 0 else 0


def plan_messages(
    H: ParityCheckMatrix, p: Partition, word_bytes: int = 4
) -> MessagePlan:
    """Payload and packet counts per slave.

    Each direction carries one word per edge of the slave's block: the
    differences going out, the refreshed check messages coming back.
    The edge counts always come from binding p to this H.
    """
    nbytes = tuple(e * word_bytes for e in attach_edge_counts(p, H).edge_counts)
    return MessagePlan(
        word_bytes=word_bytes,
        to_slave_bytes=nbytes,
        to_slave_packets=tuple(packet_count(b) for b in nbytes),
    )


_FLOAT_WIRE = {4: np.dtype("<f4"), 8: np.dtype("<f8")}
_FIXED_WIRE = {2: np.dtype("<i2"), 4: np.dtype("<i4"), 8: np.dtype("<i8")}


def _wire_dtype(word_bytes: int, qformat: QFormat | None) -> np.dtype:
    if qformat is None:
        table, kind = _FLOAT_WIRE, "float"
    else:
        table, kind = _FIXED_WIRE, "fixed-point"
    if word_bytes not in table:
        raise PacketOverflow(f"unsupported {kind} word size {word_bytes}")
    return table[word_bytes]


def _wire_words(values, dtype: np.dtype, qformat: QFormat | None) -> np.ndarray:
    """The values (an iterable, or an array taken as is) as one array of
    wire words; raises PacketOverflow for a value its word cannot hold
    instead of wrapping it or writing inf."""
    try:
        x = (np.asarray(values, np.float64) if isinstance(values, np.ndarray)
             else np.fromiter(values, np.float64))
    except OverflowError as exc:
        raise PacketOverflow(f"value does not fit a float64: {exc}") from exc
    with np.errstate(over="ignore"):
        if qformat is not None:
            x = np.rint(x * 2.0**qformat.frac_bits)
            bound = 2.0 ** (8 * dtype.itemsize - 1)
            # False for NaN as well as for infinities and out-of-range words.
            if not ((x >= -bound) & (x < bound)).all():
                raise PacketOverflow(
                    f"value outside the {dtype.itemsize}-byte {qformat} word range"
                )
        words = x.astype(dtype, copy=False)
    # A finite value that rounds past the float32 range becomes inf.
    if dtype == _FLOAT_WIRE[4] and (
        np.count_nonzero(np.isinf(words)) != np.count_nonzero(np.isinf(x))
    ):
        raise PacketOverflow("value outside the float32 range")
    return words


def pack_llrs(
    values, word_bytes: int = 4, qformat: QFormat | None = None
) -> list[bytes]:
    """Encode LLR values into <=128-byte little-endian packets.

    Float mode stores float32 (word_bytes=4) or float64 (word_bytes=8);
    fixed-point mode stores the Q-format integers (2, 4 or 8 bytes),
    rounded half to even.  The block is encoded in one step and the
    packets are slices of that one buffer.
    """
    words = _wire_words(values, _wire_dtype(word_bytes, qformat), qformat)
    return split_packets(words.tobytes())


def split_packets(buf: bytes, offset: int = 0) -> list[bytes]:
    """buf[offset:] cut into consecutive packets of PACKET_BYTES, the last
    one shorter when the length is not a multiple."""
    full = (len(buf) - offset) // PACKET_BYTES
    # A void view hands out every whole packet as a bytes object in one step.
    packets = np.frombuffer(buf, f"V{PACKET_BYTES}", full, offset).tolist()
    rest = offset + full * PACKET_BYTES
    if rest < len(buf):
        packets.append(buf[rest:])
    return packets


def unpack_llrs(
    packets, word_bytes: int = 4, qformat: QFormat | None = None
) -> np.ndarray:
    """Inverse of pack_llrs, as a float64 array (read-only when the wire
    words are float64 already); exact for values representable on the
    wire."""
    dtype = _wire_dtype(word_bytes, qformat)
    packets = list(packets)
    for pkt in packets:
        if len(pkt) > PACKET_BYTES:
            raise PacketOverflow(f"packet of {len(pkt)} bytes")
        if len(pkt) % word_bytes:
            raise PacketOverflow(
                f"packet of {len(pkt)} bytes is not whole {word_bytes}-byte words"
            )
    words = np.frombuffer(b"".join(packets), dtype)
    if qformat is not None:
        words = words / 2.0**qformat.frac_bits
    return words.astype(np.float64, copy=False)


def edge_slices(H: ParityCheckMatrix, p: Partition) -> list[tuple[int, int]]:
    """Per-slave [lo, hi) edge-id range of its contiguous check block in H."""
    b = attach_edge_counts(p, H).edge_bounds
    return list(zip(b, b[1:]))
