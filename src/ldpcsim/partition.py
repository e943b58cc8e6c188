"""Equal check-node grouping and the 128-byte packet wire format.

The star schedule keeps all variable nodes on the master; each slave owns
a contiguous block of check nodes.  Per iteration the master sends each
slave the per-edge differences for its block and receives the refreshed
check messages back.  Wire payloads are little-endian word arrays split
into packets of at most 128 bytes; headers are not modeled here (the cost
model prices per-packet overhead instead).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from .code import ParityCheckMatrix
from .decoder import QFormat
from .errors import NotDivisible, PacketOverflow, PartitionMismatch

PACKET_BYTES = 128


@dataclass(frozen=True)
class Partition:
    """Contiguous check blocks: slave s owns checks check_bounds[s]:check_bounds[s+1].
    make_partition leaves edge_bounds empty; attach_edge_counts binds them to H
    once, after which slave s owns edge ids edge_bounds[s]:edge_bounds[s+1]."""

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
    """Per-slave payload/packet counts for one direction of one iteration."""

    word_bytes: int
    to_slave_bytes: tuple[int, ...]
    to_slave_packets: tuple[int, ...]
    to_master_bytes: tuple[int, ...]
    to_master_packets: tuple[int, ...]

    @property
    def total_bytes(self) -> int:
        return sum(self.to_slave_bytes) + sum(self.to_master_bytes)


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
    """Payload and packet counts per slave, both directions.

    Each direction carries one word per edge of the slave's block: the
    differences going out, the refreshed check messages coming back.
    The edge counts always come from binding p to this H.
    """
    nbytes = tuple(e * word_bytes for e in attach_edge_counts(p, H).edge_counts)
    packets = tuple(packet_count(b) for b in nbytes)
    return MessagePlan(
        word_bytes=word_bytes,
        to_slave_bytes=nbytes,
        to_slave_packets=packets,
        to_master_bytes=nbytes,
        to_master_packets=packets,
    )


def _word_codec(word_bytes: int, qformat: QFormat | None):
    if qformat is not None:
        fmt = {2: "h", 4: "i", 8: "q"}.get(word_bytes)
        if fmt is None:
            raise PacketOverflow(f"unsupported fixed-point word size {word_bytes}")
        scale = float(2**qformat.frac_bits)
        return fmt, lambda x: int(round(x * scale)), lambda i: i / scale
    fmt = {4: "f", 8: "d"}.get(word_bytes)
    if fmt is None:
        raise PacketOverflow(f"unsupported float word size {word_bytes}")
    return fmt, float, float


def pack_llrs(
    values, word_bytes: int = 4, qformat: QFormat | None = None
) -> list[bytes]:
    """Encode LLR values into <=128-byte little-endian packets.

    Float mode stores float32 (word_bytes=4) or float64 (word_bytes=8);
    fixed-point mode stores the Q-format integers.
    """
    fmt, enc, _ = _word_codec(word_bytes, qformat)
    words_per_packet = PACKET_BYTES // word_bytes
    values = list(values)
    packets = []
    for lo in range(0, len(values), words_per_packet):
        chunk = values[lo : lo + words_per_packet]
        pkt = struct.pack(f"<{len(chunk)}{fmt}", *(enc(v) for v in chunk))
        if len(pkt) > PACKET_BYTES:
            raise PacketOverflow(f"packet of {len(pkt)} bytes")
        packets.append(pkt)
    return packets


def unpack_llrs(
    packets, word_bytes: int = 4, qformat: QFormat | None = None
) -> list[float]:
    """Inverse of pack_llrs; exact for values representable on the wire."""
    fmt, _, dec = _word_codec(word_bytes, qformat)
    out: list[float] = []
    for pkt in packets:
        if len(pkt) > PACKET_BYTES:
            raise PacketOverflow(f"packet of {len(pkt)} bytes")
        count = len(pkt) // word_bytes
        out.extend(dec(w) for w in struct.unpack(f"<{count}{fmt}", pkt))
    return out


def edge_slices(H: ParityCheckMatrix, p: Partition) -> list[tuple[int, int]]:
    """Per-slave [lo, hi) edge-id range of its contiguous check block in H."""
    b = attach_edge_counts(p, H).edge_bounds
    return list(zip(b, b[1:]))
