import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcsim.code import ParityCheckMatrix, generate_regular
from ldpcsim.decoder import QFormat
from ldpcsim.errors import NotDivisible, PacketOverflow, PartitionMismatch
from ldpcsim.partition import (
    PACKET_BYTES,
    Partition,
    attach_edge_counts,
    edge_slices,
    make_partition,
    pack_llrs,
    packet_count,
    plan_messages,
    split_packets,
    unpack_llrs,
)

from conftest import SMALL_REGULAR_PARAMS


# The per-packet struct codec the numpy codec replaced, kept verbatim as the
# oracle for the wire bytes and the decoded floats.
def _oracle_word_codec(word_bytes: int, qformat: QFormat | None):
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


def oracle_pack_llrs(
    values, word_bytes: int = 4, qformat: QFormat | None = None
) -> list[bytes]:
    fmt, enc, _ = _oracle_word_codec(word_bytes, qformat)
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


def oracle_unpack_llrs(
    packets, word_bytes: int = 4, qformat: QFormat | None = None
) -> list[float]:
    fmt, _, dec = _oracle_word_codec(word_bytes, qformat)
    out: list[float] = []
    for pkt in packets:
        if len(pkt) > PACKET_BYTES:
            raise PacketOverflow(f"packet of {len(pkt)} bytes")
        count = len(pkt) // word_bytes
        out.extend(dec(w) for w in struct.unpack(f"<{count}{fmt}", pkt))
    return out


class TestMakePartition:
    def test_fixture_four_slaves(self):
        p = make_partition(252, 4)
        assert all(hi - lo == 63 for lo, hi in p.group_bounds)
        assert p.group_bounds[1][0] == 63
        assert p.group_bounds[3][1] - 1 == 251

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            make_partition(252, 5)

    def test_two_groups_of_two(self):
        p = make_partition(4, 2)
        assert p.group_bounds == [(0, 2), (2, 4)]

    def test_zero_slaves_rejected(self):
        with pytest.raises(NotDivisible):
            make_partition(4, 0)

    @pytest.mark.parametrize("m", [12, 36, 252])
    def test_cover_disjoint_equal_sweep(self, m):
        for s in range(1, m + 1):
            if m % s != 0:
                continue
            p = make_partition(m, s)
            flat = [c for lo, hi in p.group_bounds for c in range(lo, hi)]
            assert flat == list(range(m))
            assert len({hi - lo for lo, hi in p.group_bounds}) == 1

    def test_validate_against_wrong_matrix(self, fixture252):
        p = make_partition(16, 2)
        with pytest.raises(PartitionMismatch):
            attach_edge_counts(p, fixture252)
        with pytest.raises(PartitionMismatch):
            edge_slices(fixture252, p)


class TestPlanMessages:
    def test_fixture_group_plans_twelve_packets(self, fixture252):
        plan = plan_messages(fixture252, make_partition(252, 4))
        assert plan.to_slave_bytes == (1512,) * 4
        assert plan.to_slave_packets == (12,) * 4

    def test_empty_payload_zero_packets(self):
        assert packet_count(0) == 0

    def test_exact_boundary_single_packet(self):
        assert packet_count(128) == 1
        assert packet_count(129) == 2

    def test_total_payload_conservation(self, fixture252):
        for slaves in [1, 2, 3, 4, 6, 7, 9, 12]:
            plan = plan_messages(fixture252, make_partition(252, slaves))
            assert 2 * sum(plan.to_slave_bytes) == 2 * fixture252.edges * 4

    def test_edge_counts_attached(self, fixture252):
        p = attach_edge_counts(make_partition(252, 6), fixture252)
        assert p.edge_counts == (252,) * 6
        assert edge_slices(fixture252, p)[1] == (252, 504)

    def test_plans_from_the_matrix_given_not_a_stale_binding(self):
        # Same m and E, different row degrees: (3,2,3,2) against (2,2,3,3).
        H1 = ParityCheckMatrix([[0, 1, 2], [3, 4], [5, 6, 7], [0, 4]], 8)
        H2 = ParityCheckMatrix([[0, 1], [2, 3], [4, 5, 6], [7, 0, 3]], 8)
        assert (H1.m, H1.edges) == (H2.m, H2.edges)
        bound = attach_edge_counts(make_partition(4, 2), H1)
        assert bound.edge_bounds == (0, 5, 10)
        hand_built = Partition(check_bounds=(0, 2, 4), edge_bounds=(0, 5, 10))
        for p in (bound, hand_built):
            assert edge_slices(H2, p) == [(0, 4), (4, 10)]
            assert plan_messages(H2, p).to_slave_bytes == (16, 24)


@settings(max_examples=25, deadline=None)
@given(
    params=st.sampled_from(SMALL_REGULAR_PARAMS),
    seed=st.integers(0, 2**16),
    word_bytes=st.sampled_from([4, 8]),
)
def test_edge_geometry_agrees_for_every_divisor(params, seed, word_bytes):
    n, wc, wr = params
    H = generate_regular(n, wc, wr, seed=seed)
    for s in (d for d in range(1, H.m + 1) if H.m % d == 0):
        p = make_partition(H.m, s)
        slices = edge_slices(H, p)
        assert slices[0][0] == 0 and slices[-1][1] == H.edges
        assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))
        counts = attach_edge_counts(p, H).edge_counts
        assert counts == tuple(hi - lo for lo, hi in slices)
        plan = plan_messages(H, p, word_bytes=word_bytes)
        assert 2 * sum(plan.to_slave_bytes) == 2 * H.edges * word_bytes
        assert plan.to_slave_bytes == tuple(c * word_bytes for c in counts)
        assert plan.to_slave_packets == tuple(
            -(-b // PACKET_BYTES) for b in plan.to_slave_bytes
        )


class TestPackUnpack:
    def test_thirty_two_floats_fill_one_packet(self):
        packets = pack_llrs([1.0] * 32)
        assert len(packets) == 1
        assert len(packets[0]) == PACKET_BYTES

    def test_boundary_plus_one(self):
        packets = pack_llrs([1.0] * 33)
        assert [len(p) for p in packets] == [128, 4]

    def test_float32_round_trip_exact(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 8, 1000).astype(np.float32).astype(float).tolist()
        assert unpack_llrs(pack_llrs(values)).tolist() == values

    def test_float64_round_trip_exact(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 8, 1000).tolist()
        assert unpack_llrs(pack_llrs(values, word_bytes=8), word_bytes=8).tolist() == values

    def test_qformat_round_trip_exact(self):
        q = QFormat(8, 4)
        values = (np.arange(-127, 128) / 16.0).tolist()
        got = unpack_llrs(pack_llrs(values, qformat=q), qformat=q)
        assert got.tolist() == values

    def test_no_packet_exceeds_limit_and_bytes_conserved(self):
        for count in [0, 1, 31, 32, 33, 100, 377, 378]:
            packets = pack_llrs([0.5] * count)
            assert all(len(p) <= PACKET_BYTES for p in packets)
            assert sum(len(p) for p in packets) == count * 4
            assert len(packets) == packet_count(count * 4)

    def test_oversize_packet_rejected_on_unpack(self):
        with pytest.raises(PacketOverflow):
            unpack_llrs([bytes(129)])

    def test_unsupported_word_size(self):
        with pytest.raises(PacketOverflow):
            pack_llrs([1.0], word_bytes=3)

    def test_unsupported_fixed_point_word_size(self):
        with pytest.raises(PacketOverflow):
            pack_llrs([1.0], word_bytes=1, qformat=QFormat(8, 4))
        with pytest.raises(PacketOverflow):
            unpack_llrs([bytes(3)], word_bytes=3, qformat=QFormat(8, 4))


class TestWireRange:
    """A value the wire word cannot hold raises PacketOverflow; it is never
    wrapped to another integer or written as inf."""

    @pytest.mark.parametrize(
        "word_bytes, qformat, value",
        [
            (2, QFormat(8, 4), 2048.0),  # 32768, one past int16
            (2, QFormat(8, 4), 2047.96875),  # the tie 32767.5 rounds to even 32768
            (2, QFormat(8, 4), -2048.0625),  # -32769
            (4, QFormat(8, 4), 2.0**27),  # 2**31, one past int32
            (8, QFormat(5, 1), 2.0**62),  # 2**63, one past int64
            (8, QFormat(5, 1), -(2.0**63)),
            (2, QFormat(8, 4), float("inf")),
            (4, QFormat(8, 4), float("-inf")),
            (8, QFormat(5, 1), float("nan")),
            (8, QFormat(5, 1), 10**400),  # no float64 holds it
        ],
    )
    def test_q_format_word_out_of_range(self, word_bytes, qformat, value):
        with pytest.raises((struct.error, OverflowError, ValueError)):
            oracle_pack_llrs([0.5, value], word_bytes, qformat)
        with pytest.raises(PacketOverflow):
            pack_llrs([0.5, value], word_bytes=word_bytes, qformat=qformat)

    @pytest.mark.parametrize(
        "word_bytes, qformat, value",
        [
            (2, QFormat(8, 4), 2047.90625),  # the tie 32766.5 rounds to even 32766
            (2, QFormat(8, 4), -2048.03125),  # the tie -32768.5 rounds to -32768
            (4, QFormat(8, 4), -(2.0**27)),  # int32 minimum
            (8, QFormat(5, 1), -(2.0**62)),  # int64 minimum
            (8, QFormat(5, 1), 2.0**61),
        ],
    )
    def test_q_format_range_edges_pack(self, word_bytes, qformat, value):
        assert pack_llrs([value], word_bytes, qformat) == oracle_pack_llrs(
            [value], word_bytes, qformat
        )

    @pytest.mark.parametrize("value", [3.5e38, -1e300, 2.0**128 - 2.0**103])
    def test_float32_overflow(self, value):
        with pytest.raises(OverflowError):
            oracle_pack_llrs([value])
        with pytest.raises(PacketOverflow):
            pack_llrs([0.0, value])

    def test_float32_largest_and_non_finite_values_pack(self):
        # The largest value that rounds to float32's maximum, and infinities
        # and NaN themselves, pack as the struct codec packs them.
        values = [2.0**128 - 2.0**103 - 2.0**75, float("inf"), float("-inf"), float("nan")]
        assert pack_llrs(values) == oracle_pack_llrs(values)

    def test_payload_not_whole_words(self):
        with pytest.raises(PacketOverflow):
            unpack_llrs([bytes(6)])
        with pytest.raises(PacketOverflow):
            unpack_llrs([bytes(128), bytes(4)], word_bytes=8)
        with pytest.raises(PacketOverflow):
            unpack_llrs([bytes(3)], word_bytes=2, qformat=QFormat(8, 4))


# Word size and Q-format of each wire mode the codec supports.
WIRE_MODES = [
    (4, None),
    (8, None),
    (2, QFormat(8, 4)),
    (4, QFormat(8, 4)),
    (8, QFormat(5, 1)),
    (2, QFormat(5, 1)),
    (4, QFormat(5, 1)),
    (8, QFormat(8, 4)),
]

# Exact half steps of both Q grids (k/32 and k/4), signed zeros, and general
# floats; every drawn value fits the 2-byte Q8.4 word, the tightest mode.
WIRE_VALUE = st.one_of(
    st.integers(-65000, 65000).map(lambda k: k / 32),
    st.integers(-8000, 8000).map(lambda k: k / 4),
    st.sampled_from([0.0, -0.0, 1 / 64, -1 / 64]),
    st.floats(-2000.0, 2000.0),
)
# Wider values each mode still holds: float32's range, any finite float64,
# int64 words of Q5.1.
WIDE_VALUE = {
    (4, None): st.floats(-3e38, 3e38),
    (8, None): st.floats(allow_nan=False, allow_infinity=False),
    (8, QFormat(5, 1)): st.floats(-1e18, 1e18),
}


def _wire_length(words_per_packet: int):
    multiples = [
        k * words_per_packet + d
        for k in range(300 // words_per_packet + 1)
        for d in (-1, 0, 1)
        if 0 <= k * words_per_packet + d <= 300
    ]
    return st.one_of(st.integers(0, 300), st.sampled_from(multiples))


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(WIRE_MODES), data=st.data())
def test_wire_bytes_and_floats_equal_struct_oracle(mode, data):
    word_bytes, qformat = mode
    length = data.draw(_wire_length(PACKET_BYTES // word_bytes), label="length")
    value = WIRE_VALUE
    if mode in WIDE_VALUE:
        value = st.one_of(WIRE_VALUE, WIDE_VALUE[mode])
    values = data.draw(st.lists(value, min_size=length, max_size=length), label="values")

    packets = pack_llrs(values, word_bytes, qformat)
    assert packets == oracle_pack_llrs(values, word_bytes, qformat)
    assert len(packets) == packet_count(length * word_bytes)
    assert pack_llrs((v for v in values), word_bytes, qformat) == packets
    # The master hands each block over as a float64 array.
    assert pack_llrs(np.array(values, dtype=np.float64), word_bytes, qformat) == packets
    # Workers cut the packets back out of a frame behind its type byte.
    assert split_packets(b"D" + b"".join(packets), offset=1) == packets
    decoded = unpack_llrs(packets, word_bytes, qformat)
    # The master writes the decoded block straight into its float64 state.
    assert decoded.dtype == np.float64
    decoded = decoded.tolist()
    expected = oracle_unpack_llrs(packets, word_bytes, qformat)
    assert [v.hex() for v in decoded] == [v.hex() for v in expected]
    assert unpack_llrs(iter(packets), word_bytes, qformat).tolist() == decoded
