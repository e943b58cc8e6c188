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
    unpack_llrs,
)

from conftest import SMALL_REGULAR_PARAMS


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
        assert plan.to_master_packets == (12,) * 4

    def test_empty_payload_zero_packets(self):
        assert packet_count(0) == 0

    def test_exact_boundary_single_packet(self):
        assert packet_count(128) == 1
        assert packet_count(129) == 2

    def test_total_payload_conservation(self, fixture252):
        for slaves in [1, 2, 3, 4, 6, 7, 9, 12]:
            plan = plan_messages(fixture252, make_partition(252, slaves))
            assert plan.total_bytes == 2 * fixture252.edges * 4

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
        assert plan.total_bytes == 2 * H.edges * word_bytes
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
        assert unpack_llrs(pack_llrs(values)) == values

    def test_float64_round_trip_exact(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 8, 1000).tolist()
        assert unpack_llrs(pack_llrs(values, word_bytes=8), word_bytes=8) == values

    def test_qformat_round_trip_exact(self):
        q = QFormat(8, 4)
        values = (np.arange(-127, 128) / 16.0).tolist()
        got = unpack_llrs(pack_llrs(values, qformat=q), qformat=q)
        assert got == values

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
