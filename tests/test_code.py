import itertools

import numpy as np
import pytest

from ldpcsim.code import (
    CodeInfo,
    ParityCheckMatrix,
    generate_regular,
    load_alist,
    save_alist,
    syndrome_ok,
)
from ldpcsim.errors import (
    EmptyRowOrColumn,
    InfeasibleParameters,
    LengthMismatch,
    MalformedAlist,
)

from conftest import SMALL_REGULAR_PARAMS, DATA

FIXTURE252_SHA256 = "3f9135b416d3c8815fd818a3d9cb5c8b17bd1e584472e6b8e0879491bf63e7cb"


class TestLoadAlist:
    def test_hamming_fixture_dimensions(self, hamming74):
        assert hamming74.m == 4
        assert hamming74.n == 7
        assert hamming74.edges == 16

    def test_hamming_fixture_has_16_codewords(self, hamming_codewords):
        # hamming_codewords enumerates all 128 words; exactly 16 pass.
        assert len(hamming_codewords) == 16

    def test_zero_degree_column_rejected(self):
        text = "2 2\n1 2\n1 0\n1 1\n1\n0\n1\n2\n"
        with pytest.raises(EmptyRowOrColumn):
            load_alist(text)

    def test_padding_zeros_ignored(self):
        padded = "2 2\n2 2\n1 2\n2 1\n1 0\n1 2\n1 2\n2 0\n"
        H = load_alist(padded)
        assert H.row_adj == ((0, 1), (1,))

    def test_bad_line_count(self):
        with pytest.raises(MalformedAlist):
            load_alist("2 2\n1 1\n1 1\n1 1\n1\n1\n")

    def test_out_of_range_index(self):
        text = "2 2\n2 2\n1 2\n2 1\n1\n1 3\n1 2\n2\n"
        with pytest.raises(MalformedAlist):
            load_alist(text)

    def test_duplicate_edge(self):
        text = "2 1\n1 2\n1 1\n2\n1\n1\n1 1\n"
        with pytest.raises(MalformedAlist):
            load_alist(text)

    def test_degree_mismatch(self):
        text = "2 2\n2 2\n2 1\n2 1\n1 2\n2\n1 2\n2\n"
        with pytest.raises(MalformedAlist):
            load_alist(text)

    def test_inconsistent_adjacency_blocks(self):
        # Column block says (1,2)/(1); row block says (1)/(1 2).
        text = "2 2\n2 2\n2 1\n1 2\n1 2\n1\n1\n1 2\n"
        with pytest.raises(MalformedAlist):
            load_alist(text)

    def test_non_integer_token(self):
        with pytest.raises(MalformedAlist):
            load_alist("2 x\n1 1\n1 1\n1 1\n1\n2\n1\n1\n")


class TestSaveAlist:
    def test_minimal_single_edge_matrix(self):
        H = ParityCheckMatrix([[0]], 1)
        assert save_alist(H) == "1 1\n1 1\n1\n1\n1\n1\n"

    def test_three_edge_toy_round_trip_is_canonical(self):
        messy = "2 2\n2 2\n1 2\n2 1\n0 1\n2 1\n2 1 0\n2\n"
        canonical = "2 2\n2 2\n1 2\n2 1\n1\n1 2\n1 2\n2\n"
        assert save_alist(load_alist(messy)) == canonical

    def test_hamming_golden_file(self, hamming74):
        golden = (DATA / "hamming_4x7.alist").read_text()
        assert save_alist(hamming74) == golden

    def test_round_trip_identity_on_252x504(self, fixture252):
        text = save_alist(fixture252)
        assert save_alist(load_alist(text)) == text


class TestGenerateRegular:
    def test_fixture_dimensions(self, fixture252):
        assert fixture252.m == 252
        assert fixture252.n == 504
        assert set(fixture252.col_degrees().tolist()) == {3}
        assert set(fixture252.row_degrees().tolist()) == {6}

    def test_small_code_degrees(self):
        H = generate_regular(6, 2, 4, seed=0)
        assert H.m == 3
        assert all(d == 4 for d in H.row_degrees())
        assert all(d == 2 for d in H.col_degrees())

    def test_arithmetic_infeasibility(self):
        with pytest.raises(InfeasibleParameters):
            generate_regular(5, 3, 4, seed=0)

    def test_wc_below_two_rejected(self):
        with pytest.raises(InfeasibleParameters):
            generate_regular(8, 1, 2, seed=0)

    def test_row_weight_exceeding_n_rejected(self):
        with pytest.raises(InfeasibleParameters):
            generate_regular(4, 3, 6, seed=0)

    def test_bounded_retries_exhaust(self):
        # Seed 0's first draw for these dense-ish parameters collides, so a
        # single attempt must give up rather than loop forever.
        with pytest.raises(InfeasibleParameters):
            generate_regular(12, 4, 6, seed=0, max_attempts=1)

    def test_deterministic_per_seed(self):
        a = generate_regular(24, 3, 6, seed=9)
        b = generate_regular(24, 3, 6, seed=9)
        assert a.row_adj == b.row_adj
        c = generate_regular(24, 3, 6, seed=10)
        assert a.row_adj != c.row_adj

    def test_fixture_digest_pinned(self, fixture252):
        # Golden pin for the seed-1 fixture; a change here means the rng
        # stream rotated and downstream goldens need regenerating, not
        # that decoding broke.
        import hashlib

        digest = hashlib.sha256(save_alist(fixture252).encode()).hexdigest()
        assert digest == FIXTURE252_SHA256

    @pytest.mark.parametrize("n,wc,wr", SMALL_REGULAR_PARAMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_property_sweep(self, n, wc, wr, seed):
        H = generate_regular(n, wc, wr, seed=seed)
        assert H.m == n * wc // wr
        assert all(d == wr for d in H.row_degrees())
        assert all(d == wc for d in H.col_degrees())
        # transpose consistency
        via_rows = {(c, v) for c, vs in enumerate(H.row_adj) for v in vs}
        via_cols = {(c, v) for v, cs in enumerate(H.col_adj) for c in cs}
        assert via_rows == via_cols
        assert len(via_rows) == H.edges


@pytest.mark.parametrize(
    "H",
    [
        ParityCheckMatrix([[2, 0], [0, 1], [1, 2]], 3),
        generate_regular(96, 2, 4, seed=3),
        generate_regular(36, 3, 6, seed=0),
        generate_regular(504, 3, 6, seed=1),
    ],
    ids=repr,
)
def test_col_edge_lists_edges_in_ascending_check_order(H):
    assert sorted(H.col_edge.tolist()) == list(range(H.edges))
    for v in range(H.n):
        edges = H.col_edge[H.col_ptr[v] : H.col_ptr[v + 1]]
        checks = np.searchsorted(H.row_ptr, edges, side="right") - 1
        assert (H.edge_var[edges] == v).all()
        assert checks.tolist() == sorted(checks.tolist()) == list(H.col_adj[v])


class TestSyndrome:
    def test_zero_word_always_valid(self, fixture252):
        assert syndrome_ok(fixture252, np.zeros(504, dtype=np.uint8))

    def test_hamming_codewords_and_neighbors(self, hamming74, hamming_codewords):
        for word in hamming_codewords:
            assert syndrome_ok(hamming74, word)
            for i in range(7):
                flipped = word.copy()
                flipped[i] ^= 1
                assert not syndrome_ok(hamming74, flipped)

    def test_single_parity_check(self):
        H = ParityCheckMatrix([[0, 1]], 2)
        assert not syndrome_ok(H, np.array([1, 0], dtype=np.uint8))
        assert syndrome_ok(H, np.array([1, 1], dtype=np.uint8))

    def test_length_mismatch(self, hamming74):
        with pytest.raises(LengthMismatch):
            syndrome_ok(hamming74, np.zeros(6, dtype=np.uint8))

    def test_invariant_under_adjacency_permutation(self):
        rows = [[2, 0, 3], [1, 3, 0]]
        H1 = ParityCheckMatrix(rows, 4)
        H2 = ParityCheckMatrix([sorted(r) for r in rows], 4)
        for bits in itertools.product((0, 1), repeat=4):
            word = np.array(bits, dtype=np.uint8)
            assert syndrome_ok(H1, word) == syndrome_ok(H2, word)

    def test_hamming_linearity(self, hamming74, hamming_codewords):
        for a in hamming_codewords:
            for b in hamming_codewords:
                assert syndrome_ok(hamming74, np.bitwise_xor(a, b))

    def test_batch_gives_one_verdict_per_word(self, hamming74):
        # All 128 words of length 7 in one batch, against each word alone.
        words = np.array(list(itertools.product((0, 1), repeat=7)), dtype=np.uint8)
        verdicts = syndrome_ok(hamming74, words)
        assert verdicts.shape == (128,)
        assert verdicts.tolist() == [syndrome_ok(hamming74, w) for w in words]
        assert verdicts.sum() == 16

    def test_rows_of_unequal_degree(self):
        # Short rows are padded to the longest; padding must not count.
        H = ParityCheckMatrix([[0, 1], [1, 2, 3, 4], [0, 4, 2]], 5)
        words = np.array(list(itertools.product((0, 1), repeat=5)), dtype=np.uint8)
        expected = [
            all(sum(int(w[v]) for v in row) % 2 == 0 for row in H.row_adj)
            for w in words
        ]
        assert syndrome_ok(H, words).tolist() == expected
        assert [syndrome_ok(H, w) for w in words] == expected

    def test_scratch_gives_the_same_verdicts(self):
        # A scratch left dirty by earlier use (padding slots included) must
        # not change a verdict.
        H = ParityCheckMatrix([[0, 1], [1, 2, 3, 4], [0, 4, 2]], 5)
        words = np.array(list(itertools.product((0, 1), repeat=5)), dtype=np.uint8)
        scratch = np.ones((5, 3, 32), dtype=np.uint8)
        assert np.array_equal(syndrome_ok(H, words, scratch), syndrome_ok(H, words))
        one = np.ones((5, 3), dtype=np.uint8)
        assert [syndrome_ok(H, w, one) for w in words] == [syndrome_ok(H, w) for w in words]

    @pytest.mark.parametrize("shape", [(3, 6), (3, 8), (2, 3, 7), (7, 3)])
    def test_batch_of_wrong_shape(self, hamming74, shape):
        with pytest.raises(LengthMismatch):
            syndrome_ok(hamming74, np.zeros(shape, dtype=np.uint8))


class TestCodeInfo:
    def test_rate_and_assumption_flag(self, fixture252):
        info = CodeInfo.from_matrix(fixture252)
        assert info.n == 504
        assert info.k == 252
        assert info.rate == 0.5
        assert info.rank_assumed

    def test_redundant_row_is_not_detected(self, hamming74):
        # The 4x7 fixture has rank 3, but k is reported as n - m by design.
        info = CodeInfo.from_matrix(hamming74)
        assert info.k == 3
