import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldpcsim.code import (
    CodeInfo,
    ParityCheckMatrix,
    _duplicate_key,
    _repeats_in_a_row,
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

from conftest import SMALL_REGULAR_PARAMS, DATA, adjacency, irregular_code
from oracles import gf2_rank_by_rows, load_alist_by_split, save_alist_by_join

FIXTURE252_SHA256 = "3f9135b416d3c8815fd818a3d9cb5c8b17bd1e584472e6b8e0879491bf63e7cb"
LONG_CODE_SHA256 = "58b803950feb128fbcb3a78a237b6e4e8dade8c14f3320d93f18a3e1b66de63a"


def _list_generate_regular(
    n: int, wc: int, wr: int, seed: int, max_attempts: int = 2000
) -> ParityCheckMatrix:
    """The generator as it was before it shared the constructor's
    duplicate-edge predicate: np.unique over the pairs, rows as lists."""
    if wc < 2:
        raise InfeasibleParameters(f"column weight must be >= 2, got {wc}")
    if wr < 1:
        raise InfeasibleParameters(f"row weight must be >= 1, got {wr}")
    if (n * wc) % wr != 0:
        raise InfeasibleParameters(
            f"n*wc = {n * wc} not divisible by row weight {wr}"
        )
    m = n * wc // wr
    if wr > n or wc > m:
        raise InfeasibleParameters(
            f"degrees infeasible for {m}x{n}: wr={wr} > n or wc={wc} > m"
        )
    rng = np.random.default_rng(seed)
    row_sockets = np.repeat(np.arange(m), wr)
    col_sockets = np.repeat(np.arange(n), wc)
    for _ in range(max_attempts):
        perm = rng.permutation(col_sockets)
        pairs = row_sockets * n + perm
        if len(np.unique(pairs)) != len(pairs):
            continue
        row_adj: list[list[int]] = [[] for _ in range(m)]
        for c, v in zip(row_sockets, perm):
            row_adj[c].append(int(v))
        return ParityCheckMatrix(row_adj, n)
    raise InfeasibleParameters(
        f"no duplicate-free edge assignment found in {max_attempts} attempts "
        f"for n={n} wc={wc} wr={wr}"
    )


def _tuple_constructor(row_adj, n):
    """The constructor's checks as they were when it built tuple adjacency,
    one row and one entry at a time; returns its CSR/CSC arrays."""
    m = len(row_adj)
    if m < 1 or n < 1:
        raise MalformedAlist(f"matrix must be at least 1x1, got {m}x{n}")
    rows = []
    col_lists: list[list[int]] = [[] for _ in range(n)]
    for c, vs in enumerate(row_adj):
        vs = tuple(int(v) for v in vs)
        if len(vs) == 0:
            raise EmptyRowOrColumn(f"check node {c} has no edges")
        seen = set()
        for v in vs:
            if not 0 <= v < n:
                raise MalformedAlist(f"variable index {v} out of range in row {c}")
            if v in seen:
                raise MalformedAlist(f"duplicate edge ({c}, {v})")
            seen.add(v)
            col_lists[v].append(c)
        rows.append(vs)
    for v, cs in enumerate(col_lists):
        if not cs:
            raise EmptyRowOrColumn(f"variable node {v} has no edges")
    degs = np.fromiter((len(r) for r in rows), dtype=np.int64, count=m)
    row_ptr = np.concatenate(([0], np.cumsum(degs)))
    edge_var = np.fromiter(
        (v for vs in rows for v in vs), dtype=np.int64, count=int(row_ptr[-1])
    )
    cdegs = np.fromiter((len(c) for c in col_lists), dtype=np.int64, count=n)
    col_ptr = np.concatenate(([0], np.cumsum(cdegs)))
    return row_ptr, edge_var, col_ptr, np.argsort(edge_var, kind="stable")


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
        assert adjacency(H)[0] == ((0, 1), (1,))

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

    # Largest column degree 2, largest row degree 2.
    THREE_EDGES = "2 2\n{}\n1 2\n2 1\n1\n1 2\n1 2\n2\n"

    def test_second_line_holds_the_largest_degrees(self):
        assert load_alist(self.THREE_EDGES.format("2 2")).edges == 3

    @pytest.mark.parametrize("line2", ["2", "2 2 2"])
    def test_second_line_wrong_count(self, line2):
        with pytest.raises(MalformedAlist, match="second line"):
            load_alist(self.THREE_EDGES.format(line2))

    @pytest.mark.parametrize("line2", ["1 2", "2 1", "3 2", "2 6"])
    def test_second_line_wrong_value(self, line2):
        with pytest.raises(MalformedAlist, match="second line"):
            load_alist(self.THREE_EDGES.format(line2))

    # THREE_EDGES with its first token and its last row given.
    FIRST_AND_LAST = "{} 2\n2 2\n1 2\n2 1\n1\n1 2\n1 2\n{}\n"

    @pytest.mark.parametrize(
        "token,reason",
        [(t, "non-integer token") for t in ("1-2", "1 - 2", "--1", "+", "1.5")]
        + [(t, "out of int64 range") for t in ("99999999999999999999", "9223372036854775808",
                                               "-9223372036854775809", "10000000000000000000002")],
    )
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_token_outside_the_grammar_rejected(self, token, reason, where):
        text = self.FIRST_AND_LAST.format(*((token, "2") if where == "first" else ("2", token)))
        with pytest.raises(MalformedAlist, match=reason):
            load_alist(text)
        with pytest.raises(MalformedAlist):
            load_alist_by_split(text)

    @pytest.mark.parametrize("token", ["9223372036854775807", "-9223372036854775808"])
    def test_int64_bounds_read_as_indices(self, token):
        with pytest.raises(MalformedAlist, match=f"variable index {token} out of range"):
            load_alist(self.FIRST_AND_LAST.format("2", token))

    @pytest.mark.parametrize("token", ["+2", "0002", "0000000000000000000000002"])
    def test_signed_and_zero_led_tokens_read_as_int_reads_them(self, token):
        H = load_alist(self.FIRST_AND_LAST.format(token, token))
        assert adjacency(H)[0] == ((0, 1), (1,))

    def test_non_ascii_text_rejected(self):
        # int() reads the Arabic-Indic digit two as 2, so the split parser
        # takes this text; load_alist takes ASCII text only.
        text = self.FIRST_AND_LAST.format("2", "\u0662")
        assert load_alist_by_split(text).edges == 3
        with pytest.raises(MalformedAlist, match="ASCII"):
            load_alist(text)

    def test_underscore_in_a_token_rejected(self):
        # int() reads 0_2 as 2; the alist grammar has no underscores.
        text = self.FIRST_AND_LAST.format("2", "0_2")
        assert load_alist_by_split(text).edges == 3
        with pytest.raises(MalformedAlist, match="0_2"):
            load_alist(text)

    def test_line_breaks_and_blanks_of_splitlines_and_split(self):
        text = "2 2\r\n\r\n\t2\x1f2\x0c1 2\x0b2 1\x1c\x1d1\x1e1 2\r1 2\n\n \n2"
        H = load_alist(text)
        assert adjacency(H) == adjacency(load_alist_by_split(text))
        assert adjacency(H)[0] == ((0, 1), (1,))


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

    @pytest.mark.parametrize("m,n", [(700, 1500), (6000, 12000)], ids=["4-digit", "5-digit"])
    def test_same_text_as_the_join_oracle_on_irregular_codes(self, m, n):
        # Rows of unequal degree, each in shuffled order, so the writer
        # sorts them; indices run to 4 and to 5 decimal places.
        rng = np.random.default_rng(n)
        rows = adjacency(irregular_code(m, n, seed=1))[0]
        H = ParityCheckMatrix([rng.permutation(r).tolist() for r in rows], n)
        assert len(str(H.n)) == len(str(n))
        assert save_alist(H) == save_alist_by_join(H)


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
        assert adjacency(a) == adjacency(b)
        c = generate_regular(24, 3, 6, seed=10)
        assert adjacency(a) != adjacency(c)

    def test_fixture_digest_pinned(self, fixture252):
        # Golden pin for the seed-1 fixture; a change here means the rng
        # stream rotated and downstream goldens need regenerating, not
        # that decoding broke.
        import hashlib

        digest = hashlib.sha256(save_alist(fixture252).encode()).hexdigest()
        assert digest == FIXTURE252_SHA256

    def test_long_code_digest_pinned(self):
        # The n=20160 seed-1 code the scale-model benchmark builds, and its
        # alist round trip.
        import hashlib

        text = save_alist(generate_regular(20160, 3, 6, seed=1))
        for t in (text, save_alist(load_alist(text))):
            assert hashlib.sha256(t.encode()).hexdigest() == LONG_CODE_SHA256

    @pytest.mark.parametrize(
        "n,wc,wr,seed", [(n, wc, wr, s) for n, wc, wr in SMALL_REGULAR_PARAMS
                         for s in range(5)] + [(504, 3, 6, 1)]
    )
    def test_same_code_as_the_list_generator(self, n, wc, wr, seed):
        H = generate_regular(n, wc, wr, seed=seed)
        O = _list_generate_regular(n, wc, wr, seed=seed)
        assert np.array_equal(H.row_ptr, O.row_ptr)
        assert np.array_equal(H.edge_var, O.edge_var)

    @pytest.mark.parametrize("where", ["first row", "last row", "none"])
    def test_row_duplicate_test_rejects_what_the_edge_key_test_rejects(self, where):
        # Rows of a (2, 4)-regular code over 24 variables, with one
        # variable written twice into the first or the last row.
        rows = generate_regular(24, 2, 4, seed=0).edge_var.reshape(12, 4)
        if where == "first row":
            rows[0, 1] = rows[0, 0]
        elif where == "last row":
            rows[-1, 3] = rows[-1, 2]
        keys = np.repeat(np.arange(12), 4) * 24 + rows.ravel()
        assert _repeats_in_a_row(rows) == (where != "none")
        assert _repeats_in_a_row(rows) == (_duplicate_key(keys) is not None)

    @pytest.mark.parametrize("n,wc,wr", SMALL_REGULAR_PARAMS + [(504, 3, 6)])
    def test_row_duplicate_test_agrees_on_the_generators_draws(self, n, wc, wr):
        m = n * wc // wr
        rng = np.random.default_rng(0)
        col_sockets = np.repeat(np.arange(n), wc)
        verdicts = set()
        for _ in range(50):
            rows = rng.permutation(col_sockets).reshape(m, wr)
            keys = np.repeat(np.arange(m), wr) * n + rows.ravel()
            verdict = _repeats_in_a_row(rows)
            assert verdict == (_duplicate_key(keys) is not None)
            verdicts.add(verdict)
        assert True in verdicts

    @pytest.mark.parametrize(
        "args,kwargs",
        [((5, 3, 4, 0), {}), ((8, 1, 2, 0), {}), ((8, 2, 0, 0), {}),
         ((4, 3, 6, 0), {}), ((12, 4, 6, 0), {"max_attempts": 1})],
    )
    def test_infeasible_as_the_list_generator(self, args, kwargs):
        for gen in (generate_regular, _list_generate_regular):
            with pytest.raises(InfeasibleParameters):
                gen(*args, **kwargs)

    @pytest.mark.parametrize("n,wc,wr", SMALL_REGULAR_PARAMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_property_sweep(self, n, wc, wr, seed):
        H = generate_regular(n, wc, wr, seed=seed)
        assert H.m == n * wc // wr
        assert all(d == wr for d in H.row_degrees())
        assert all(d == wc for d in H.col_degrees())
        # transpose consistency
        rows, cols = adjacency(H)
        via_rows = {(c, v) for c, vs in enumerate(rows) for v in vs}
        via_cols = {(c, v) for v, cs in enumerate(cols) for c in cs}
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
        assert checks.tolist() == sorted(checks.tolist()) == list(adjacency(H)[1][v])


@pytest.mark.parametrize("code", ["hamming74", "fixture252", "irregular"])
def test_col_slots_list_each_variables_edges_in_ascending_id(code, request):
    H = irregular_code(40, 80, 3) if code == "irregular" else request.getfixturevalue(code)
    slots = H.slots
    zero = slots.var.size
    degs = H.col_degrees()
    assert slots.col.shape == (degs.max(), H.n)
    for v in range(H.n):
        edges = np.flatnonzero(H.edge_var == v)
        own = slots.col[: len(edges), v]
        # Edge e of check c sits in slot (e - row_ptr[c]) * m + c.
        checks = np.searchsorted(H.row_ptr, edges, side="right") - 1
        expected = (edges - H.row_ptr[checks]) * H.m + checks
        assert slots.edge_slot[edges].tolist() == expected.tolist()
        assert own.tolist() == slots.edge_slot[edges].tolist()
        assert (slots.col[len(edges) :, v] == zero).all()
    # Every edge's slot is read once; only the padding reads the zero slot.
    assert sorted(slots.col[slots.col != zero].tolist()) == sorted(slots.edge_slot.tolist())
    assert (slots.col == zero).sum() == degs.size * degs.max() - H.edges
    if code != "fixture252":
        assert (degs < degs.max()).any()


def _random_rows(draw_seed: int, m: int, n: int) -> list[list[int]]:
    """m rows of unequal degree over n variables, every column covered."""
    rng = np.random.default_rng(draw_seed)
    rows = [
        rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist()
        for _ in range(m)
    ]
    for v in set(range(n)).difference(*rows):
        rows[rng.integers(m)].append(v)
    return rows


@settings(max_examples=40, deadline=None)
@given(
    params=st.sampled_from(SMALL_REGULAR_PARAMS),
    seed=st.integers(0, 2**16),
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    irregular=st.booleans(),
)
def test_alist_round_trip_keeps_the_adjacency(params, seed, m, n, irregular):
    if irregular:
        H = ParityCheckMatrix(_random_rows(seed, m, n), n)
    else:
        H = generate_regular(*params, seed=seed)
    # save_alist writes each row ascending, so the edge ids of the reloaded
    # matrix are those of H with its rows sorted.
    R = load_alist(save_alist(H))
    (h_rows, h_cols), (r_rows, r_cols) = adjacency(H), adjacency(R)
    canonical = ParityCheckMatrix([sorted(r) for r in h_rows], H.n)
    assert (R.m, R.n, R.edges) == (H.m, H.n, H.edges)
    assert r_cols == h_cols
    assert [sorted(r) for r in r_rows] == [sorted(r) for r in h_rows]
    for name in ("row_ptr", "edge_var", "col_ptr", "col_edge"):
        assert np.array_equal(getattr(R, name), getattr(canonical, name)), name
    # A matrix already in that order comes back array for array.
    again = load_alist(save_alist(R))
    for name in ("row_ptr", "edge_var", "col_ptr", "col_edge"):
        assert np.array_equal(getattr(again, name), getattr(R, name)), name


_JUNK = ["x", ".", "_", "1.5", "1_0", "1-2", "--1", "+", "-", "+0", "-1", "007",
         "99999999999999999999", "9223372036854775807", "9223372036854775808",
         "-9223372036854775808", "00000000000000000000001", "10000000000000000000002"]
_BLANKS = ["", " ", "  ", "\t", " \t"]
_BREAKS = ["\n", "\r\n", "\x0c", "\n\n", "\r\n \r\n"]
_TOKEN = re.compile(r"[+-]?[0-9]+")


@st.composite
def _alist_texts(draw):
    """Text over digits, signs, blanks, line breaks, x, . and _: either
    drawn freely, or the alist of a small random code with padding zeros,
    junk tokens, changed or dropped entries and repeated or blank lines,
    its lines split and ended by assorted blanks and breaks."""
    if draw(st.booleans()):
        pieces = st.sampled_from(list("0123456789+-x._") + _BLANKS[1:] + _BREAKS)
        return "".join(draw(st.lists(pieces, max_size=40)))
    n = draw(st.integers(1, 6))
    H = ParityCheckMatrix(_random_rows(draw(st.integers(0, 2**16)), draw(st.integers(1, 6)), n), n)
    lines = [line.split() for line in save_alist_by_join(H).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        op = draw(st.sampled_from(["pad", "junk", "bump", "drop", "blank", "repeat"]))
        if op == "pad":
            lines[i].insert(j, draw(st.sampled_from(["0", "00", "+0", "-0"])))
        elif op == "junk":
            lines[i].insert(j, draw(st.sampled_from(_JUNK)))
        elif op == "bump" and j < len(lines[i]):
            lines[i][j] = str(int(lines[i][j]) + draw(st.sampled_from([-1, 1, n])))
        elif op == "drop" and j < len(lines[i]):
            del lines[i][j]
        elif op == "blank":
            lines.insert(i, [])
        elif op == "repeat":
            lines.insert(i, list(lines[i]))
    return "".join(
        draw(st.sampled_from(_BLANKS)) + draw(st.sampled_from(_BLANKS[1:])).join(tokens)
        + draw(st.sampled_from(_BREAKS))
        for tokens in lines
    )


@settings(max_examples=300, deadline=None)
@given(text=_alist_texts())
def test_load_alist_agrees_with_the_split_oracle(text):
    # A token outside [+-]?[0-9]+ is malformed, even where int() reads it;
    # otherwise both parsers build the same arrays or raise the same error.
    if not all(map(_TOKEN.fullmatch, text.split())):
        with pytest.raises(MalformedAlist):
            load_alist(text)
        return
    try:
        want = load_alist_by_split(text)
    except (MalformedAlist, EmptyRowOrColumn) as exc:
        with pytest.raises(type(exc)):
            load_alist(text)
        return
    got = load_alist(text)
    assert (got.m, got.n) == (want.m, want.n)
    for name in ("row_ptr", "edge_var", "col_ptr", "col_edge"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


FAULTS = ("duplicate", "out_of_range", "empty_row", "uncovered_column", "no_rows")


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    faults=st.lists(st.sampled_from(FAULTS), max_size=3),
)
# Rows [[1, 1], [], [2]] over n=2: the duplicate in row 0 comes before the
# empty row, and the out-of-range entry after it.
@example(seed=0, m=3, n=2, faults=["out_of_range", "uncovered_column", "duplicate"])
def test_constructor_rejects_as_the_tuple_constructor(seed, m, n, faults):
    rng = np.random.default_rng(seed)
    rows = _random_rows(seed, m, n)
    for fault in faults:
        if not rows:
            break
        c = int(rng.integers(len(rows)))
        if fault == "duplicate" and rows[c]:
            rows[c].insert(int(rng.integers(len(rows[c]) + 1)), int(rng.choice(rows[c])))
        elif fault == "out_of_range":
            rows[c].insert(int(rng.integers(len(rows[c]) + 1)), int(rng.choice([-1, n, n + 5])))
        elif fault == "empty_row":
            rows[c] = []
        elif fault == "uncovered_column":
            v = int(rng.integers(n))
            rows = [[u for u in r if u != v] for r in rows]
        elif fault == "no_rows":
            rows = []
    try:
        expected = _tuple_constructor(rows, n)
    except (MalformedAlist, EmptyRowOrColumn) as exc:
        with pytest.raises(type(exc)):
            ParityCheckMatrix(rows, n)
    else:
        H = ParityCheckMatrix(rows, n)
        for name, want in zip(("row_ptr", "edge_var", "col_ptr", "col_edge"), expected):
            assert np.array_equal(getattr(H, name), want), name


def test_constructor_rejects_an_index_beyond_int64():
    with pytest.raises(MalformedAlist):
        ParityCheckMatrix([[0, 2**70]], 3)


def _csr(rows):
    degs = [len(r) for r in rows]
    row_ptr = np.concatenate(([0], np.cumsum(degs, dtype=np.int64)))
    return row_ptr, np.array([v for r in rows for v in r], dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.integers(1, 12), n=st.integers(1, 12))
@example(seed=0, m=1, n=1)
def test_csr_entry_builds_what_the_rows_build(seed, m, n):
    rows = _random_rows(seed, m, n)
    H, C = ParityCheckMatrix(rows, n), ParityCheckMatrix._from_csr(*_csr(rows), n)
    assert (C.m, C.n, C.edges) == (H.m, H.n, H.edges)
    for name in ("row_ptr", "edge_var", "col_ptr", "col_edge"):
        assert np.array_equal(getattr(C, name), getattr(H, name)), name
        assert getattr(C, name).dtype == getattr(H, name).dtype == np.int64, name


@pytest.mark.parametrize(
    "rows,n,error",
    [([[0, 1], [1, 1]], 2, MalformedAlist), ([[0], [2]], 2, MalformedAlist),
     ([[0, 1], []], 2, EmptyRowOrColumn), ([[0], [0]], 2, EmptyRowOrColumn),
     ([], 2, MalformedAlist), ([[0]], 0, MalformedAlist)],
    ids=["duplicate", "out-of-range", "empty-row", "uncovered-column", "no-rows", "no-columns"],
)
def test_csr_entry_rejects_what_the_rows_reject(rows, n, error):
    for build in (lambda: ParityCheckMatrix(rows, n), lambda: ParityCheckMatrix._from_csr(*_csr(rows), n)):
        with pytest.raises(error):
            build()


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
            all(sum(int(w[v]) for v in row) % 2 == 0 for row in adjacency(H)[0])
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
        one = np.ones((5, 3, 1), dtype=np.uint8)
        assert [syndrome_ok(H, w, one) for w in words] == [syndrome_ok(H, w) for w in words]

    @pytest.mark.parametrize("shape", [(3, 6), (3, 8), (2, 3, 7), (7, 3)])
    def test_batch_of_wrong_shape(self, hamming74, shape):
        with pytest.raises(LengthMismatch):
            syndrome_ok(hamming74, np.zeros(shape, dtype=np.uint8))


class TestCodeInfo:
    def test_rate_of_the_full_rank_fixture(self, fixture252):
        info = CodeInfo.from_matrix(fixture252)
        assert fixture252.rank == 252
        assert (info.n, info.k, info.rate) == (504, 252, 0.5)

    def test_redundant_row_lowers_the_rank(self, hamming74):
        # The 4x7 fixture has one redundant row: rank 3, the (7,4) code.
        assert hamming74.rank == 3
        info = CodeInfo.from_matrix(hamming74)
        assert (info.k, info.rate) == (4, 4 / 7)

    def test_even_column_weight_code_is_rank_deficient(self):
        # Every column holds two ones, so the rows sum to zero.
        H = generate_regular(96, 2, 4, seed=3)
        assert H.rank == 47
        assert CodeInfo.from_matrix(H).k == 49


def _gallager_code(n, wc, wr, seed):
    """Gallager's construction: wc bands of n // wr rows, the first band
    consecutive runs of wr columns, each other band a column permutation of
    it.  Each band's rows sum to the all-ones row, so the rank is at most
    m - wc + 1."""
    rng = np.random.default_rng(seed)
    band = np.arange(n).reshape(n // wr, wr)
    rows = [band] + [np.sort(rng.permutation(n)[band], axis=1) for _ in range(wc - 1)]
    return ParityCheckMatrix(np.concatenate(rows), n)


@pytest.mark.parametrize(
    "make,rank",
    [
        (lambda: generate_regular(96, 2, 4, seed=3), 47),
        (lambda: generate_regular(2520, 3, 6, seed=0), None),
        (lambda: generate_regular(2520, 3, 6, seed=1), None),
        (lambda: generate_regular(2520, 3, 6, seed=2), None),
        (lambda: _gallager_code(504, 3, 6, seed=1), 250),
        (lambda: irregular_code(60, 120, 1), None),
        (lambda: ParityCheckMatrix([[0, 2, 5], [1, 2], [3, 4, 5], [1, 2], [0, 4]], 6), 4),
        (lambda: generate_regular(20160, 3, 6, seed=1), 10080),
    ],
    ids=["even-column-weight", "2520-seed0", "2520-seed1", "2520-seed2", "gallager",
         "irregular", "repeated-row", "20160-seed1"],
)
def test_rank_matches_the_row_basis_oracle(make, rank):
    H = make()
    assert H.rank == gf2_rank_by_rows(H)
    if rank is not None:
        assert H.rank == rank


def test_rank_memory_peak_on_the_long_code():
    # The rank of the scale-model code holds at most a few MB at once: the
    # per-column core masks, one block of unpacked bits, and its degree
    # buckets and pivots as int arrays, not a mask of every row or every
    # column unpacked at once, nor a Python int per bucket entry (5.0 MB).
    import tracemalloc

    H = generate_regular(20160, 3, 6, seed=1)
    tracemalloc.start()
    try:
        assert H.rank == 10080
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.6e6, f"rank peaked at {peak / 1e6:.2f} MB"


def test_alist_memory_peak_on_the_long_code():
    # The alist writer and parser of the scale-model code hold byte and
    # token arrays, not a Python str and int per token: the split parser
    # and join writer they replace peaked at 20.3 and 8.8 MB.
    import tracemalloc

    H = generate_regular(20160, 3, 6, seed=1)
    text = save_alist(H)
    peaks = {}
    for name, call in (("save_alist", lambda: save_alist(H)), ("load_alist", lambda: load_alist(text))):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    assert peaks["save_alist"] < 4 and peaks["load_alist"] < 10, peaks


def _dense(H):
    dense = np.zeros((H.m, H.n), dtype=np.uint8)
    dense[H.edge_rows(), H.edge_var] = 1
    return dense


def _gf2_rank(dense):
    """Gauss-Jordan elimination over GF(2), one column at a time."""
    a = dense.copy()
    rank = 0
    for col in range(a.shape[1]):
        pivots = np.flatnonzero(a[rank:, col])
        if not pivots.size:
            continue
        p = rank + pivots[0]
        a[[rank, p]] = a[[p, rank]]
        others = np.flatnonzero(a[:, col])
        a[others[others != rank]] ^= a[rank]
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(1, 40),
    n=st.integers(1, 60),
    sums=st.integers(0, 4),
)
def test_rank_matches_plain_elimination(seed, m, n, sums):
    # `sums` extra rows are each the GF(2) sum of a random subset of the
    # rows, so they add nothing to the rank.
    rng = np.random.default_rng(seed)
    rows = [set(r) for r in _random_rows(seed, m, n)]
    for _ in range(sums):
        extra = set()
        for r in rng.choice(len(rows), size=rng.integers(1, len(rows) + 1), replace=False):
            extra ^= rows[r]
        if extra:
            rows.append(extra)
    H = ParityCheckMatrix([sorted(r) for r in rows], n)
    assert H.rank == _gf2_rank(_dense(H)) <= min(m, n)
