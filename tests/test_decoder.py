import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ldpcsim.code import ParityCheckMatrix, generate_regular, syndrome_ok
from ldpcsim.decoder import (
    DecodeResult,
    DecoderConfig,
    QFormat,
    check_node_update_block,
    decode,
    hard_decision,
    init_state,
    variable_node_update,
)
from ldpcsim.errors import ConfigurationError, LengthMismatch
from ldpcsim.parsim.workers import check_block_messages

from conftest import SMALL_REGULAR_PARAMS, adjacency, irregular_code, noisy_prior
from oracles import (
    check_row_oracle,
    decode_minsum_reference,
    edge_messages,
    recording,
    set_edge_messages,
    traced_pair,
)

NO_CLAMP = DecoderConfig(clamp=None)


def state_with_differences(values):
    """Single-check one-word state whose edge differences equal `values`."""
    H = ParityCheckMatrix([list(range(len(values)))], len(values))
    state = init_state(H, np.asarray(values, dtype=np.float64), NO_CLAMP)
    return H, state


def as_bytes(values):
    """float64 bytes of `values`, which tell -0.0 from 0.0 as == does not."""
    return np.asarray(values, dtype=np.float64).tobytes()


def row_messages(values):
    """One check row's unclamped messages from each of the three kernels,
    the block kernel, the scalar kernel and the oracle, as float64 bytes."""
    H, state = state_with_differences(values)
    check_node_update_block(state, H, NO_CLAMP)
    scalar = check_block_messages(list(values), [len(values)], None, None)
    return [as_bytes(edge_messages(state)), as_bytes(scalar), as_bytes(check_row_oracle(values))]


def differences(state, H):
    """Per-edge differences total - message of a one-word state (its
    column 0), as the kernels form them."""
    return (state.total[H.edge_var, 0] - edge_messages(state)[:, 0]).tolist()


def scalar_messages(state, H, cfg):
    """Scalar-kernel messages of every row of H from the state's differences."""
    return check_block_messages(
        differences(state, H), H.row_degrees().tolist(), cfg.clamp, cfg.qformat
    )


class TestCheckNodeUpdate:
    def test_worked_example(self):
        for out in row_messages([1.5, -2.0, 0.5]):
            assert out == as_bytes([-0.5, 0.5, -1.5])

    def test_degree_two_passthrough(self):
        for out in row_messages([0.7, -1.3]):
            assert out == as_bytes([-1.3, 0.7])

    def test_equal_differences_are_fixed_point(self):
        for out in row_messages([0.7, 0.7, 0.7, 0.7]):
            assert out == as_bytes([0.7] * 4)

    def test_sign_of_zero_is_positive(self):
        # d=0 contributes +1 sign and magnitude 0 to the others.
        for out in row_messages([0.0, -2.0, 3.0]):
            assert out == as_bytes([-2.0, 0.0, -0.0])

    def test_magnitude_of_negative_zero_is_positive(self):
        # |-0.0| is +0.0, so the other edges get +0.0, not -0.0.
        for out in row_messages([-0.0, 1.0, 2.0]):
            assert out == as_bytes([1.0, 0.0, 0.0])

    @pytest.mark.parametrize("least", [0.0, -0.0, 0.5, -0.5])
    @pytest.mark.parametrize("at", ["first", "last", "both"])
    @pytest.mark.parametrize("degree", range(2, 8))
    def test_minimum_at_the_end_slots(self, degree, at, least):
        # The prefix and suffix scans start and end at the row's end slots;
        # a minimum there, unique or tied across both, must reach every
        # other slot, and the slot holding it gets the next smallest.
        values = [1.25, -2.5, 3.75, -1.5, 2.0, -3.25, 2.75][:degree]
        if at in ("first", "both"):
            values[0] = least
        if at in ("last", "both"):
            values[-1] = -least if at == "both" else least
        block, scalar, oracle = row_messages(values)
        assert block == scalar == oracle

    @pytest.mark.parametrize("seed", range(10))
    def test_two_minimum_matches_bruteforce_exactly(self, seed):
        rng = np.random.default_rng(seed)
        H = generate_regular(24, 3, 6, seed=seed)
        state = init_state(H, rng.normal(0, 3, 24), NO_CLAMP)
        set_edge_messages(state, rng.normal(0, 1, (H.edges, 1)))
        d = differences(state, H)
        expected = []
        for c in range(H.m):
            expected += check_row_oracle(d[H.row_ptr[c] : H.row_ptr[c + 1]])
        assert scalar_messages(state, H, NO_CLAMP).tobytes() == as_bytes(expected)
        check_node_update_block(state, H, NO_CLAMP)
        assert edge_messages(state).tobytes() == as_bytes(expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_block_kernel_matches_scalar_exactly(self, seed):
        rng = np.random.default_rng(100 + seed)
        H = generate_regular(24, 3, 4, seed=seed)
        state = init_state(H, rng.normal(0, 3, 24), NO_CLAMP)
        set_edge_messages(state, rng.normal(0, 1, (H.edges, 1)))
        scalar = scalar_messages(state, H, NO_CLAMP)
        check_node_update_block(state, H, NO_CLAMP)
        assert edge_messages(state).tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_block_kernel_on_rows_of_unequal_degree(self, seed):
        # Short rows are padded to the longest one; the padding must never
        # win a minimum or flip a sign.
        rng = np.random.default_rng(200 + seed)
        H = irregular_code(18, 30, seed)
        assert len(set(H.row_degrees().tolist())) > 1
        for cfg in (NO_CLAMP, DecoderConfig(clamp=2.0), DecoderConfig(qformat=QFormat(6, 2))):
            prior = rng.normal(0, 3, H.n)
            msgs = rng.normal(0, 1, (H.edges, 1))
            msgs[::5] = 0.0  # ties and zero differences
            state = init_state(H, prior, cfg)
            set_edge_messages(state, msgs)
            scalar = scalar_messages(state, H, cfg)
            check_node_update_block(state, H, cfg)
            assert edge_messages(state).tobytes() == scalar.tobytes()


# Saturation settings the scalar/block property covers.
SATURATION_RULES = [
    DecoderConfig(clamp=64.0),
    DecoderConfig(clamp=2.0),
    DecoderConfig(clamp=None),
    DecoderConfig(qformat=QFormat(8, 4)),
    DecoderConfig(qformat=QFormat(5, 1)),
]

# Multiples of 1/64 hold exact ties between grid points of both Q-formats
# (odd multiples of 1/32 for Q8.4, of 1/4 for Q5.1) and values such as
# +-1/64 that round to zero; small and large floats add off-grid values,
# values that round to a signed zero and values past every clamp.
DIFFERENCE = st.one_of(
    st.integers(-600, 600).map(lambda k: k / 64),
    st.floats(-0.2, 0.2),
    st.floats(-300.0, 300.0),
)


@settings(max_examples=200, deadline=None)
@given(
    cfg=st.sampled_from(SATURATION_RULES),
    code=st.integers(0, 2),
    data=st.data(),
)
def test_scalar_and_block_kernels_saturate_alike(cfg, code, data):
    H = [generate_regular(12, 3, 4, seed=1), irregular_code(8, 14, 2),
         ParityCheckMatrix([[0, 1], [0, 1, 2, 3, 4]], 5)][code]
    d = data.draw(st.lists(DIFFERENCE, min_size=H.edges, max_size=H.edges))
    state = init_state(H, np.zeros(H.n), cfg)
    set_edge_messages(state, np.negative(d)[:, None])  # total 0, so each difference is d
    assert differences(state, H) == d
    scalar = scalar_messages(state, H, cfg)
    check_node_update_block(state, H, cfg)
    assert edge_messages(state).tobytes() == scalar.tobytes()


# Ties and signed zeros come up often among these values.
ROW_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]),
    st.floats(-10.0, 10.0),
)


@settings(max_examples=200, deadline=None)
@given(
    cfg=st.sampled_from([
        DecoderConfig(clamp=None),
        DecoderConfig(clamp=6.0),
        DecoderConfig(qformat=QFormat(8, 4)),
    ]),
    degs=st.lists(st.integers(2, 8), min_size=1, max_size=6),
    data=st.data(),
)
def test_scalar_kernel_bytes_equal_block_kernel(cfg, degs, data):
    # One variable per edge and zero messages, so each difference is the
    # saturated prior itself, -0.0 included.
    n = sum(degs)
    ends = np.cumsum(degs).tolist()
    H = ParityCheckMatrix([list(range(e - k, e)) for e, k in zip(ends, degs)], n)
    prior = data.draw(st.lists(ROW_VALUE, min_size=n, max_size=n))
    state = init_state(H, np.asarray(prior), cfg)
    scalar = scalar_messages(state, H, cfg)
    check_node_update_block(state, H, cfg)
    assert edge_messages(state).tobytes() == scalar.tobytes()


@pytest.mark.parametrize("cfg", [NO_CLAMP, DecoderConfig(qformat=QFormat(8, 4))],
                         ids=["float64", "q8.4"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_padding_message_slots_are_inert(cfg, seed):
    # The check update forms its minima in every message slot, padding
    # included, so no update may read a padding slot: poisoned padding
    # must leave every message and total as an unpoisoned state's.
    H = irregular_code(18, 30, seed)
    rng = np.random.default_rng(seed)
    prior = rng.normal(0.5, 2.0, size=(3, H.n))
    msgs = rng.normal(0.0, 1.0, size=(H.edges, 3))
    clean, poisoned = init_state(H, prior, cfg), init_state(H, prior, cfg)
    set_edge_messages(clean, msgs)
    set_edge_messages(poisoned, msgs)
    pad = poisoned.msg_flat[H.slots.pad_slot]
    assert pad.size
    poisoned.msg_flat[H.slots.pad_slot] = np.resize([np.nan, np.inf, -np.inf, 1e300], pad.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state in (clean, poisoned):
            check_node_update_block(state, H, cfg)
            variable_node_update(state, H, cfg)
    assert edge_messages(poisoned).tobytes() == edge_messages(clean).tobytes()
    assert poisoned.total.tobytes() == clean.total.tobytes()


class TestInitState:
    def test_totals_equal_priors_and_messages_zero(self, hamming74):
        prior = np.arange(7, dtype=np.float64) - 3.0
        state = init_state(hamming74, prior, NO_CLAMP)
        assert state.total[:, 0].tolist() == prior.tolist()
        assert not edge_messages(state).any()
        assert edge_messages(state).shape == (hamming74.edges, 1)

    def test_priors_saturated_on_entry(self, hamming74):
        cfg = DecoderConfig(clamp=8.0)
        state = init_state(hamming74, np.full(7, 100.0), cfg)
        assert state.total[:, 0].tolist() == [8.0] * 7
        assert state.prior[:, 0].tolist() == [8.0] * 7


class TestVariableNodeUpdate:
    def test_zero_messages_give_prior(self, hamming74):
        prior = np.arange(7, dtype=np.float64) - 3.0
        state = init_state(hamming74, prior, NO_CLAMP)
        variable_node_update(state, hamming74, NO_CLAMP)
        assert state.total[:, 0].tolist() == prior.tolist()

    def test_direct_sum(self):
        H = ParityCheckMatrix([[0, 1], [0, 1]], 2)
        state = init_state(H, np.array([1.0, 0.0]), NO_CLAMP)
        set_edge_messages(state, np.array([[0.5], [0.0], [-2.0], [0.0]]))
        variable_node_update(state, H, NO_CLAMP)
        assert state.total[0, 0] == -0.5

    def test_saturation_at_clamp(self):
        cfg = DecoderConfig(clamp=8.0)
        H = ParityCheckMatrix([[0, 1], [0, 1]], 2)
        state = init_state(H, np.array([7.0, 0.0]), cfg)
        set_edge_messages(state, np.array([[5.0], [0.0], [0.0], [0.0]]))
        variable_node_update(state, H, cfg)
        assert state.total[0, 0] == 8.0


def bincount_totals(state, H, cfg):
    """Saturated prior + incoming messages, each variable's summed from
    +0.0 in ascending edge order by a weighted np.bincount per word."""
    msgs = edge_messages(state)
    incoming = np.stack(
        [np.bincount(H.edge_var, weights=msgs[:, b], minlength=H.n) for b in range(msgs.shape[1])],
        axis=1,
    )
    return cfg.saturate(np.add(state.prior, incoming))


class TestColumnSum:
    def test_negative_zeros_sum_to_positive_zero(self):
        # Variable 0's messages are all -0.0 and so is its prior: the sum
        # begins at +0.0, as bincount's bins do, so the total is +0.0.
        H = ParityCheckMatrix([[0, 1], [0, 1]], 2)
        state = init_state(H, np.array([-0.0, 0.5]), NO_CLAMP)
        set_edge_messages(state, np.array([[-0.0], [1.0], [-0.0], [-0.25]]))
        expected = bincount_totals(state, H, NO_CLAMP)
        variable_node_update(state, H, NO_CLAMP)
        assert state.total.tobytes() == expected.tobytes() == as_bytes([0.0, 1.25])

    @pytest.mark.parametrize("words", [None, 1, 5])
    @pytest.mark.parametrize("cfg", [NO_CLAMP, DecoderConfig(clamp=1.0),
                                     DecoderConfig(qformat=QFormat(8, 4))])
    def test_matches_bincount_with_signed_zeros(self, hamming74, fixture252, words, cfg):
        rng = np.random.default_rng(7)
        for H in (hamming74, fixture252, irregular_code(40, 80, 3)):
            shape = (H.n,) if words is None else (words, H.n)
            prior = rng.choice([-0.0, 0.0, -0.01, 0.75, -1.5], size=shape)
            state = init_state(H, prior, cfg)
            mshape = (H.edges, words or 1)
            set_edge_messages(state, rng.choice([-0.0, 0.0, 0.5, -2.0, 1e-3], size=mshape))
            expected = bincount_totals(state, H, cfg)
            variable_node_update(state, H, cfg)
            assert state.total.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("code", ["hamming74", "irregular"])
    def test_zero_slot_stays_positive_zero_through_a_stream(self, hamming74, code):
        # Words of unequal strength finish at different iterations: later
        # chunks refill freed columns, and the stream's end drops them.
        H = hamming74 if code == "hamming74" else irregular_code(40, 80, 3)
        rng = np.random.default_rng(11)
        prior = rng.uniform(0.2, 3.0, size=(30, 1)) + rng.normal(0.0, 1.5, size=(30, H.n))
        zero_slots, widths, shapes = [], [], []

        def record(state):
            zero_slots.append(state.msg_flat[-1].tobytes())
            widths.append(state.total.shape[1])
            views = (state.prior, state.msg, edge_messages(state), hard_decision(state))
            shapes.append(tuple(view.shape for view in views))

        with recording("variable_node_update", record):
            decode(H, iter(np.split(prior, [20, 24, 27])), DecoderConfig(max_iter=12))
        assert zero_slots == [as_bytes(np.zeros(w)) for w in widths]
        assert widths[0] == 20 and len(set(widths)) > 2
        # Every view of the state has the current width, across refills
        # and drops.
        dmax = int(H.row_degrees().max())
        assert shapes == [
            ((H.n, w), (dmax, H.m, w), (H.edges, w), (H.n, w)) for w in widths
        ]


class TestHardDecision:
    def test_zero_total_decides_zero(self):
        H = ParityCheckMatrix([[0, 1, 2]], 3)
        state = init_state(H, np.array([3.0, -1.0, 0.0]), NO_CLAMP)
        assert hard_decision(state)[:, 0].tolist() == [0, 1, 0]

    def test_all_positive(self):
        H = ParityCheckMatrix([[0, 1, 2]], 3)
        state = init_state(H, np.array([1.0, 2.0, 3.0]), NO_CLAMP)
        assert hard_decision(state)[:, 0].tolist() == [0, 0, 0]

    def test_antisymmetric_off_boundary(self):
        H = ParityCheckMatrix([[0, 1, 2]], 3)
        totals = np.array([3.0, -1.0, 2.0])
        a = hard_decision(init_state(H, totals, NO_CLAMP))[:, 0]
        b = hard_decision(init_state(H, -totals, NO_CLAMP))[:, 0]
        assert np.array_equal(a ^ b, np.ones(3, dtype=np.uint8))


class TestDecode:
    def test_noiseless_fixed_point_converges_immediately(self, fixture252):
        cfg = DecoderConfig()
        prior = np.full(504, cfg.clamp)
        result = decode(fixture252, prior, cfg)
        assert result.converged
        assert result.iterations_used == 1
        assert not result.bits.any()

    def test_weak_single_error_recovered(self, hamming74, hamming_codewords):
        word = hamming_codewords[5]
        prior = np.where(word == 0, 4.0, -4.0)
        prior[2] = -prior[2] * 0.125  # weakly wrong bit
        result = decode(hamming74, prior)
        assert result.converged
        assert np.array_equal(result.bits, word)

    def test_iteration_cap_without_early_exit(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=1)
        cfg = DecoderConfig(max_iter=30, early_exit=False)
        result = decode(fixture252, prior, cfg)
        assert result.iterations_used == 30

    def test_adversarial_input_never_converges(self, fixture252):
        # Deep in the noise (-3 dB) the syndrome stays violated at the cap.
        prior = noisy_prior(fixture252, ebno_db=-3.0, seed=2)
        cfg = DecoderConfig(max_iter=30, early_exit=False)
        result = decode(fixture252, prior, cfg)
        assert result.iterations_used == 30
        assert not result.converged

    def test_converged_matches_syndrome(self, fixture252):
        for seed in range(8):
            prior = noisy_prior(fixture252, ebno_db=1.0, seed=seed)
            result = decode(fixture252, prior)
            assert result.converged == syndrome_ok(fixture252, result.bits)

    def test_determinism(self, fixture252):
        prior = noisy_prior(fixture252, ebno_db=2.0, seed=3)
        a = decode(fixture252, prior)
        b = decode(fixture252, prior)
        assert np.array_equal(a.bits, b.bits)
        assert a.iterations_used == b.iterations_used
        assert a.converged == b.converged

    def test_permutation_symmetry(self):
        H = generate_regular(24, 3, 6, seed=4)
        rng = np.random.default_rng(4)
        prior = rng.normal(0, 2, 24)
        perm = rng.permutation(24)
        Hp = ParityCheckMatrix(
            [[int(np.where(perm == v)[0][0]) for v in row] for row in adjacency(H)[0]], 24
        )
        a = decode(H, prior)
        b = decode(Hp, prior[perm])
        assert np.array_equal(a.bits[perm], b.bits)

    def test_length_mismatch(self, hamming74):
        with pytest.raises(LengthMismatch):
            decode(hamming74, np.zeros(6))

    def test_non_finite_prior_rejected(self, hamming74):
        with pytest.raises(ValueError):
            decode(hamming74, np.array([np.inf, 0, 0, 0, 0, 0, 0]))

    @pytest.mark.parametrize("clamp", [-5.0, 0.0, -0.0, float("nan")])
    def test_clamp_not_above_zero_rejected(self, clamp):
        with pytest.raises(ConfigurationError, match="clamp"):
            DecoderConfig(clamp=clamp)

    @pytest.mark.parametrize("clamp", [None, 1e-9, float("inf")])
    def test_clamp_none_or_above_zero_accepted(self, clamp):
        assert DecoderConfig(clamp=clamp).clamp == clamp

    @pytest.mark.parametrize("max_iter", [2.5, float("nan"), float("inf"), 0, "3"])
    def test_max_iter_not_a_positive_integer_rejected(self, max_iter):
        # A fractional or non-finite budget never equals a whole iteration
        # count, so decode would never stop the word.
        with pytest.raises(ConfigurationError, match="max_iter"):
            DecoderConfig(max_iter=max_iter, early_exit=False)

    def test_numpy_integer_max_iter_accepted(self, hamming74):
        cfg = DecoderConfig(max_iter=np.int64(2), early_exit=False)
        assert decode(hamming74, np.ones(7), cfg).iterations_used == 2

    def test_degree_one_check_rejected(self):
        H = ParityCheckMatrix([[0, 1], [1]], 2)
        with pytest.raises(ConfigurationError):
            decode(H, np.zeros(2))


# Saturation settings the batch properties cover.
BATCH_SATURATION = [
    {"clamp": 64.0},
    {"clamp": None},
    {"qformat": QFormat(8, 4)},
    {"qformat": QFormat(5, 1)},
]


@pytest.fixture(scope="module")
def batch_codes(fixture252):
    codes = [generate_regular(n, wc, wr, seed=n + wc) for n, wc, wr in SMALL_REGULAR_PARAMS]
    return codes + [irregular_code(10, 16, 1), fixture252]


class TestBatchDecode:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        code=st.integers(0, len(SMALL_REGULAR_PARAMS) + 1),
        saturation=st.sampled_from(BATCH_SATURATION),
        early_exit=st.booleans(),
        words=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_each_row_decodes_as_alone(self, batch_codes, code, saturation,
                                       early_exit, words, seed):
        H = batch_codes[code]
        cfg = DecoderConfig(max_iter=20, early_exit=early_exit, **saturation)
        rng = np.random.default_rng(seed)
        # Per-word signal strength, so words converge at different iterations
        # and leave the batch at different times.
        strength = rng.uniform(0.2, 3.0, size=(words, 1))
        prior = strength + rng.normal(0.0, 1.5, size=(words, H.n))
        batch = decode(H, prior, cfg)
        assert batch.bits.shape == (words, H.n) and batch.bits.dtype == np.uint8
        assert batch.converged.shape == batch.word_iterations.shape == (words,)
        assert batch.iterations_used == int(batch.word_iterations.sum())
        assert isinstance(batch.iterations_used, int)
        for w in range(words):
            alone = decode(H, prior[w], cfg)
            assert np.array_equal(batch.bits[w], alone.bits)
            assert bool(batch.converged[w]) == alone.converged
            assert int(batch.word_iterations[w]) == alone.iterations_used
        verdicts = syndrome_ok(H, batch.bits)
        assert verdicts.tolist() == [syndrome_ok(H, b) for b in batch.bits]

    @pytest.mark.parametrize("saturation", BATCH_SATURATION)
    @pytest.mark.parametrize("code, words, seed",
                             [(0, 2, 0), (3, 5, 1), (-2, 3, 2), (-2, 6, 3), (-1, 4, 4)])
    def test_messages_match_one_word_at_every_iteration(self, batch_codes, saturation,
                                                        code, words, seed):
        # Without early exit no word leaves the batch, so column b of the
        # batch's messages is word b's at every iteration.
        H = batch_codes[code]
        cfg = DecoderConfig(max_iter=12, early_exit=False, **saturation)
        prior = np.random.default_rng(seed).normal(0.8, 2.0, size=(words, H.n))
        batch = []
        with recording("check_node_update_block", lambda s: batch.append(edge_messages(s).copy())):
            decode(H, prior, cfg)
        assert len(batch) == cfg.max_iter
        for b in range(words):
            alone = []
            with recording("check_node_update_block",
                           lambda s: alone.append(edge_messages(s).copy())):
                decode(H, prior[b], cfg)
            assert [m[:, b].tobytes() for m in batch] == [m.tobytes() for m in alone]

    @pytest.mark.parametrize("case", ["early exit", "worst case", "Q8.4", "check update"])
    def test_one_word_batch_keeps_batch_shapes(self, fixture252, case):
        # One word decodes as a batch of one; only its result is unwrapped,
        # to row 0 of the batch's, with Python scalars for the verdict and
        # the count.
        H = fixture252
        prior = noisy_prior(H, ebno_db=2.0, seed=3)
        cfg = {
            "early exit": DecoderConfig(),
            "worst case": DecoderConfig(early_exit=False),
            "Q8.4": DecoderConfig(qformat=QFormat(8, 4)),
            "check update": DecoderConfig(max_iter=12, clamp=6.0),
        }[case]
        update, shapes = None, []
        if case == "check update":
            degs = H.row_degrees().tolist()

            def update(d):
                shapes.append((d.shape, d.dtype))
                return check_block_messages(d.tolist(), degs, cfg.clamp, cfg.qformat)
        one = decode(H, prior[None, :], cfg, update)
        alone = decode(H, prior, cfg, update)
        assert set(shapes) == ({((H.edges,), np.dtype(np.float64))} if update else set())
        if update:
            assert len(shapes) == one.iterations_used + alone.iterations_used
        assert one.bits.shape == (1, 504) and one.converged.shape == (1,)
        assert alone.bits.shape == (504,) and alone.bits.dtype == np.uint8
        assert type(alone.converged) is bool and type(alone.iterations_used) is int
        assert alone.word_iterations.shape == () and alone.word_iterations.dtype == np.int64
        assert alone.word_iterations == alone.iterations_used
        assert np.array_equal(one.bits[0], alone.bits)
        assert alone.converged == one.converged[0]
        assert alone.word_iterations == one.word_iterations[0]
        assert one.iterations_used == alone.iterations_used == int(alone.word_iterations)
        if case == "worst case":
            assert alone.iterations_used == 30
        verdict = syndrome_ok(H, alone.bits)
        assert type(verdict) is bool and verdict == alone.converged
        verdicts = syndrome_ok(H, np.stack([alone.bits, alone.bits ^ 1, alone.bits]))
        assert verdicts.shape == (3,) and verdicts.dtype == np.bool_
        assert verdicts.tolist() == [verdict, syndrome_ok(H, alone.bits ^ 1), verdict]

    @pytest.mark.parametrize("shape", [(2, 8), (2, 6), (2, 3, 7), (0, 7)])
    def test_prior_of_wrong_shape(self, hamming74, shape):
        with pytest.raises(LengthMismatch):
            decode(hamming74, np.zeros(shape))

    def test_non_finite_prior_in_one_word(self, hamming74):
        prior = np.ones((3, 7))
        prior[1, 4] = np.nan
        with pytest.raises(ValueError):
            decode(hamming74, prior)

    def test_reference_refuses_a_batch(self, hamming74):
        with pytest.raises(LengthMismatch):
            decode_minsum_reference(hamming74, np.ones((2, 7)))


class TestStreamDecode:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        code=st.integers(0, len(SMALL_REGULAR_PARAMS) + 1),
        qformat=st.sampled_from([None, QFormat(8, 4)]),
        early_exit=st.booleans(),
        max_iter=st.integers(1, 12),
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_each_word_decodes_as_alone(self, batch_codes, code, qformat, early_exit,
                                        max_iter, sizes, seed):
        # Words of unequal strength finish at different iterations, so later
        # words take freed columns at different times; the first chunk sets
        # how many columns there are.
        H = batch_codes[code]
        cfg = DecoderConfig(max_iter=max_iter, early_exit=early_exit, qformat=qformat)
        rng = np.random.default_rng(seed)
        words = sum(sizes)
        strength = rng.uniform(0.2, 3.0, size=(words, 1))
        prior = strength + rng.normal(0.0, 1.5, size=(words, H.n))
        chunks = np.split(prior, np.cumsum(sizes)[:-1])
        stream = decode(H, iter(chunks), cfg)
        assert stream.bits.shape == (words, H.n) and stream.bits.dtype == np.uint8
        assert stream.converged.shape == stream.word_iterations.shape == (words,)
        assert stream.iterations_used == int(stream.word_iterations.sum())
        for w in range(words):
            alone = decode(H, prior[w], cfg)
            assert np.array_equal(stream.bits[w], alone.bits)
            assert bool(stream.converged[w]) == alone.converged
            assert int(stream.word_iterations[w]) == alone.iterations_used

    @pytest.mark.parametrize("qformat", [None, QFormat(8, 4)], ids=["float64", "q8.4"])
    @pytest.mark.parametrize("form", ["word", "batch", "stream"])
    def test_passed_check_update_decodes_as_the_default(self, fixture252, form, qformat):
        # The scalar kernel on the whole code passed in as decode's hook:
        # words of unequal strength finish at different iterations, so the
        # batch shrinks and, in a stream, columns change words, while the
        # hook sees one word's edge-order differences per resident word.
        H = fixture252
        cfg = DecoderConfig(qformat=qformat)
        degs = H.row_degrees().tolist()
        words = np.stack([noisy_prior(H, ebno_db, seed)
                          for seed, ebno_db in enumerate([1.0, 3.0, 1.5, 4.0, 2.0])])

        def prior():
            return {"word": words[0], "batch": words,
                    "stream": iter(np.split(words, [2, 3]))}[form]

        shapes = []

        def update(d):
            shapes.append((d.shape, d.dtype))
            return check_block_messages(d.tolist(), degs, cfg.clamp, cfg.qformat)

        hooked = decode(H, prior(), cfg, update)
        plain = decode(H, prior(), cfg)
        assert set(shapes) == {((H.edges,), np.dtype(np.float64))}
        assert len(shapes) == plain.iterations_used
        assert np.array_equal(hooked.bits, plain.bits)
        assert np.array_equal(hooked.converged, plain.converged)
        assert np.array_equal(hooked.word_iterations, plain.word_iterations)
        if form != "word":
            assert len(set(plain.word_iterations.tolist())) > 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prior_in_a_later_chunk(self, hamming74, bad):
        # Strong priors converge at once, so every chunk is read.
        chunk = np.full((2, 7), 8.0)
        chunk[1, 3] = bad
        with pytest.raises(ValueError) as first:
            decode(hamming74, iter([chunk]))
        with pytest.raises(ValueError) as later:
            decode(hamming74, iter([np.full((3, 7), 8.0), np.full((1, 7), 8.0), chunk]))
        assert str(later.value) == str(first.value) == "priors must be finite"

    @pytest.mark.parametrize("stream", [[], iter(())])
    def test_empty_stream(self, hamming74, stream):
        with pytest.raises(LengthMismatch, match="no chunk"):
            decode(hamming74, stream)

    @pytest.mark.parametrize("shape", [(2, 6), (2, 8), (7,), (0, 7)])
    @pytest.mark.parametrize("position", [0, 2])
    def test_chunk_of_wrong_shape(self, hamming74, shape, position):
        chunks = [np.full((2, 7), 8.0), np.full((1, 7), 8.0)]
        chunks.insert(position, np.full(shape, 8.0))
        with pytest.raises(LengthMismatch):
            decode(hamming74, iter(chunks))


@pytest.fixture
def stop_tests(monkeypatch):
    """The words of each `syndrome_ok` call decode makes, one entry per call."""
    calls = []

    def counted(H, bits, scratch=None):
        calls.append(np.atleast_2d(bits).shape[0])
        return syndrome_ok(H, bits, scratch)

    monkeypatch.setattr("ldpcsim.decoder.syndrome_ok", counted)
    return calls


class TestStopTest:
    def test_worst_case_word_is_tested_once(self, fixture252, stop_tests):
        prior = noisy_prior(fixture252, ebno_db=2.0, seed=1)
        result = decode(fixture252, prior, DecoderConfig(max_iter=30, early_exit=False))
        assert result.iterations_used == 30
        assert stop_tests == [1]

    def test_early_exit_tests_every_iteration(self, fixture252, stop_tests):
        prior = noisy_prior(fixture252, ebno_db=2.0, seed=0)
        result = decode(fixture252, prior)
        assert result.converged and result.iterations_used == 13
        assert stop_tests == [1] * result.iterations_used

    def test_flat_stream_is_tested_once_per_finishing_iteration(self, fixture252, stop_tests):
        # Without early exit the 4 columns finish together every max_iter
        # iterations: 13 words take 4 rounds, the last one word wide.
        H = fixture252
        cfg = DecoderConfig(max_iter=7, early_exit=False)
        words = np.stack([noisy_prior(H, ebno_db, seed)
                          for seed, ebno_db in enumerate(np.linspace(-1.0, 4.0, 13))])
        stream = decode(H, iter(np.split(words, [4, 7, 9])), cfg)
        assert stop_tests == [4, 4, 4, 1]
        assert stream.word_iterations.tolist() == [7] * 13
        for w in range(13):
            alone = decode(H, words[w], cfg)
            assert np.array_equal(stream.bits[w], alone.bits)
            assert bool(stream.converged[w]) == alone.converged

    @pytest.mark.parametrize("form", ["word", "batch", "stream"])
    def test_worst_case_verdict_is_the_final_syndrome(self, fixture252, form):
        # At 2 dB the words converge, at -3 dB they do not; each verdict
        # must be the syndrome of the bits decode returns.
        H = fixture252
        cfg = DecoderConfig(max_iter=30, early_exit=False)
        words = np.stack([noisy_prior(H, ebno_db, seed)
                          for seed, ebno_db in enumerate([2.0, -3.0, 2.0, -3.0, 2.0])])
        if form == "word":
            results = [decode(H, word, cfg) for word in words]
            bits = np.stack([r.bits for r in results])
            converged = [r.converged for r in results]
        else:
            result = decode(H, words if form == "batch" else iter(np.split(words, [2, 3])), cfg)
            bits, converged = result.bits, result.converged.tolist()
        assert converged == syndrome_ok(H, bits).tolist() == [True, False, True, False, True]


class TestMinsumReference:
    @pytest.mark.parametrize("n,wc,wr", SMALL_REGULAR_PARAMS[:5])
    def test_per_iteration_message_equivalence(self, n, wc, wr):
        H = generate_regular(n, wc, wr, seed=n + wr)
        rng = np.random.default_rng(n)
        prior = rng.normal(0, 2, n)
        cfg = DecoderConfig(max_iter=10, early_exit=False, clamp=None)
        reduced, ref, ours, theirs = traced_pair(H, prior, cfg)
        assert len(ours) == len(theirs) == 10
        for a, b in zip(ours, theirs):
            assert np.max(np.abs(a - b)) < 1e-9
        assert np.array_equal(reduced.bits, ref.bits)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_of_unequal_degree(self, seed):
        H = irregular_code(12, 20, seed)
        prior = np.random.default_rng(seed).normal(0.5, 2, H.n)
        cfg = DecoderConfig(max_iter=8, early_exit=False, clamp=None)
        reduced, ref, ours, theirs = traced_pair(H, prior, cfg)
        for a, b in zip(ours, theirs):
            assert np.max(np.abs(a - b)) < 1e-9
        assert np.array_equal(reduced.bits, ref.bits)

    def test_noiseless_agreement(self, hamming74):
        prior = np.full(7, 12.0)
        a = decode(hamming74, prior)
        b = decode_minsum_reference(hamming74, prior)
        assert a.iterations_used == b.iterations_used == 1
        assert np.array_equal(a.bits, b.bits)

    def test_hamming_output_sweep(self, hamming74):
        rng = np.random.default_rng(99)
        cfg = DecoderConfig(max_iter=10)
        for _ in range(100):
            prior = rng.normal(0.8, 2.0, 7)
            a = decode(hamming74, prior, cfg)
            b = decode_minsum_reference(hamming74, prior, cfg)
            assert np.array_equal(a.bits, b.bits)
            assert a.iterations_used == b.iterations_used


class TestFixedPoint:
    def test_qformat_validation(self):
        with pytest.raises(ConfigurationError):
            QFormat(4, 4)

    def test_qformat_wider_than_float64_rejected(self):
        for total in (54, 64):
            with pytest.raises(ConfigurationError, match="total_bits <= 53"):
                QFormat(total, 4)
        q = QFormat(53, 4)
        assert q.quantize(np.array([1e300]))[0] == q.max_value == (2.0**52 - 1) / 16

    def test_q84_saturation_bound(self):
        q = QFormat(8, 4)
        assert q.max_value == 7.9375
        out = q.quantize(np.array([100.0, -100.0, 0.131]))
        assert out.tolist() == [7.9375, -7.9375, 0.125]

    def test_decode_stays_on_grid(self, fixture252):
        cfg = DecoderConfig(qformat=QFormat(8, 4))
        prior = noisy_prior(fixture252, ebno_db=3.0, seed=5)
        seen = []
        with recording("check_node_update_block", seen.append):
            decode(fixture252, prior, cfg)
        total = seen[-1].total
        scaled = total * 16.0
        assert np.array_equal(scaled, np.round(scaled))
        assert np.max(np.abs(total)) <= 7.9375

    def test_fixed_point_still_corrects_at_high_snr(self, fixture252):
        cfg = DecoderConfig(qformat=QFormat(8, 4))
        prior = noisy_prior(fixture252, ebno_db=4.0, seed=6)
        result = decode(fixture252, prior, cfg)
        assert result.converged
        assert not result.bits.any()


class TestDecodeResult:
    def test_holds_only_its_sources(self):
        assert [f.name for f in fields(DecodeResult)] == ["bits", "converged", "word_iterations"]
        result = DecodeResult(np.zeros(7, np.uint8), True, np.int64(3))
        with pytest.raises(AttributeError):
            result.iterations_used = 4

    def test_iterations_used_sums_the_word_counts(self, fixture252):
        # Words of unequal noise finish at different iterations.
        prior = np.stack([noisy_prior(fixture252, ebno_db, seed)
                          for seed, ebno_db in enumerate([1.0, 2.0, 3.0, 4.0])])
        one = decode(fixture252, prior[0])
        batch = decode(fixture252, prior)
        stream = decode(fixture252, iter(np.split(prior, [1, 3])))
        assert one.iterations_used == int(one.word_iterations) == batch.word_iterations[0]
        assert type(one.iterations_used) is int
        for result in (batch, stream):
            assert result.iterations_used == result.word_iterations.sum()
            assert type(result.iterations_used) is int
        assert len(set(batch.word_iterations.tolist())) > 1
        assert np.array_equal(stream.word_iterations, batch.word_iterations)
