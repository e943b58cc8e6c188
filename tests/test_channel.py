import math
import warnings

import numpy as np
import pytest

from ldpcsim.channel import ChannelConfig, llr_init, modulate, transmit
from ldpcsim.decoder import decode

from conftest import noisy_prior

# Eb/N0 giving sigma^2 = 0.5 at rate 1/2: 10*log10(2).
EBNO_SIGMA2_HALF = 10.0 * math.log10(2.0)


class TestModulate:
    def test_definition(self):
        out = modulate(np.array([0, 1, 0], dtype=np.uint8))
        assert out.tolist() == [1.0, -1.0, 1.0]

    def test_all_zero(self):
        assert modulate(np.zeros(17, dtype=np.uint8)).tolist() == [1.0] * 17

    def test_sign_demap_recovers_bits(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=200).astype(np.uint8)
        demapped = (modulate(bits) < 0).astype(np.uint8)
        assert np.array_equal(demapped, bits)


class TestTransmit:
    def test_noiseless_limit(self):
        cfg = ChannelConfig(ebno_db=200.0, rate=0.5, seed=1)
        s = modulate(np.zeros(64, dtype=np.uint8))
        assert np.max(np.abs(transmit(s, cfg) - s)) < 1e-8

    def test_deterministic_per_seed(self):
        cfg = ChannelConfig(ebno_db=2.0, rate=0.5, seed=42)
        s = modulate(np.zeros(100, dtype=np.uint8))
        assert np.array_equal(transmit(s, cfg), transmit(s, cfg))

    def test_batch_draw_equals_successive_words(self):
        # ber_sweep's batches must consume the stream exactly as words
        # drawn one at a time, so its BER rows do not depend on batching.
        cfg = ChannelConfig(ebno_db=1.0, rate=0.5)
        s = modulate(np.zeros(50, dtype=np.uint8))
        batch = transmit(np.broadcast_to(s, (7, 50)), cfg, rng=np.random.default_rng([3, 1]))
        rng = np.random.default_rng([3, 1])
        one_by_one = np.stack([transmit(s, cfg, rng=rng) for _ in range(7)])
        assert batch.shape == (7, 50)
        assert np.array_equal(batch, one_by_one)

    def test_different_seeds_differ(self):
        s = modulate(np.zeros(100, dtype=np.uint8))
        a = transmit(s, ChannelConfig(ebno_db=2.0, rate=0.5, seed=1))
        b = transmit(s, ChannelConfig(ebno_db=2.0, rate=0.5, seed=2))
        assert not np.array_equal(a, b)

    def test_empirical_noise_variance(self):
        cfg = ChannelConfig(ebno_db=1.0, rate=0.5, seed=3)
        s = np.zeros(1_000_000)
        noise = transmit(s, cfg) - s
        assert abs(np.var(noise) / cfg.sigma2 - 1.0) < 0.01

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(ebno_db=1.0, rate=1.5)

    # 1e5, -1e5 and -3090 are finite, but 10^(ebno_db/10) overflows,
    # underflows to 0, or leaves sigma2 inf.
    @pytest.mark.parametrize("ebno_db", [math.nan, math.inf, -math.inf, 1e5, -1e5, -3090.0])
    def test_non_finite_ebno_rejected(self, ebno_db):
        with pytest.raises(ValueError, match="ebno_db must be finite") as info:
            ChannelConfig(ebno_db=ebno_db, rate=0.5)
        assert str(info.value).endswith(f"finite and > 0, got {ebno_db}")

    @pytest.mark.parametrize("ebno_db", [3082.0, -3082.0])
    def test_extreme_ebno_in_range_builds(self, ebno_db):
        sigma2 = ChannelConfig(ebno_db=ebno_db, rate=0.5).sigma2
        assert 0.0 < sigma2 < math.inf

    def test_shared_stream_advances_but_reproduces(self):
        cfg = ChannelConfig(ebno_db=2.0, rate=0.5, seed=13)
        s = modulate(np.zeros(50, dtype=np.uint8))
        rng = np.random.default_rng(13)
        first = transmit(s, cfg, rng=rng)
        second = transmit(s, cfg, rng=rng)
        assert not np.array_equal(first, second)
        rng2 = np.random.default_rng(13)
        assert np.array_equal(first, transmit(s, cfg, rng=rng2))


class TestLlrInit:
    def test_zero_observation_gives_zero_llr(self):
        cfg = ChannelConfig(ebno_db=2.0, rate=0.5)
        assert llr_init(np.array([0.0]), cfg)[0] == 0.0

    def test_direct_substitution(self):
        cfg = ChannelConfig(ebno_db=EBNO_SIGMA2_HALF, rate=0.5)
        assert cfg.sigma2 == pytest.approx(0.5, rel=1e-12)
        assert llr_init(np.array([1.0]), cfg)[0] == pytest.approx(4.0, rel=1e-12)

    def test_sign_agreement(self):
        cfg = ChannelConfig(ebno_db=0.0, rate=0.5)
        y = np.random.default_rng(5).normal(0, 1, 500)
        llr = llr_init(y, cfg)
        nz = y != 0
        assert np.array_equal(np.sign(llr[nz]), np.sign(y[nz]))

    def test_odd_function(self):
        cfg = ChannelConfig(ebno_db=1.5, rate=0.5)
        y = np.random.default_rng(6).normal(0, 1, 100)
        assert np.array_equal(llr_init(-y, cfg), -llr_init(y, cfg))

    def test_halving_variance_doubles_llr(self):
        base = ChannelConfig(ebno_db=0.0, rate=0.5, llr_clamp=1e9)
        double = ChannelConfig(
            ebno_db=10.0 * math.log10(2.0), rate=0.5, llr_clamp=1e9
        )
        assert double.sigma2 == pytest.approx(base.sigma2 / 2.0, rel=1e-12)
        y = np.random.default_rng(7).normal(0, 1, 100)
        np.testing.assert_allclose(
            llr_init(y, double), 2.0 * llr_init(y, base), rtol=1e-12
        )

    def test_clamped_to_finite_range(self):
        cfg = ChannelConfig(ebno_db=30.0, rate=0.5, llr_clamp=64.0)
        llr = llr_init(np.array([100.0, -100.0]), cfg)
        assert llr.tolist() == [64.0, -64.0]

    def test_overflowing_quotient_clamps_without_warning(self):
        # At 3082 dB sigma^2 is about 6e-309: 2*y/sigma^2 overflows to
        # +-inf, which the clamp brings back to +-llr_clamp.
        cfg = ChannelConfig(ebno_db=3082.0, rate=0.5, seed=3)
        bits = np.random.default_rng(3).integers(0, 2, size=200).astype(np.uint8)
        symbols = modulate(bits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            llr = llr_init(transmit(symbols, cfg), cfg)
        assert llr.tolist() == (64.0 * symbols).tolist()


def test_high_snr_converges_first_iteration(fixture252):
    prior = noisy_prior(fixture252, ebno_db=12.0, seed=11)
    result = decode(fixture252, prior)
    assert result.converged
    assert result.iterations_used == 1
    assert not result.bits.any()
