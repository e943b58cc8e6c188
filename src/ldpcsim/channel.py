"""BPSK over AWGN and a-priori LLR computation.

The decoder consumes log-likelihood ratios log(P(bit=0|y)/P(bit=1|y));
positive values favor bit 0.  For BPSK (0 -> +1, 1 -> -1) on a real AWGN
channel this reduces to 2*y/sigma^2.  LLRs are clamped to a finite range
so the min-sum decoder never sees infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelConfig:
    """Eb/N0-parameterized AWGN channel for a code of the given rate."""

    ebno_db: float
    rate: float
    seed: int = 0
    llr_clamp: float = 64.0

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must be in (0,1), got {self.rate}")
        try:  # nan, +-inf and finite dB values out of range all fail here
            in_range = 0.0 < self.sigma2 < math.inf
        except (OverflowError, ZeroDivisionError):  # 10^(ebno_db/10) overflows or is 0
            in_range = False
        if not in_range:
            raise ValueError(
                f"ebno_db must be finite, with a noise variance 1 / (2 * rate * "
                f"10^(ebno_db/10)) that is finite and > 0, got {self.ebno_db}"
            )

    @property
    def sigma2(self) -> float:
        """Noise variance per real dimension: 1 / (2 * rate * 10^(EbN0/10))."""
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebno_db / 10.0))


def modulate(bits: np.ndarray) -> np.ndarray:
    """BPSK map: bit 0 -> +1.0, bit 1 -> -1.0."""
    bits = np.asarray(bits)
    return 1.0 - 2.0 * bits.astype(np.float64)


def transmit(
    symbols: np.ndarray, cfg: ChannelConfig, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Add white Gaussian noise of variance cfg.sigma2.

    A fresh PCG64 generator is seeded from cfg.seed unless an existing
    stream is passed in (used by sweeps that draw many words).  Noise is
    drawn in the shape of `symbols` in C order, so a (k, n) batch takes
    the same draws as k successive words of n symbols.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return symbols + rng.normal(0.0, np.sqrt(cfg.sigma2), size=np.shape(symbols))


def llr_init(y: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """A-priori LLRs for BPSK/AWGN: 2*y/sigma^2, clamped to +-llr_clamp."""
    with np.errstate(over="ignore"):  # a tiny sigma^2 gives +-inf, clamped below
        llr = 2.0 * np.asarray(y, dtype=np.float64) / cfg.sigma2
    return np.clip(llr, -cfg.llr_clamp, cfg.llr_clamp)
