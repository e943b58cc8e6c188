import itertools
import multiprocessing as mp
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ldpcsim.channel import ChannelConfig, llr_init, modulate, transmit
from ldpcsim.code import ParityCheckMatrix, generate_regular, load_alist

DATA = Path(__file__).parent / "data"

# Selected in CI with --hypothesis-profile=ci: the same examples on every run,
# and a failure prints the blob that replays it locally.  max_examples is not
# set here, so each property keeps the count its own @settings gives it.
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)

# Feasible (n, wc, wr) triples for small random regular codes, n <= 24.
SMALL_REGULAR_PARAMS = [
    (12, 2, 4),
    (12, 3, 4),
    (16, 2, 4),
    (18, 3, 6),
    (20, 2, 4),
    (20, 3, 4),
    (21, 2, 6),
    (24, 2, 4),
    (24, 3, 4),
    (24, 3, 6),
]


@pytest.fixture(autouse=True)
def no_worker_left_running():
    """Fails a test that leaves a worker process alive, and stops it."""
    yield
    live = mp.active_children()
    for child in live:
        child.kill()
        child.join()
    assert live == [], f"worker processes left running: {live}"


@pytest.fixture(scope="session")
def hamming74():
    """4x7 parity matrix of the (7,4) Hamming code (one redundant row)."""
    return load_alist((DATA / "hamming_4x7.alist").read_text())


@pytest.fixture(scope="session")
def hamming_codewords(hamming74):
    """All 16 codewords, found by exhaustive enumeration of 128 words."""
    from ldpcsim.code import syndrome_ok

    words = [
        np.array(bits, dtype=np.uint8)
        for bits in itertools.product((0, 1), repeat=7)
        if syndrome_ok(hamming74, np.array(bits, dtype=np.uint8))
    ]
    assert len(words) == 16
    return words


@pytest.fixture(scope="session")
def fixture252():
    """The 252x504 (3,6)-regular code used by the scale scenarios."""
    return generate_regular(504, 3, 6, seed=1)


def noisy_prior(H, ebno_db, seed, word=None):
    """Channel LLRs of `word` (default all-zero) sent at the given Eb/N0;
    deterministic per seed."""
    cfg = ChannelConfig(ebno_db=ebno_db, rate=0.5, seed=seed)
    word = np.zeros(H.n, dtype=np.uint8) if word is None else word
    return llr_init(transmit(modulate(word), cfg), cfg)


def irregular_code(m, n, seed):
    """Random code whose rows have unequal degrees (2 to 7)."""
    rng = np.random.default_rng(seed)
    rows = [rng.choice(n, size=int(rng.integers(2, 8)), replace=False) for _ in range(m)]
    for v in set(range(n)) - {int(v) for r in rows for v in r}:
        c = int(rng.integers(m))
        rows[c] = np.append(rows[c], v)
    return ParityCheckMatrix([sorted({int(v) for v in r}) for r in rows], n)


def adjacency(H):
    """H's Tanner graph as tuples, read off its CSR arrays: per check the
    variables in edge order, and per variable the checks in ascending order."""
    ptr, var = H.row_ptr.tolist(), H.edge_var.tolist()
    rows = tuple(tuple(var[a:b]) for a, b in zip(ptr[:-1], ptr[1:]))
    cols = [[] for _ in range(H.n)]
    for c, vs in enumerate(rows):
        for v in vs:
            cols[v].append(c)
    return rows, tuple(map(tuple, cols))
