"""Deterministic seed derivation.

Every stochastic operation in the package takes an explicit 64-bit seed.
Sub-streams are derived with a SplitMix64-style mix of the parent seed and
an index, so adding trials or grid points never perturbs the streams of
existing ones.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1

# stream tags for the independent random decisions inside one trial
PARAMS_STREAM = 0x9E3779B97F4A7C15
DATA_STREAM = 0xBF58476D1CE4E5B9
DEFENSE_STREAM = 0x94D049BB133111EB
TENSOR_STREAM = 0xD6E8FEB86659FD93
GRADMATCH_STREAM = 0xA5A5A5A5A5A5A5A5


def splitmix64(x: int) -> int:
    """One SplitMix64 output step on a 64-bit state."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(base_seed: int, *indices: int) -> int:
    """Mix ``base_seed`` with each index in turn; stable across runs.

    The index is XORed in before mixing, so ``b ^ i == b2 ^ j`` gives equal
    seeds: base seeds 4k..4k+3 run the same trials 0-3 (``derive_seed(3, 1)
    == derive_seed(0, 2)``).  Base seeds that are multiples of a power of two
    at least the trial count share no trial.  Kept: a new mix would change
    every record hash.
    """
    s = base_seed & _MASK
    for idx in indices:
        s = splitmix64(s ^ (idx & _MASK))
    return s


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed & _MASK)
