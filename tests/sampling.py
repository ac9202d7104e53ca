"""Seeded random sampling for property checks.

The COREP_LIE_SEED environment variable fixes the seed used by the random
point and random matrix checks, so repeated runs draw identical samples.
"""
from __future__ import annotations

import os

import numpy as np

DEFAULT_SEED = 20260808
SEED_ENV_VAR = "COREP_LIE_SEED"


def seed_from_env() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def default_rng(seed: int | None = None) -> np.random.Generator:
    """Generator seeded from the argument or the environment."""
    return np.random.default_rng(seed_from_env() if seed is None else seed)

