"""Deterministic derivation of named rng streams.

Every source of randomness in a run (sampling, acceptance) is its own
`random.Random` stream derived from the master seed, so the draw sequence
of one stream is independent of how often the others are consulted.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(master: int, name: str) -> int:
    """Derive a stable 64-bit child seed for a named stream."""
    digest = hashlib.sha256(f"{master}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(master: int, name: str) -> random.Random:
    return random.Random(derive_seed(master, name))
