"""Counter-based seed derivation for reproducible parallel simulation.

Every random draw in the toolkit flows from one 64-bit master seed. Child
seeds are derived from the master seed plus an integer path that names what
the draw is (recipe tag, instance, role, attempt, ...; never a cell's place in
the run) via :class:`numpy.random.SeedSequence` spawn keys, so a result never
depends on scheduling order, worker count or the other cells of a run.

The SeedSequence is handed the uint32 entropy words that numpy itself would
assemble from ``SeedSequence(entropy=master_seed, spawn_key=path)``: the
master seed's little-endian 32-bit words (``[0]`` for 0), zero-padded to the
4-word pool when a path follows, then each path element's words. Its pool,
and so every state it generates, is numpy's, without numpy's per-int
coercion in Python.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_seed", "derive_rng"]

_POOL_WORDS = 4  # SeedSequence's default pool size


def _is_integer(x) -> bool:
    """True for an int or a numpy integer; a bool is no count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative integer, ``[0]`` for 0;
    anything else raises ValueError."""
    if not _is_integer(value) or value < 0:
        raise ValueError(f"expected non-negative integer, got {value!r}")
    value = int(value)
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _seed_sequence(master_seed: int, *path: int) -> np.random.SeedSequence:
    """``SeedSequence(entropy=master_seed, spawn_key=path)``, built from its words."""
    words = _words(master_seed)
    if path:
        words += [0] * (_POOL_WORDS - len(words))
        for p in path:
            if p.__class__ is int and 0 <= p <= 0xFFFFFFFF:
                words.append(p)
            else:
                words += _words(p)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and an integer path.

    The same (master_seed, path) always yields the same child seed, and
    distinct paths yield statistically independent streams. The seed and
    every path element must be non-negative integers (a numpy integer will
    do, a bool or a float will not); anything else raises ValueError.
    """
    return int(_seed_sequence(master_seed, *path).generate_state(1, dtype=np.uint64)[0])


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """PCG64 Generator on the path's SeedSequence, the one :func:`derive_seed`
    draws from: ``default_rng(SeedSequence(entropy=master_seed, spawn_key=path))``."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(master_seed, *path)))
