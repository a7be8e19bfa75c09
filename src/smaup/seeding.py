"""Counter-based seed derivation for reproducible parallel simulation.

Every random draw in the toolkit flows from one 64-bit master seed. Child
seeds are derived from the master seed plus an integer path that names what
the draw is (recipe tag, instance, role, repeat, ...; never a cell's place in
the run) via :class:`numpy.random.SeedSequence` spawn keys, so a result never
depends on scheduling order, worker count or the other cells of a run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_seed", "derive_rng"]


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and an integer path.

    The same (master_seed, path) always yields the same child seed, and
    distinct paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Generator seeded by :func:`derive_seed` of the same path."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)
