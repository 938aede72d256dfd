"""Deterministic random streams.

Every randomized operation in the package draws from a stream derived from a
master seed plus a label path.  The generator algorithm is pinned to numpy's
PCG64 so identical (seed, labels) pairs reproduce identical draws across
platforms and runs.  Labels are hashed with BLAKE2 (stable, not salted), so
stream derivation does not depend on Python's per-process hash seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .core import check_integer

__all__ = ["stream", "spawn_key"]


def _label_words(label: str) -> tuple[int, ...]:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=16).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def spawn_key(seed: int | tuple[int, ...], *path: str | int) -> tuple[int, ...]:
    """Entropy tuple for a (seed, label path) pair; ints pass through verbatim.

    A previously spawned key may be used as the seed, so derivation composes:
    spawn_key(spawn_key(s, "a"), "b") == spawn_key(s, "a", "b").  The seed
    (each part of a tuple seed) and every path part that is not a string
    label must be an integer, or InvalidArguments is raised.
    """
    key: list[int] = []
    for part in seed if isinstance(seed, tuple) else (seed,):
        check_integer("seed", part)
        key.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    for part in path:
        if isinstance(part, str):
            key.extend(_label_words(part))
        else:
            check_integer("path part", part)
            key.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    return tuple(key)


def stream(seed: int | tuple[int, ...], *path: str | int) -> np.random.Generator:
    """A PCG64 generator bound to the given seed and label path.

    Example: ``stream(7, "trial", 3, "gen")`` is the generator used for
    instance generation inside trial 3 of an experiment seeded with 7.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(spawn_key(seed, *path))))
