"""Reproducible random seeds for keys and instances.

The paper distinguishes two regimes for weighted sampling:

* **known seeds** — the uniform random seed ``u_i(h)`` used to sample key
  ``h`` in instance ``i`` is produced by a random hash function and is
  therefore available to the estimator even for keys that were *not*
  sampled.  Knowing the seed reveals an upper bound on the unsampled value
  (``v_i(h) < tau_i(u_i(h))``), which is exactly the partial information the
  optimal estimators exploit.
* **unknown seeds** — the randomization is not reproducible; Section 6 of the
  paper shows that several functions then admit no unbiased nonnegative
  estimator at all.

:class:`SeedAssigner` implements the known-seed model with a deterministic
hash: the seed of a (key, instance) pair is a pure function of the key, the
instance label and a salt.  Setting ``coordinated=True`` drops the instance
label from the hash, which yields shared-seed (coordinated / PRN) sampling:
every instance sees the same seed for a given key.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["SeedAssigner", "key_hashes", "splitmix64", "uniform_from_uint64"]

_UINT64_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
#: 2**-64 as a float; multiplying a uint64 by this maps it into [0, 1).
_INV_2_64 = float(np.ldexp(1.0, -64))


def splitmix64(values: np.ndarray) -> np.ndarray:
    """Apply the SplitMix64 finalizer to an array of ``uint64`` values.

    SplitMix64 is a well-mixed invertible permutation of the 64-bit integers,
    which makes it a good stand-in for the "random hash function" the paper
    assumes.  The function is vectorised so that a whole key column can be
    hashed in one call.
    """
    z = np.asarray(values, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        z = (z + np.uint64(0x9E3779B97F4A7C15)) & _UINT64_MASK
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _UINT64_MASK
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _UINT64_MASK
        z = z ^ (z >> np.uint64(31))
    return z


def uniform_from_uint64(values: np.ndarray) -> np.ndarray:
    """Map ``uint64`` hash values to floats uniform on the open interval (0, 1).

    The end points are excluded so that downstream divisions by the seed and
    logarithms of ``1 - u`` are always finite.
    """
    u = np.asarray(values, dtype=np.uint64).astype(np.float64) * _INV_2_64
    tiny = np.finfo(np.float64).tiny
    return np.clip(u, tiny, 1.0 - np.finfo(np.float64).epsneg)


def _hash_label(label: object) -> int:
    """Hash an arbitrary (hashable, printable) label to a stable 64-bit int."""
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
        return int(label) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(repr(label).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def key_hashes(keys: Sequence[object]) -> np.ndarray:
    """Hash a key column to well-mixed ``uint64`` values.

    Integer keys are hashed fully vectorised; other key types, and Python
    integers outside ``[0, 2**64)``, fall back to a per-key hash.  The
    result feeds both the seed assignment (via
    :meth:`SeedAssigner.seeds_from_hashes`) and key sharding in the
    streaming engine, so a key's shard and its seeds derive from one hash
    pass.
    """
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
        # A NumPy integer column hashes without building per-key Python
        # objects.  Casting to uint64 wraps negatives modulo 2**64 —
        # exactly what ``_hash_label``'s ``int(label) & MASK`` computes —
        # so the vectorized path is bit-identical to the fallback.
        with np.errstate(over="ignore"):
            return splitmix64(keys.astype(np.uint64))
    keys = list(keys)
    # one C-level pass over the key types instead of a per-key isinstance
    if keys and all(
        issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)
        for kind in set(map(type, keys))
    ):
        try:
            # NumPy integer scalars wrap modulo 2**64 like ``_hash_label``;
            # Python ints outside [0, 2**64) raise and take the fallback
            return splitmix64(np.array(keys, dtype=np.uint64))
        except OverflowError:
            pass
    return splitmix64(
        np.array([_hash_label(k) for k in keys], dtype=np.uint64)
    )


class SeedAssigner:
    """Deterministic per-(key, instance) uniform seeds.

    Parameters
    ----------
    salt:
        Integer that selects the hash function.  Two assigners with the same
        salt produce identical seeds; different salts give (practically)
        independent seed assignments.
    coordinated:
        When ``True`` the instance label is ignored, so every instance shares
        the seed of a key.  This is the PRN / shared-seed coordination model
        of Section 7.2.  When ``False`` (default) seeds of different
        instances are independent.

    Examples
    --------
    >>> seeds = SeedAssigner(salt=7)
    >>> 0.0 < seeds.seed("alice", instance=1) < 1.0
    True
    >>> seeds.seed("alice", instance=1) == seeds.seed("alice", instance=1)
    True
    """

    def __init__(self, salt: int = 0, coordinated: bool = False) -> None:
        self.salt = int(salt)
        self.coordinated = bool(coordinated)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SeedAssigner(salt={self.salt}, coordinated={self.coordinated})"
        )

    # Seed assignment is a pure function of (salt, coordinated), so two
    # assigners with equal configuration are interchangeable — the property
    # the sketch codec relies on to round-trip assigners by configuration.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeedAssigner):
            return NotImplemented
        return (
            self.salt == other.salt
            and self.coordinated == other.coordinated
        )

    def __hash__(self) -> int:
        return hash((SeedAssigner, self.salt, self.coordinated))

    def _mix(self, key_hashes: np.ndarray, instance: object) -> np.ndarray:
        instance_hash = 0 if self.coordinated else _hash_label(instance)
        base = np.asarray(key_hashes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            mixed = base ^ splitmix64(
                np.uint64((instance_hash * 0x9E3779B97F4A7C15 + self.salt)
                          & 0xFFFFFFFFFFFFFFFF)
            )
        return splitmix64(mixed)

    def seed(self, key: object, instance: object = 0) -> float:
        """Return the uniform seed of ``key`` in ``instance``."""
        return float(self.seeds([key], instance=instance)[0])

    def seeds(self, keys: Iterable[object], instance: object = 0) -> np.ndarray:
        """Return the uniform seeds of several keys in one instance.

        Integer keys are hashed fully vectorised; other key types fall back
        to a per-key hash.
        """
        return self.seeds_from_hashes(key_hashes(list(keys)), instance)

    def seeds_from_hashes(
        self, hashes: np.ndarray, instance: object = 0
    ) -> np.ndarray:
        """Return uniform seeds from precomputed :func:`key_hashes`.

        Lets callers that already hashed the key column (e.g. the streaming
        engine, which shards by key hash) avoid hashing it a second time.
        """
        return uniform_from_uint64(self._mix(hashes, instance))

    def seed_map(
        self, keys: Sequence[object], instance: object = 0
    ) -> dict[object, float]:
        """Return a ``{key: seed}`` mapping for ``keys`` in ``instance``."""
        return dict(zip(keys, self.seeds(keys, instance=instance).tolist()))
