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

import functools
import hashlib
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "SeedAssigner",
    "canonical_kinds",
    "hash_key_column",
    "key_hashes",
    "splitmix64",
    "uniform_cutoff",
    "uniform_from_uint64",
    "uniform_selected",
]

#: 2**-64 as a float; multiplying a uint64 by this maps it into [0, 1).
_INV_2_64 = float(np.ldexp(1.0, -64))
#: the 64-bit mask of unsigned wraparound arithmetic on Python ints
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: the bounds of :func:`uniform_from_uint64`'s open interval
_TINY = float(np.finfo(np.float64).tiny)
_BELOW_ONE = float(1.0 - np.finfo(np.float64).epsneg)


def splitmix64(values: np.ndarray) -> np.ndarray:
    """Apply the SplitMix64 finalizer to an array of ``uint64`` values.

    SplitMix64 is a well-mixed invertible permutation of the 64-bit integers,
    which makes it a good stand-in for the "random hash function" the paper
    assumes.  The function is vectorised so that a whole key column can be
    hashed in one call.
    """
    # One copied buffer: the input may be a read-only memoised column.
    return _splitmix64_in_place(np.array(values, dtype=np.uint64))


def _splitmix64_in_place(z: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of a writable ``uint64`` array, in place."""
    # uint64 arithmetic already wraps modulo 2**64
    with np.errstate(over="ignore"):
        z += np.uint64(0x9E3779B97F4A7C15)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def _splitmix64_int(value: int) -> int:
    """:func:`splitmix64` of one value in ``[0, 2**64)``, in Python ints."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def uniform_from_uint64(values: np.ndarray) -> np.ndarray:
    """Map ``uint64`` hash values to floats uniform on the open interval (0, 1).

    The end points are excluded so that downstream divisions by the seed and
    logarithms of ``1 - u`` are always finite.
    """
    u = np.asarray(values, dtype=np.uint64).astype(np.float64)
    u *= _INV_2_64
    np.maximum(u, _TINY, out=u)
    np.minimum(u, _BELOW_ONE, out=u)
    return u


@functools.lru_cache(maxsize=256)
def uniform_cutoff(probability: float) -> int:
    """The largest ``uint64`` whose :func:`uniform_from_uint64` is at
    most ``probability``, or ``-1`` when none is.

    :func:`uniform_from_uint64` is nondecreasing (a rounded conversion,
    an exact power-of-two scale and a clamp), so ``seed <= probability``
    holds exactly for the values at most this cutoff: a column can be
    tested in ``uint64`` without converting it to seeds.  Found by
    bisection on the conversion itself, so it holds bit for bit.
    """

    def passes(value: int) -> bool:
        seed = uniform_from_uint64(np.array([value], dtype=np.uint64))[0]
        return bool(seed <= probability)

    if passes(_MASK64):
        return _MASK64
    low, high = -1, _MASK64  # passes(low) (or low is -1), not passes(high)
    while high - low > 1:
        middle = (low + high) // 2
        if passes(middle):
            low = middle
        else:
            high = middle
    return low


def uniform_selected(mixed: np.ndarray, probability: float) -> np.ndarray:
    """Whether the seed :func:`uniform_from_uint64` makes of each of the
    ``uint64`` values ``mixed`` is at most ``probability``, tested
    against :func:`uniform_cutoff` without building the seeds."""
    cutoff = uniform_cutoff(probability)
    if cutoff < 0:  # a probability below every seed
        return np.zeros(np.shape(mixed), dtype=bool)
    return mixed <= np.uint64(cutoff)


def _hash_label(label: object) -> int:
    """Hash an arbitrary (hashable, printable) label to a stable 64-bit int."""
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
        return int(label) & _MASK64
    digest = hashlib.blake2b(repr(label).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def _hash_instance(label: object) -> int:
    """:func:`_hash_label` of an instance label.

    Instance labels are few and are hashed at every seeding, so a non-int
    label's digest is memoised, keyed by the exact text it reads: labels
    equal under ``==`` but printed apart (``1.0``, ``True``) keep their
    own."""
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
        return _hash_label(label)
    return _hash_instance_text(repr(label))


@functools.lru_cache(maxsize=4096)
def _hash_instance_text(text: str) -> int:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8)
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
    return hash_key_column(keys)[0]


def hash_key_column(keys: Sequence[object]) -> tuple[np.ndarray, bool]:
    """:func:`key_hashes` of ``keys`` plus whether they are *canonical*.

    A column is canonical when every key is int-like (an ``int`` or a
    NumPy integer, not a ``bool``) or every key is a plain ``str``.  Two
    equal keys of canonical columns always have equal hashes, so hash
    equality can find the matches between such columns.  Other columns
    cannot promise that: ``1 == 1.0 == True`` and ``np.str_("x") == "x"``
    hash apart.  Unequal keys may still share a hash (``0`` and
    ``2**64``), so a hash match is never proof of key equality.
    """
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
        # A NumPy integer column hashes without building per-key Python
        # objects.  Casting to uint64 wraps negatives modulo 2**64 —
        # exactly what ``_hash_label``'s ``int(label) & MASK`` computes —
        # so the vectorized path is bit-identical to the fallback.  A
        # native 64-bit column is that cast as a view, not a copy.
        if keys.dtype.isnative and keys.dtype.itemsize == 8:
            return splitmix64(keys.view(np.uint64)), True
        with np.errstate(over="ignore"):
            return splitmix64(keys.astype(np.uint64)), True
    keys = list(keys)
    # one C-level pass over the key types instead of a per-key isinstance
    kinds = set(map(type, keys))
    canonical = canonical_kinds(kinds)
    if canonical and str not in kinds:
        try:
            # NumPy integer scalars wrap modulo 2**64 like ``_hash_label``;
            # Python ints outside [0, 2**64) raise and take the fallback
            return splitmix64(np.array(keys, dtype=np.uint64)), True
        except OverflowError:
            pass
    hashes = splitmix64(
        np.array([_hash_label(k) for k in keys], dtype=np.uint64)
    )
    return hashes, canonical


def canonical_kinds(kinds: Iterable[type]) -> bool:
    """Whether keys of these types make a canonical column (see
    :func:`hash_key_column`): all int-like or all plain ``str``."""
    kinds = set(kinds)
    return kinds == {str} or all(
        issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)
        for kind in kinds
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

    def _constant(self, instance: object) -> int:
        """The 64 bits every key hash of ``instance`` is mixed with,
        computed in Python ints: far cheaper than a 0-d NumPy SplitMix64,
        and the same bits."""
        instance_hash = 0 if self.coordinated else _hash_instance(instance)
        return _splitmix64_int(
            (instance_hash * 0x9E3779B97F4A7C15 + self.salt) & _MASK64
        )

    def _mix(self, key_hashes: np.ndarray, instance: object) -> np.ndarray:
        """The ``uint64`` values :func:`uniform_from_uint64` maps to the
        seeds of keys with these hashes; the xor's result is the one
        buffer SplitMix64 then updates in place."""
        base = np.asarray(key_hashes, dtype=np.uint64)
        return _splitmix64_in_place(base ^ np.uint64(self._constant(instance)))

    def seed(self, key: object, instance: object = 0) -> float:
        """Return the uniform seed of ``key`` in ``instance``.

        The column formula of :meth:`seeds` for one key, in Python ints
        and floats: :func:`key_hashes`' SplitMix64 of the key's label
        hash, :meth:`_mix`, then :func:`uniform_from_uint64`'s scale and
        clamp.  Every step is exact or correctly rounded in both, so the
        bits match.
        """
        mixed = _splitmix64_int(
            _splitmix64_int(_hash_label(key)) ^ self._constant(instance)
        )
        return min(max(mixed * _INV_2_64, _TINY), _BELOW_ONE)

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
