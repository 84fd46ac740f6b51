"""Merging streaming sketches (shard-and-reduce parallelism).

Because ranks are deterministic functions of ``(key, accumulated value,
seed)``, sketches are *mergeable*: the sketch of a union of streams is
computable from the sketches of the parts.  Merging is associative,
commutative and insensitive to how the stream was split, as long as the
parts partition the updates — the precondition the sharding engine
guarantees by routing each key to exactly one shard.

For bottom-k, exactness follows from the candidate-set argument: the
``k + 1`` smallest ranks of a union are contained in the union of the
``k + 1`` smallest ranks of the parts, so no information needed by the
merged sketch is ever dropped by a part.  For Poisson the retained sets are
unions outright.

Keys that appear in several parts (possible when a stream is split by
arrival order rather than by key) are combined additively, inheriting the
additive-update contract of :mod:`repro.streaming.sketch`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.exceptions import InvalidParameterError
from repro.streaming.sketch import StreamingBottomK, StreamingPoisson

__all__ = ["merge_bottom_k", "merge_poisson", "merge_sketches"]


def _check_compatible(a, b) -> None:
    if type(a) is not type(b):
        raise InvalidParameterError(
            f"cannot merge sketches of types {type(a).__name__} and "
            f"{type(b).__name__}"
        )
    if a.instance != b.instance:
        raise InvalidParameterError(
            "cannot merge sketches of different instances "
            f"({a.instance!r} and {b.instance!r})"
        )
    if type(a.rank_family) is not type(b.rank_family):
        raise InvalidParameterError(
            "cannot merge sketches with different rank families "
            f"({a.rank_family.name} and {b.rank_family.name})"
        )
    sa, sb = a.seed_assigner, b.seed_assigner
    if sa.salt != sb.salt or sa.coordinated != sb.coordinated:
        raise InvalidParameterError(
            "cannot merge sketches with different seed assignments"
        )


def merge_bottom_k(
    first: StreamingBottomK, *others: StreamingBottomK
) -> StreamingBottomK:
    """Merge bottom-k sketches of the same instance into a new sketch.

    The inputs are left untouched.  The result equals the single sketch of
    the concatenated streams whenever the parts partition the key space.
    """
    merged = StreamingBottomK(
        k=first.k,
        instance=first.instance,
        rank_family=first.rank_family,
        seed_assigner=first.seed_assigner,
    )
    for part in (first, *others):
        _check_compatible(first, part)
        if part.k != first.k:
            raise InvalidParameterError(
                f"cannot merge bottom-k sketches with k={first.k} and "
                f"k={part.k}"
            )
        seeds = part._seeds
        for key, value in part._values.items():
            merged._ingest(key, value, seeds[key])
        merged.n_updates += part.n_updates
        merged.n_discarded_keys += part.n_discarded_keys
    return merged


def merge_poisson(
    first: StreamingPoisson, *others: StreamingPoisson
) -> StreamingPoisson:
    """Merge Poisson sketches of the same instance into a new sketch."""
    merged = StreamingPoisson(
        threshold=first.threshold,
        instance=first.instance,
        rank_family=first.rank_family,
        seed_assigner=first.seed_assigner,
    )
    for part in (first, *others):
        _check_compatible(first, part)
        if part.threshold != first.threshold:
            raise InvalidParameterError(
                "cannot merge Poisson sketches with thresholds "
                f"{first.threshold} and {part.threshold}"
            )
        # Fold the part wholesale: new keys append in the part's order and
        # keys already merged keep their position.  Shared keys (none when
        # the parts partition the keys, as engine shards do) then add up
        # as ``old + value`` with the rank recomputed from the total.
        shared = list(merged._values.keys() & part._values.keys())
        old = [merged._values[key] for key in shared]
        merged._values.update(part._values)
        merged._ranks.update(part._ranks)
        if shared:
            seeds = merged.seed_assigner.seeds(shared, instance=merged.instance)
            for key, before, seed in zip(shared, old, seeds.tolist()):
                total = before + part._values[key]
                merged._values[key] = total
                merged._ranks[key] = merged._rank(total, seed)
        merged.n_updates += part.n_updates
        merged.n_discarded_keys += part.n_discarded_keys
    return merged


def merge_sketches(sketches: Iterable):
    """Merge an iterable of same-kind sketches (at least one is required)."""
    sketches = list(sketches)
    if not sketches:
        raise InvalidParameterError("at least one sketch is required")
    first = sketches[0]
    if isinstance(first, StreamingBottomK):
        return merge_bottom_k(*sketches)
    if isinstance(first, StreamingPoisson):
        return merge_poisson(*sketches)
    raise InvalidParameterError(
        f"cannot merge objects of type {type(first).__name__}"
    )
