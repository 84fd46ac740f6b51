"""Unit tests for the sketch merge algebra."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.sampling.ranks import ExpRanks, PpsRanks, UniformRanks
from repro.sampling.seeds import SeedAssigner, key_hashes
from repro.service.codec import to_bytes
from repro.streaming.engine import StreamEngine
from repro.streaming.merge import merge_bottom_k, merge_poisson, merge_sketches
from repro.streaming.sketch import StreamingBottomK, StreamingPoisson


def make_data(n: int = 150, seed: int = 1) -> dict[int, float]:
    generator = np.random.default_rng(seed)
    keys = generator.choice(10**7, size=n, replace=False)
    values = generator.random(n) * 5.0 + 0.1
    return {int(k): float(v) for k, v in zip(keys, values)}


def bottom_k_of(data, assigner, k=12, instance=0):
    sketch = StreamingBottomK(k=k, instance=instance, seed_assigner=assigner)
    sketch.update_many(
        list(data), list(data.values()), chunk_size=max(len(data), 1)
    )
    return sketch


def poisson_of(data, assigner, threshold=0.4, instance=0, family=None):
    sketch = StreamingPoisson(
        threshold, instance=instance, rank_family=family,
        seed_assigner=assigner,
    )
    sketch.update_many(
        list(data), list(data.values()), chunk_size=max(len(data), 1)
    )
    return sketch


def assert_same_bottom_k(a: StreamingBottomK, b: StreamingBottomK) -> None:
    assert a.candidates() == b.candidates()
    assert a.candidate_ranks() == b.candidate_ranks()
    assert a.threshold == b.threshold


class TestMergeBottomK:
    def test_merge_of_key_partition_equals_single_pass(self):
        data = make_data()
        assigner = SeedAssigner(salt=5)
        items = list(data.items())
        parts = [dict(items[i::3]) for i in range(3)]
        merged = merge_bottom_k(
            *(bottom_k_of(part, assigner) for part in parts)
        )
        single = bottom_k_of(data, assigner)
        assert_same_bottom_k(merged, single)
        assert merged.n_updates == single.n_updates

    def test_merge_is_commutative(self):
        data = make_data()
        assigner = SeedAssigner(salt=2)
        items = list(data.items())
        a = bottom_k_of(dict(items[:75]), assigner)
        b = bottom_k_of(dict(items[75:]), assigner)
        assert_same_bottom_k(merge_bottom_k(a, b), merge_bottom_k(b, a))

    def test_merge_is_associative(self):
        data = make_data()
        assigner = SeedAssigner(salt=2)
        items = list(data.items())
        a = bottom_k_of(dict(items[:50]), assigner)
        b = bottom_k_of(dict(items[50:100]), assigner)
        c = bottom_k_of(dict(items[100:]), assigner)
        left = merge_bottom_k(merge_bottom_k(a, b), c)
        right = merge_bottom_k(a, merge_bottom_k(b, c))
        assert_same_bottom_k(left, right)

    def test_merge_leaves_inputs_untouched(self):
        data = make_data()
        assigner = SeedAssigner(salt=9)
        items = list(data.items())
        a = bottom_k_of(dict(items[:75]), assigner)
        before = (a.candidates(), a.threshold, a.n_updates)
        merge_bottom_k(a, bottom_k_of(dict(items[75:]), assigner))
        assert (a.candidates(), a.threshold, a.n_updates) == before

    def test_incompatible_sketches_rejected(self):
        a = StreamingBottomK(k=4, seed_assigner=SeedAssigner(salt=1))
        with pytest.raises(InvalidParameterError):
            merge_bottom_k(a, StreamingBottomK(
                k=5, seed_assigner=SeedAssigner(salt=1)))
        with pytest.raises(InvalidParameterError):
            merge_bottom_k(a, StreamingBottomK(
                k=4, seed_assigner=SeedAssigner(salt=2)))
        with pytest.raises(InvalidParameterError):
            merge_bottom_k(a, StreamingBottomK(
                k=4, instance=1, seed_assigner=SeedAssigner(salt=1)))
        with pytest.raises(InvalidParameterError):
            merge_bottom_k(a, StreamingBottomK(
                k=4, rank_family=PpsRanks(),
                seed_assigner=SeedAssigner(salt=1)))


class TestMergePoisson:
    def test_merge_of_key_partition_equals_single_pass(self):
        data = make_data()
        assigner = SeedAssigner(salt=5)
        items = list(data.items())
        for family in (None, PpsRanks(), ExpRanks()):
            threshold = 0.4 if family is None else 0.2
            parts = [
                poisson_of(dict(items[i::4]), assigner, threshold=threshold,
                           family=family)
                for i in range(4)
            ]
            merged = merge_poisson(*parts)
            single = poisson_of(data, assigner, threshold=threshold,
                                family=family)
            assert merged.entries == single.entries
            assert merged.candidate_ranks() == single.candidate_ranks()

    def test_merge_overlapping_keys_accumulates(self):
        assigner = SeedAssigner(salt=3)
        a = StreamingPoisson(0.9, seed_assigner=assigner)
        b = StreamingPoisson(0.9, seed_assigner=assigner)
        a.update("shared", 2.0)
        b.update("shared", 3.0)
        merged = merge_poisson(a, b)
        if "shared" in merged:
            assert merged.entries["shared"] == 5.0

    @pytest.mark.parametrize(
        "family, threshold",
        [(UniformRanks(), 0.3), (PpsRanks(), 0.5), (ExpRanks(), 0.4)],
        ids=["uniform", "pps", "exp"],
    )
    def test_engine_fold_is_byte_identical_to_one_sketch(
        self, family, threshold
    ):
        """The shard fold equals one sketch fed the shards' streams
        concatenated in shard order: entries, entry order and counters."""
        assigner = SeedAssigner(salt=8)
        engine = StreamEngine.poisson(
            threshold, rank_family=family, seed_assigner=assigner, n_shards=4
        )
        generator = np.random.default_rng(2)
        batches = []
        for _ in range(3):
            keys = [int(k) for k in generator.choice(10**9, 400, replace=False)]
            keys += [f"user{k}" for k in generator.choice(10**9, 100)]
            values = generator.random(len(keys)) * 4.0 + 0.1
            engine.ingest("day", keys, values)
            batches.append((keys, values))
        shard_streams: list[list] = [[] for _ in range(4)]
        for keys, values in batches:
            shard_of = key_hashes(keys) % np.uint64(4)
            for key, value, shard in zip(keys, values.tolist(), shard_of):
                shard_streams[int(shard)].append((key, value))
        stream = [update for shard in shard_streams for update in shard]
        single = StreamingPoisson(
            threshold, instance="day", rank_family=family,
            seed_assigner=assigner,
        )
        single.update_many([key for key, _ in stream],
                           [value for _, value in stream])
        assert to_bytes(engine.sketch("day")) == to_bytes(single)

    @pytest.mark.parametrize(
        "family, threshold", [(UniformRanks(), 0.6), (PpsRanks(), 0.4)],
        ids=["uniform", "pps"],
    )
    def test_arrival_split_parts_add_in_part_order(self, family, threshold):
        """Parts split by arrival share keys: each shared key's value is
        the sum over the parts in part order, its rank is recomputed from
        that total, and keys keep their first-seen position."""
        assigner = SeedAssigner(salt=6)
        generator = np.random.default_rng(9)
        keys = [int(k) for k in generator.choice(10**6, 300, replace=False)]
        parts = []
        for _ in range(3):
            part = StreamingPoisson(
                threshold, rank_family=family, seed_assigner=assigner
            )
            chosen = generator.choice(len(keys), 200, replace=False)
            part.update_many(
                [keys[i] for i in chosen], generator.random(200) * 3.0 + 0.1
            )
            parts.append(part)
        merged = merge_poisson(*parts)
        expected: dict = {}
        owners: dict = {}
        for part in parts:
            for key, value in part.entries.items():
                expected[key] = expected[key] + value if key in expected else value
                owners.setdefault(key, []).append(part)
        assert sum(len(o) > 1 for o in owners.values()) > 10
        assert list(merged.entries) == list(expected)
        assert merged.entries == expected
        ranks = merged.candidate_ranks()
        for key, holders in owners.items():
            if len(holders) == 1:
                assert ranks[key] == holders[0].candidate_ranks()[key]
            else:
                seed = assigner.seed(key, instance=0)
                assert ranks[key] == float(family.rank(expected[key], seed))
        assert merged.n_updates == sum(part.n_updates for part in parts)

    def test_threshold_mismatch_rejected(self):
        assigner = SeedAssigner()
        with pytest.raises(InvalidParameterError):
            merge_poisson(
                StreamingPoisson(0.4, seed_assigner=assigner),
                StreamingPoisson(0.5, seed_assigner=assigner),
            )


class TestMergeSketches:
    def test_dispatch(self):
        assigner = SeedAssigner(salt=1)
        data = make_data(40)
        bk = merge_sketches(
            [bottom_k_of(data, assigner), bottom_k_of({}, assigner)]
        )
        assert isinstance(bk, StreamingBottomK)
        ps = merge_sketches([poisson_of(data, assigner)])
        assert isinstance(ps, StreamingPoisson)

    def test_empty_and_mixed_inputs_rejected(self):
        with pytest.raises(InvalidParameterError):
            merge_sketches([])
        assigner = SeedAssigner()
        with pytest.raises(InvalidParameterError):
            merge_sketches([
                StreamingBottomK(k=3, seed_assigner=assigner),
                StreamingPoisson(0.5, seed_assigner=assigner),
            ])
        with pytest.raises(InvalidParameterError):
            merge_sketches([object()])
