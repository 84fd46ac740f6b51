"""Every memoised column view equals a fresh one after every write.

The store rebuilds a stale Poisson view from its memoised view and the
rows each shard changed since (``SketchColumns.after``), and carries the
view's memoised join index, self-selection flag and key span forward.
Each example draws a store holding a uniform and a PPS engine of 1, 4 or
8 shards, keys of one domain (int, str, int and str mixed, or ints that
share a hash with another key), and a sequence of operations: submits of
new and repeated keys and zero values, a ``merge_store`` of a peer, an
``adopt`` of a codec copy, a snapshot and restore, and a crash recovered
from the last snapshot and the write-ahead log.  After each operation
every view the store serves equals ``SketchColumns.of`` of the merged
sketch field for field (``assert_fresh_view``), and some of them then
memoise their properties, as a pair query would, so the next rebuild
carries them forward.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import IngestRequest, SketchStore, from_bytes, to_bytes
from repro.wal import WriteAheadLog, recover_store

from ingest_helper import MEMOISED, assert_fresh_view

LABELS = ("mon", "tue", "wed")
INT64 = st.integers(-(2**63), 2**63 - 1)
TEXT = st.text(max_size=4)
DOMAINS = {  # key domain -> the distinct keys one example draws from
    "int": st.lists(INT64, min_size=1, max_size=24, unique=True),
    "str": st.lists(TEXT, min_size=1, max_size=24, unique=True),
    "mixed": st.builds(
        lambda ints, texts: ints + texts,
        st.lists(INT64, min_size=1, max_size=12, unique=True),
        st.lists(TEXT, min_size=1, max_size=12, unique=True),
    ),
    # k and k + 2**64 share a hash: no join index; no log carries them
    "collide": st.lists(
        st.integers(0, 15).map(lambda k: k % 8 + (2**64 if k >= 8 else 0)),
        min_size=1,
        max_size=12,
        unique=True,
    ),
}
VALUES = st.sampled_from((0.0, -0.0, 0.5, 1.0, 1 / 3, 7.0)) | st.floats(0, 1e3)
ENGINES = {  # engine name -> (rank family, the thresholds an example draws from)
    "uni": ("uniform", (0.3, 1.0)),
    "pps": ("pps", (0.3, 2.0)),
}


class Example(NamedTuple):
    configs: dict  # engine name -> config
    logged: bool  # whether a write-ahead log backs the store
    fill: tuple  # the first request: a group (instance, keys, values) per label
    # (op, groups, labels whose views a query reads next): op is
    # "submit", "merge", "adopt", "restore" or "replay"
    ops: tuple


@st.composite
def examples(draw, domains=tuple(DOMAINS)):
    domain = draw(st.sampled_from(domains))
    pool = draw(DOMAINS[domain])
    configs = {
        name: {
            "kind": "poisson",
            "ranks": ranks,
            "threshold": draw(st.sampled_from(thresholds)),
            "salt": draw(st.integers(0, 2**16)),
            "n_shards": draw(st.sampled_from((1, 4, 8))),
        }
        for name, (ranks, thresholds) in ENGINES.items()
    }

    def group(label):
        keys = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        values = draw(st.lists(VALUES, min_size=len(keys), max_size=len(keys)))
        return label, keys, values

    def groups():
        labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=2))
        return tuple(group(label) for label in labels)

    logged = domain != "collide"
    kinds = ("submit",) * 4 + ("merge", "adopt", "restore") + (("replay",) * logged)
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(kinds))
        written = groups() if kind in ("submit", "merge", "adopt") else ()
        ops.append((kind, written, draw(st.sets(st.sampled_from(LABELS)))))
    fill = tuple(group(label) for label in LABELS[: draw(st.integers(1, 3))])
    return Example(configs, logged, fill, tuple(ops))


def submit(store: SketchStore, name: str, groups) -> None:
    if groups:
        store.submit(IngestRequest(engine=name, batches=groups))


class Views:
    """The store of one example, its log and its last snapshot."""

    def __init__(self, example: Example, workdir: Path) -> None:
        self.example = example
        self.wal = None
        if example.logged:
            self.wal = WriteAheadLog(workdir / "wal", fsync="off")
        self.checkpoint = workdir / "store.bin"
        self.store = self.attached(SketchStore())
        for name, config in example.configs.items():
            self.store.create_from_config({"name": name, **config})
            submit(self.store, name, example.fill)

    def attached(self, store: SketchStore) -> SketchStore:
        if self.wal is not None:
            store.attach_wal(self.wal)
        return store

    def apply(self, kind: str, groups: tuple) -> None:
        store = self.store
        if kind == "submit":
            for name in ENGINES:
                submit(store, name, groups)
        elif kind == "merge":
            peer = SketchStore()
            for name, config in self.example.configs.items():
                peer.create_from_config({"name": name, **config})
                submit(peer, name, groups)
            store.merge_store(peer)
        elif kind == "adopt":
            for name in ENGINES:
                copy = from_bytes(to_bytes(store.engine(name)))
                for group in groups:
                    copy.ingest(*group)
                store.adopt(name, copy, version=store.version(name))
        elif kind == "restore":
            snapshot = store.snapshot(self.checkpoint)
            self.store = self.attached(SketchStore.restore(snapshot))
        else:  # a crash: the last snapshot, then the log
            self.store = self.attached(recover_store(self.checkpoint, self.wal).store)

    def check(self, looked: set) -> None:
        """Every served view equals a fresh one; then the views of the
        ``looked`` labels memoise their properties."""
        store = self.store
        for name in ENGINES:
            known = store.engine(name).instance_labels
            labels = [label for label in LABELS if label in known]
            _, views = store.column_view(name, labels)
            for label, view in zip(labels, views):
                assert_fresh_view(store, name, label, view)
                if label in looked:
                    for attr in MEMOISED:
                        getattr(view, attr)


def check_example(example: Example) -> None:
    with tempfile.TemporaryDirectory() as workdir:
        views = Views(example, Path(workdir))
        try:
            views.check(set(LABELS))
            for kind, groups, looked in example.ops:
                views.apply(kind, groups)
                views.check(looked)
        finally:
            if views.wal is not None:
                views.wal.close()


COHERENCE = settings(deadline=None)


# tier-1 runs every key domain, 10 examples each
@pytest.mark.parametrize("domain", sorted(DOMAINS))
@settings(COHERENCE, max_examples=10)
@given(data=st.data())
def test_memoised_views_equal_fresh_ones(domain, data):
    check_example(data.draw(examples((domain,)), label="example"))


@pytest.mark.slow
@settings(COHERENCE, max_examples=1000)
@given(example=examples())
def test_memoised_views_equal_fresh_ones_sweep(example):
    check_example(example)
