"""Asyncio HTTP front-end for the sketch service.

The service layer (:mod:`repro.service`) gives coordinated sketches
persistent, queryable state; this package puts that state on the
network, standard-library only:

* :mod:`repro.server.protocol` — minimal HTTP/1.1 framing over asyncio
  streams with size limits and a typed :class:`HttpError` channel;
* :mod:`repro.server.routing` — the exact-path method router (404/405
  with ``Allow``);
* :mod:`repro.server.app` — :class:`SketchServer`, serving under
  ``/v1``: ``POST /v1/ingest`` (JSON/CSV/binary batches, per-engine
  backpressure), ``GET /v1/query`` through the per-instance cached planner,
  ``POST /v1/snapshot`` / ``POST /v1/merge`` codec-backed persistence,
  ``GET /v1/healthz`` / ``GET /v1/metrics``.  Store work runs on a
  thread-pool executor, except a cold query or a small ingest on a free
  engine, which run on the event loop; graceful shutdown drains
  requests and snapshots engines that changed since the last snapshot;
* :mod:`repro.server.wire` — the columnar binary batch format behind
  ``Content-Type: application/x-repro-batch``, the ingest fast path
  that decodes straight into NumPy columns, plus the ``/replicate``
  envelope followers use to catch up from the write-ahead log;
* :mod:`repro.server.metrics` — the serving counters behind
  ``/metrics``;
* :mod:`repro.server.client` — :class:`AsyncSketchClient`, the
  keep-alive client used by the load generator, the examples and the
  test suite;
* :mod:`repro.server.config` — :class:`ServerConfig`, the shared
  configuration surface of the API and the ``python -m repro.service
  serve`` CLI.
"""

from repro.server.app import SketchServer
from repro.server.client import AsyncSketchClient, ClientResponseError
from repro.server.config import ServerConfig
from repro.server.metrics import ServerMetrics
from repro.server.protocol import HttpError
from repro.server.routing import Router
from repro.server.wire import (
    BATCH_CONTENT_TYPE,
    REPLICA_CONTENT_TYPE,
    REPLICA_MODE_STORE,
    REPLICA_MODE_WAL,
    WireBatch,
    decode_batches,
    decode_replica,
    encode_batches,
    encode_replica,
)

__all__ = [
    "AsyncSketchClient",
    "BATCH_CONTENT_TYPE",
    "ClientResponseError",
    "HttpError",
    "REPLICA_CONTENT_TYPE",
    "REPLICA_MODE_STORE",
    "REPLICA_MODE_WAL",
    "Router",
    "ServerConfig",
    "ServerMetrics",
    "SketchServer",
    "WireBatch",
    "decode_batches",
    "decode_replica",
    "encode_batches",
    "encode_replica",
]
