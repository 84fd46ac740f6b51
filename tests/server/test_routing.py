"""Router semantics: exact-path dispatch, 404 vs 405, Allow header,
bounded metric labels, and the spec-generated ``/v1`` table."""

from __future__ import annotations

import pytest

from repro.server.protocol import HttpError
from repro.server.routing import UNMATCHED_LABEL, V1_PREFIX, Router


def handler_a():
    return "a"


def handler_b():
    return "b"


class TestRouter:
    def test_dispatch_by_method_and_path(self):
        router = Router()
        router.add("GET", "/x", handler_a)
        router.add("POST", "/x", handler_b)
        assert router.resolve("GET", "/x") is handler_a
        assert router.resolve("post", "/x") is handler_b

    def test_unknown_path_is_404(self):
        router = Router()
        router.add("GET", "/x", handler_a)
        with pytest.raises(HttpError) as excinfo:
            router.resolve("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405_with_allow(self):
        router = Router()
        router.add("GET", "/x", handler_a)
        router.add("POST", "/x", handler_b)
        with pytest.raises(HttpError) as excinfo:
            router.resolve("DELETE", "/x")
        assert excinfo.value.status == 405
        assert dict(excinfo.value.extra_headers)["Allow"] == "GET, POST"

    def test_duplicate_route_rejected(self):
        router = Router()
        router.add("GET", "/x", handler_a)
        with pytest.raises(ValueError, match="duplicate"):
            router.add("GET", "/x", handler_b)

    def test_routes_listing_sorted(self):
        router = Router()
        router.add("POST", "/b", handler_b)
        router.add("GET", "/a", handler_a)
        assert router.routes() == [("GET", "/a"), ("POST", "/b")]


class TestFromSpec:
    SPEC = [
        ("GET", "/query", handler_a),
        ("POST", "/ingest", handler_b),
    ]

    def test_each_entry_mounts_under_v1_only(self):
        router = Router.from_spec(self.SPEC)
        assert router.routes() == [
            ("POST", V1_PREFIX + "/ingest"),
            ("GET", V1_PREFIX + "/query"),
        ]

    def test_v1_paths_dispatch_and_bare_paths_404(self):
        router = Router.from_spec(self.SPEC)
        assert router.resolve("GET", "/v1/query") is handler_a
        assert router.resolve("POST", "/v1/ingest") is handler_b
        for method, path in (("GET", "/query"), ("DELETE", "/ingest")):
            with pytest.raises(HttpError) as excinfo:
                router.resolve(method, path)
            assert excinfo.value.status == 404

    def test_labels_are_registered_routes_or_unmatched(self):
        router = Router.from_spec(self.SPEC)
        assert router.label("GET", "/v1/query") == "GET /v1/query"
        assert router.label("get", "/v1/query") == "GET /v1/query"
        # unknown paths and wrong methods on known paths share one label
        assert router.label("GET", "/query") == UNMATCHED_LABEL
        assert router.label("GET", "/v2/query") == UNMATCHED_LABEL
        assert router.label("DELETE", "/v1/query") == UNMATCHED_LABEL
