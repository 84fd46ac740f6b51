"""Exact-path request routing for the sketch server.

The API surface is a handful of fixed paths, so the router is a plain
``(method, path) -> handler`` table.  It still does the two pieces of
HTTP bookkeeping that matter for clients: an unknown path is ``404``,
while a known path hit with the wrong method is ``405`` carrying an
``Allow`` header listing the methods that would work.

The table is *generated* from one route spec: :meth:`Router.from_spec`
mounts each ``(method, path, handler)`` entry under the versioned
``/v1`` prefix.  Requests are labelled for metrics by the registered
route they resolve to; everything else shares one
:data:`UNMATCHED_LABEL`, so client-chosen paths and methods cannot grow
the label set.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.server.protocol import HttpError

__all__ = ["Router", "UNMATCHED_LABEL", "V1_PREFIX"]

#: Current API version prefix; ``Router.from_spec`` mounts every spec
#: entry under it.
V1_PREFIX = "/v1"

#: Metric label shared by every request that matches no registered
#: ``(method, path)`` — 404s and 405s alike.
UNMATCHED_LABEL = "(unmatched)"


class Router:
    """A ``(method, path)`` dispatch table with 404/405 semantics."""

    def __init__(self) -> None:
        self._handlers: dict[tuple[str, str], Callable] = {}
        self._methods_by_path: dict[str, set[str]] = {}

    @classmethod
    def from_spec(cls, spec: Iterable[tuple[str, str, Callable]]) -> Router:
        """Build the table from one route spec, mounting each
        ``(method, path, handler)`` entry at ``/v1`` + path."""
        router = cls()
        for method, path, handler in spec:
            router.add(method, V1_PREFIX + path, handler)
        return router

    def add(self, method: str, path: str, handler: Callable) -> None:
        """Register ``handler`` for ``method path``."""
        method = method.upper()
        key = (method, path)
        if key in self._handlers:
            raise ValueError(f"duplicate route {method} {path}")
        self._handlers[key] = handler
        self._methods_by_path.setdefault(path, set()).add(method)

    def routes(self) -> list[tuple[str, str]]:
        """Registered ``(method, path)`` pairs, sorted by path."""
        return sorted(self._handlers, key=lambda key: (key[1], key[0]))

    def label(self, method: str, path: str) -> str:
        """The bounded-cardinality metric label of a request: its
        registered ``"METHOD /path"``, or :data:`UNMATCHED_LABEL` when
        :meth:`resolve` would answer 404 or 405."""
        method = method.upper()
        if (method, path) in self._handlers:
            return f"{method} {path}"
        return UNMATCHED_LABEL

    def resolve(self, method: str, path: str) -> Callable:
        """The handler for ``method path``.

        Raises ``HttpError(404)`` for unknown paths and ``HttpError(405)``
        (with an ``Allow`` header) for known paths with other methods.
        """
        handler = self._handlers.get((method.upper(), path))
        if handler is not None:
            return handler
        allowed = self._methods_by_path.get(path)
        if allowed:
            raise HttpError(
                405,
                f"{method} is not supported on {path}",
                extra_headers=(("Allow", ", ".join(sorted(allowed))),),
            )
        raise HttpError(404, f"unknown path {path!r}")
