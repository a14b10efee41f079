"""Remote SPARQL endpoint handler for ``select:`` — the engine analogue of
the reference's ``StardogQueryHandler`` + ``QueryDispatchHandler``
(kg_text_to_ttl/text_to_turtle_processor.py:126-327).

A graph id starting with ``http:``, ``https:`` or ``<stardog>`` routes to an
HTTP SPARQL endpoint (stdlib urllib, no third-party HTTP dependency):
``POST <db>/query?query=<urlencoded>`` with
``Accept: application/sparql-results+json``, HTTP basic auth, and the
standard W3C results-JSON parsed into the same ``var → string`` rows the
local :class:`~cmc_knowledge_graph_text2ttl_ray.state.graph_index.GraphIndex` returns —
so ``_op_select`` is transport-agnostic.

The worker-side contract matters at scale: an endpoint object is cheap,
carries no sockets until queried, and each extractor holds its own
(per-extractor connection reuse, no shared driver state).
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.parse
import urllib.request

__all__ = ["RemoteSparqlEndpoint", "RemoteQueryError", "resolve_graph_url",
           "is_remote_graph_id"]


class RemoteQueryError(Exception):
    pass


def is_remote_graph_id(graph_id: str) -> bool:
    """Reference dispatch rule (QueryDispatchHandler.query, :150-164)."""
    return graph_id.startswith(("http:", "https:", "<stardog>"))


def resolve_graph_url(graph_id: str, server_url_var: str = "STARDOG_SERVER") -> str:
    """``<stardog>`` placeholder → base URL from the environment
    (StardogQueryHandler.query, :244-251). Shares the uploader's resolver
    so the placeholder semantics can never drift between the two."""
    from cmc_knowledge_graph_text2ttl_ray.stages.uploader import (
        UploadError,
        resolve_db_url,
    )

    try:
        url, _, _ = resolve_db_url(graph_id, server_url_var)
    except UploadError as ex:
        raise RemoteQueryError(str(ex)) from ex
    return url


class RemoteSparqlEndpoint:
    """Queries one remote SPARQL endpoint; drop-in for ``GraphIndex.query``.

    :param url: endpoint/database URL (may use the ``<stardog>`` prefix
        and/or in-URL ``user[:pass]@`` credentials — a ``$VAR`` password
        reads the environment, same resolver as the uploader).
    :param username/password: HTTP basic auth credentials; in-URL
        credentials take precedence (reference upload URL semantics,
        text_to_turtle_processor.py:361-398).
    """

    def __init__(
        self,
        url: str,
        username: str | None = None,
        password: str | None = None,
        server_url_var: str = "STARDOG_SERVER",
        timeout: float = 30.0,
    ) -> None:
        from cmc_knowledge_graph_text2ttl_ray.stages.uploader import (
            UploadError,
            resolve_db_url,
        )

        try:
            self._url, user, pw = resolve_db_url(
                url, server_url_var, username=username, password=password
            )
        except UploadError as ex:
            raise RemoteQueryError(str(ex)) from ex
        self._username = user
        # resolve_db_url's STARDOG_PASSWORD fallback only applies when some
        # username is in play — never send ambient credentials for an
        # anonymous query (reference query handler takes creds explicitly).
        self._password = pw if user is not None else None
        self._timeout = timeout

    def query(self, sparql: str) -> list[dict[str, str]]:
        """POST the query; W3C results-JSON → sorted var→string rows
        (StardogQueryHandler.query, :253-327). Typed literals keep their
        lexical form — the same relaxation the local index applies."""
        post_url = self._url
        if not post_url.endswith("/"):
            post_url += "/"
        post_url += "query?query=" + urllib.parse.quote(sparql, safe="")
        headers = {"Accept": "application/sparql-results+json"}
        if self._username is not None:
            import base64

            cred = base64.b64encode(
                f"{self._username}:{self._password or ''}".encode()
            ).decode()
            headers["Authorization"] = f"Basic {cred}"
        req = urllib.request.Request(post_url, data=b"", headers=headers,
                                     method="POST")
        try:
            with urllib.request.urlopen(req, timeout=self._timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as ex:
            raise RemoteQueryError(
                f"SPARQL select request failed [{ex.code}]: "
                f"{ex.read().decode('utf-8', 'replace')[:500]}"
            ) from ex
        except urllib.error.URLError as ex:
            raise RemoteQueryError(f"Calling the SPARQL endpoint failed: {ex}") from ex
        if status != 200:
            raise RemoteQueryError(f"SPARQL select request failed [{status}]")
        try:
            result = json.loads(body)
        except json.JSONDecodeError as ex:
            raise RemoteQueryError("Endpoint returned invalid JSON") from ex
        head = result.get("head")
        results = result.get("results")
        if head is None or results is None:
            raise RemoteQueryError(
                f"Invalid SPARQL response; head or results missing: {str(result)[:200]}"
            )
        variables = head.get("vars")
        bindings = results.get("bindings")
        if variables is None or bindings is None:
            raise RemoteQueryError(
                f"Invalid SPARQL response; vars or bindings missing: {str(result)[:200]}"
            )
        rows: list[dict[str, str]] = []
        for bd in bindings:
            values: dict[str, str] = {}
            for var in variables:
                spec = bd.get(var)
                if spec is None or "type" not in spec or "value" not in spec:
                    continue  # reference warns and skips (:311-313)
                values[var] = spec["value"]
            rows.append(values)
        rows.sort(key=lambda r: tuple(sorted(r.items())))
        return rows
