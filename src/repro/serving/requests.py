"""Wire-format query requests for the serving layer.

A :class:`QueryRequest` is the string-keyed wire form of one consensus
query.  Since the declarative API landed, it is a thin veneer: every
request converts to exactly one :class:`~repro.query.ConsensusQuery`
(:meth:`QueryRequest.to_query`), and all execution -- including the
executor's request coalescing, which keys on the query objects' stable
hash -- goes through the hardness-aware planner.  ``QUERY_KINDS`` lists
the supported wire kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple, Union

from repro.exceptions import ConsensusError
from repro.query.builder import ConsensusQuery
from repro.query.compat import LEGACY_KINDS, query_for_kind
from repro.query.compat import required_max_rank as _query_required_max_rank

#: The supported wire kinds (the former dispatch-table keys).
QUERY_KINDS: Tuple[str, ...] = LEGACY_KINDS


@dataclass(frozen=True)
class QueryRequest:
    """One consensus query on the wire: a kind, an answer size, parameters."""

    kind: str
    k: Optional[int] = None
    params: Tuple[Tuple[str, Any], ...] = field(default=())

    @staticmethod
    def make(kind: str, k: Optional[int] = None, **params: Any) -> "QueryRequest":
        """Build a request with canonically ordered extra parameters."""
        return QueryRequest(kind, k, tuple(sorted(params.items())))

    @staticmethod
    def from_query(query: ConsensusQuery) -> "QueryRequest":
        """The wire form of a declarative query (kind string + k + params).

        Only queries that round-trip losslessly have a wire form: the kind
        must be one of :data:`QUERY_KINDS` and the Monte-Carlo sizing
        fields must be at their defaults (the legacy wire format cannot
        carry them).  Anything else raises
        :class:`~repro.exceptions.ConsensusError` instead of silently
        truncating the query.
        """
        kind = query.kind
        if kind not in QUERY_KINDS:
            raise ConsensusError(
                f"query {kind!r} has no legacy wire form; submit the "
                "ConsensusQuery object itself"
            )
        if query.target_epsilon is not None or query.sample_cap is not None:
            raise ConsensusError(
                "the legacy wire format cannot carry Monte-Carlo sizing "
                "(epsilon / sample cap); submit the ConsensusQuery object "
                "itself"
            )
        return QueryRequest(kind, query.k, query.params)

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def to_query(self) -> ConsensusQuery:
        """The :class:`ConsensusQuery` this request denotes.

        Raises :class:`~repro.exceptions.ConsensusError` on unknown kinds
        or a missing required ``k`` (the legacy dispatch errors).
        """
        return query_for_kind(self.kind, self.k, self.params)

    # ------------------------------------------------------------------
    # Wire form (loss-free JSON; see repro.query.wire)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """The JSON-safe wire document of this request.

        Parameter values travel through the loss-free tagged codec, so
        non-JSON-native values (tuples, non-string dict keys) round-trip
        exactly; :meth:`from_wire` rebuilds an equal request.
        """
        from repro.query.wire import encode_value

        return {
            "kind": self.kind,
            "k": self.k,
            "params": [
                [name, encode_value(value)] for name, value in self.params
            ],
        }

    def to_json(self) -> str:
        """:meth:`to_wire` rendered as canonical JSON text."""
        from repro.query.wire import dumps

        return dumps(self.to_wire())

    @staticmethod
    def from_wire(data: dict) -> "QueryRequest":
        """Rebuild a request from its wire document (inverse of
        :meth:`to_wire`); malformed documents raise
        :class:`~repro.exceptions.ConsensusError`."""
        from repro.query.wire import decode_value

        if not isinstance(data, dict):
            raise ConsensusError(
                f"a wire request must be a JSON object, got "
                f"{type(data).__name__!r}"
            )
        kind = data.get("kind")
        if not isinstance(kind, str):
            raise ConsensusError(
                f"a wire request needs a string 'kind', got {kind!r}"
            )
        k = data.get("k")
        if k is not None and not isinstance(k, int):
            raise ConsensusError(f"wire request 'k' must be an int, got {k!r}")
        params = data.get("params", [])
        if not isinstance(params, (list, tuple)):
            raise ConsensusError(
                "wire request 'params' must be an array of [name, value] "
                "pairs"
            )
        try:
            decoded = tuple(
                sorted(
                    (str(name), decode_value(value)) for name, value in params
                )
            )
        except (TypeError, ValueError) as error:
            raise ConsensusError(
                f"malformed wire request params: {error}"
            ) from None
        return QueryRequest(kind, k, decoded)

    @staticmethod
    def from_json(text: str) -> "QueryRequest":
        """Parse :meth:`to_json` output back into a request."""
        from repro.query.wire import loads

        return QueryRequest.from_wire(loads(text))


def as_query(
    request: Union[QueryRequest, ConsensusQuery]
) -> ConsensusQuery:
    """Normalize a wire request or declarative query to a query object."""
    if isinstance(request, ConsensusQuery):
        return request
    return request.to_query()


def required_max_rank(
    request: Union[QueryRequest, ConsensusQuery]
) -> Optional[int]:
    """Rank-matrix truncation a request needs, for shard summary pre-warming.

    ``None`` for kinds that never touch the merged rank matrix.
    """
    return _query_required_max_rank(as_query(request))

