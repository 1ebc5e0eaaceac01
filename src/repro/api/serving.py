"""The versioned link-prediction query surface (requests, results, envelopes).

This module is the public contract of the serving subsystem
(:mod:`repro.serve`): a :class:`Query` asks for the top-k completions of
``(h, r, ?)`` (``side="tail"``) or ``(?, r, t)`` (``side="head"``), a
:class:`TopKResult` carries the answer, and :class:`QueryBatch` /
:class:`BatchResult` are the batch envelopes the TCP protocol ships.

Like the experiment-knob surface (:mod:`repro.api.schema`), the wire format
is **schema-derived**: every type declares its fields once as
:data:`WireField` tuples, and ``to_wire`` / ``from_wire`` are generic
functions driven by those declarations — so the dataclass, the JSON wire
format and its validation can never drift apart (a regression test asserts
dataclass-field ↔ wire-field sync for every type).  The envelope carries
:data:`PROTOCOL_VERSION`; servers reject requests from a newer major version
instead of misinterpreting them.

Like :mod:`repro.api.schema`, this module is a leaf: it imports only the
stdlib, so the evaluator, the serving engine and the CLI can all share the
types without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

#: Version of the query wire protocol.  Bump on incompatible changes; servers
#: answer requests of the same version and reject newer ones explicitly.
PROTOCOL_VERSION = 1

#: The two prediction sides of the ranking protocol.
SIDES = ("tail", "head")


class WireError(ValueError):
    """A request/response payload violates the wire schema."""


@dataclass(frozen=True)
class WireField:
    """One field of a wire type: name, type, and optionality.

    ``type`` is the canonical scalar type; lists are expressed as
    ``list_of`` (the element type) instead.  Integers are accepted where a
    float is declared (JSON has one number type).
    """

    name: str
    type: type
    required: bool = False
    default: Any = None
    choices: Optional[Tuple[str, ...]] = None
    minimum: Optional[float] = None
    list_of: Optional[type] = None

    def check(self, value: Any, path: str) -> List[str]:
        """Validation errors of ``value`` against this field (empty = ok)."""
        errors: List[str] = []
        if self.list_of is not None:
            if not isinstance(value, (list, tuple)):
                return [f"{path}: expected a list, got {type(value).__name__}"]
            for index, item in enumerate(value):
                errors.extend(self._check_scalar(item, self.list_of, f"{path}[{index}]"))
            return errors
        return self._check_scalar(value, self.type, path)

    def _check_scalar(self, value: Any, expected: type, path: str) -> List[str]:
        if expected is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, expected)
        if not ok:
            return [f"{path}: expected {expected.__name__}, got {value!r}"]
        if self.choices is not None and value not in self.choices:
            return [f"{path}: expected one of {', '.join(self.choices)}, got {value!r}"]
        if self.minimum is not None and value < self.minimum:
            return [f"{path}: must be >= {self.minimum}, got {value!r}"]
        return []


def to_wire(message: Any) -> Dict[str, Any]:
    """A wire type instance as a JSON-ready dict (driven by ``WIRE_FIELDS``)."""
    payload: Dict[str, Any] = {}
    for wire_field in type(message).WIRE_FIELDS:
        value = getattr(message, wire_field.name)
        if wire_field.list_of is not None:
            value = list(value)
        payload[wire_field.name] = value
    return payload


def from_wire(message_type: type, payload: Any, path: str = "") -> Any:
    """Parse and validate a payload dict into ``message_type``.

    All problems are reported at once in the raised :class:`WireError`,
    mirroring the spec validator's all-errors policy.
    """
    prefix = f"{path}." if path else ""
    if not isinstance(payload, dict):
        raise WireError(f"{path or message_type.__name__}: expected an object")
    errors: List[str] = []
    known = {wire_field.name for wire_field in message_type.WIRE_FIELDS}
    for key in payload:
        if key not in known:
            errors.append(f"{prefix}{key}: unknown field")
    values: Dict[str, Any] = {}
    for wire_field in message_type.WIRE_FIELDS:
        if wire_field.name not in payload:
            if wire_field.required:
                errors.append(f"{prefix}{wire_field.name}: required field missing")
            continue
        value = payload[wire_field.name]
        field_errors = wire_field.check(value, f"{prefix}{wire_field.name}")
        if field_errors:
            errors.extend(field_errors)
            continue
        if wire_field.list_of is not None:
            value = tuple(wire_field.list_of(item) for item in value)
        elif wire_field.type in (int, float):
            value = wire_field.type(value)
        values[wire_field.name] = value
    if errors:
        raise WireError("; ".join(errors))
    return message_type(**values)


# --------------------------------------------------------------------------- query
@dataclass(frozen=True)
class Query:
    """One link-prediction request: the top-k completions of a partial triple.

    ``side="tail"`` asks ``(anchor, relation, ?)`` — the anchor is the head;
    ``side="head"`` asks ``(?, relation, anchor)`` — the anchor is the tail.
    ``filtered=True`` removes the known completions of the query (train /
    valid / test triples the engine was given) from the candidate set, which
    is what a completion service wants: predict *new* links, not stored ones.
    ``with_ranks`` additionally annotates every answer with its exact
    mean-tie rank (the evaluation protocol's rank), at ``O(k × |E|)``
    comparison cost.
    """

    side: str
    anchor: int
    relation: int
    k: int = 10
    filtered: bool = False
    with_ranks: bool = True

    WIRE_FIELDS: ClassVar[Tuple[WireField, ...]] = (
        WireField("side", str, required=True, choices=SIDES),
        WireField("anchor", int, required=True, minimum=0),
        WireField("relation", int, required=True, minimum=0),
        WireField("k", int, default=10, minimum=1),
        WireField("filtered", bool, default=False),
        WireField("with_ranks", bool, default=True),
    )

    # -- constructors --------------------------------------------------------
    @classmethod
    def tail(cls, head: int, relation: int, k: int = 10, **kwargs: Any) -> "Query":
        """The ``(head, relation, ?)`` request."""
        return cls("tail", int(head), int(relation), int(k), **kwargs)

    @classmethod
    def head(cls, relation: int, tail: int, k: int = 10, **kwargs: Any) -> "Query":
        """The ``(?, relation, tail)`` request."""
        return cls("head", int(tail), int(relation), int(k), **kwargs)

    @classmethod
    def from_wire(cls, payload: Any, path: str = "") -> "Query":
        return from_wire(cls, payload, path)

    def to_wire(self) -> Dict[str, Any]:
        return to_wire(self)

    # -- scoring-key views ---------------------------------------------------
    @property
    def score_key(self) -> Tuple[str, int, int]:
        """Cache/scoring identity: side plus the batch contract's argument pair.

        The pair is in the batch methods' argument order — ``(head,
        relation)`` on the tail side, ``(relation, tail)`` on the head side —
        matching the evaluator's deduplication keys.
        """
        if self.side == "tail":
            return ("tail", self.anchor, self.relation)
        return ("head", self.relation, self.anchor)


# --------------------------------------------------------------------------- result
@dataclass(frozen=True)
class TopKResult:
    """The ranked answer of one :class:`Query`.

    ``entities`` are candidate ids ordered by ``(score desc, id asc)`` — the
    deterministic total order every serving path and test reference shares.
    ``ranks`` (when requested) are the candidates' exact mean-tie ranks under
    the evaluation protocol (raw ranks for unfiltered queries, filtered ranks
    with the known completions removed otherwise); an empty tuple when
    ``with_ranks=False``.  ``cache_hit`` and ``batch_size`` describe how the
    answer was produced (served from the score-row cache / how many requests
    shared its micro-batch) — observability fields, not part of the ranking.
    """

    side: str
    anchor: int
    relation: int
    entities: Tuple[int, ...]
    scores: Tuple[float, ...]
    ranks: Tuple[float, ...] = ()
    filtered: bool = False
    cache_hit: bool = False
    batch_size: int = 1

    WIRE_FIELDS: ClassVar[Tuple[WireField, ...]] = (
        WireField("side", str, required=True, choices=SIDES),
        WireField("anchor", int, required=True, minimum=0),
        WireField("relation", int, required=True, minimum=0),
        WireField("entities", list, required=True, list_of=int),
        WireField("scores", list, required=True, list_of=float),
        WireField("ranks", list, default=(), list_of=float),
        WireField("filtered", bool, default=False),
        WireField("cache_hit", bool, default=False),
        WireField("batch_size", int, default=1, minimum=1),
    )

    @classmethod
    def from_wire(cls, payload: Any, path: str = "") -> "TopKResult":
        return from_wire(cls, payload, path)

    def to_wire(self) -> Dict[str, Any]:
        return to_wire(self)


# --------------------------------------------------------------------------- envelopes
@dataclass(frozen=True)
class QueryBatch:
    """The request envelope: a protocol version and one or more queries."""

    queries: Tuple[Query, ...]
    version: int = PROTOCOL_VERSION

    @classmethod
    def of(cls, *queries: Query) -> "QueryBatch":
        return cls(tuple(queries))

    def to_wire(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "queries": [query.to_wire() for query in self.queries],
        }

    @classmethod
    def from_wire(cls, payload: Any) -> "QueryBatch":
        if not isinstance(payload, dict):
            raise WireError("request: expected an object")
        version = payload.get("version", PROTOCOL_VERSION)
        if not isinstance(version, int) or isinstance(version, bool):
            raise WireError("version: expected an integer")
        if version > PROTOCOL_VERSION:
            raise WireError(
                f"version: protocol {version} is newer than this server's "
                f"{PROTOCOL_VERSION}; upgrade the server or downgrade the client"
            )
        raw_queries = payload.get("queries")
        if not isinstance(raw_queries, list) or not raw_queries:
            raise WireError("queries: expected a non-empty list")
        unknown = [key for key in payload if key not in ("version", "queries")]
        if unknown:
            raise WireError("; ".join(f"{key}: unknown field" for key in unknown))
        queries = tuple(
            Query.from_wire(entry, f"queries[{index}]")
            for index, entry in enumerate(raw_queries)
        )
        return cls(queries, version)


@dataclass(frozen=True)
class BatchResult:
    """The response envelope: results aligned with the request's query order."""

    results: Tuple[TopKResult, ...]
    version: int = PROTOCOL_VERSION

    def to_wire(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "results": [result.to_wire() for result in self.results],
        }

    @classmethod
    def from_wire(cls, payload: Any) -> "BatchResult":
        if not isinstance(payload, dict):
            raise WireError("response: expected an object")
        version = payload.get("version", PROTOCOL_VERSION)
        raw_results = payload.get("results")
        if not isinstance(raw_results, list):
            raise WireError("results: expected a list")
        results = tuple(
            TopKResult.from_wire(entry, f"results[{index}]")
            for index, entry in enumerate(raw_results)
        )
        return cls(results, version if isinstance(version, int) else PROTOCOL_VERSION)


#: Every wire type, for the schema-sync regression test.
WIRE_TYPES: Tuple[type, ...] = (Query, TopKResult)


def wire_schema_mismatches() -> List[str]:
    """Dataclass-field ↔ wire-field drift, as human-readable problems.

    Empty means the surfaces agree; the regression suite asserts exactly
    that, so adding a field to one side without the other fails CI.
    """
    problems: List[str] = []
    for message_type in WIRE_TYPES:
        declared = [f.name for f in message_type.WIRE_FIELDS]
        actual = [f.name for f in dataclass_fields(message_type)]
        if declared != actual:
            problems.append(
                f"{message_type.__name__}: wire fields {declared} != dataclass fields {actual}"
            )
            continue
        for data_field, wire_field in zip(dataclass_fields(message_type), message_type.WIRE_FIELDS):
            if wire_field.required:
                continue
            default = data_field.default
            if isinstance(default, list):
                default = tuple(default)
            wire_default = wire_field.default
            if isinstance(wire_default, list):
                wire_default = tuple(wire_default)
            if default != wire_default:
                problems.append(
                    f"{message_type.__name__}.{data_field.name}: dataclass default "
                    f"{default!r} != wire default {wire_default!r}"
                )
    return problems


def queries_for_triples(
    triples: Sequence[Tuple[int, int, int]], k: int, sides: Tuple[str, ...] = SIDES
) -> List[Query]:
    """The deduplicated queries an evaluation of ``triples`` would issue."""
    seen: Dict[Tuple[str, int, int], None] = {}
    queries: List[Query] = []
    for h, r, t in triples:
        if "tail" in sides:
            query = Query.tail(h, r, k)
            if query.score_key not in seen:
                seen[query.score_key] = None
                queries.append(query)
        if "head" in sides:
            query = Query.head(r, t, k)
            if query.score_key not in seen:
                seen[query.score_key] = None
                queries.append(query)
    return queries
