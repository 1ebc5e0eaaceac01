"""repro.serve — persistent link-prediction serving.

Three layers, each usable on its own:

* :mod:`repro.serve.artifact` — memory-mapped, content-fingerprinted model
  artifacts (:class:`ModelArtifact`): trained parameter tables exported as
  raw ``.npy`` files that load zero-copy via ``np.memmap``, shared across
  processes through the page cache.
* :mod:`repro.serve.engine` — the asyncio :class:`QueryEngine` coalescing
  concurrent queries into micro-batches on the batch scoring contract,
  with a bounded :class:`ScoreCache` of hot score rows, plus the
  synchronous :class:`EngineClient` facade (which doubles as an evaluator
  scorer — the evaluation protocol running as a serving client).
* :mod:`repro.serve.server` — a JSON-lines TCP front end speaking the
  versioned :mod:`repro.api` wire format.

Attributes resolve lazily (PEP 562): :mod:`repro.rules` imports only the
leaf cache module, and the artifact layer's model-registry import happens
on first use — no import cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

_EXPORTS = {
    "ArtifactError": "artifact",
    "ArtifactScorerRef": "artifact",
    "FingerprintMismatchError": "artifact",
    "ModelArtifact": "artifact",
    "TruncatedArtifactError": "artifact",
    "artifact_ref_for": "artifact",
    "load_model": "artifact",
    "CacheStats": "cache",
    "ScoreCache": "cache",
    "EngineClient": "engine",
    "EngineStats": "engine",
    "QueryEngine": "engine",
    "known_completion_index": "engine",
    "topk_row": "engine",
    "query_server": "server",
    "serve_forever": "server",
    "start_server": "server",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - typing-time imports only
    from .artifact import (  # noqa: F401
        ArtifactError,
        ArtifactScorerRef,
        FingerprintMismatchError,
        ModelArtifact,
        TruncatedArtifactError,
        artifact_ref_for,
        load_model,
    )
    from .cache import CacheStats, ScoreCache  # noqa: F401
    from .engine import (  # noqa: F401
        EngineClient,
        EngineStats,
        QueryEngine,
        known_completion_index,
        topk_row,
    )
    from .server import query_server, serve_forever, start_server  # noqa: F401


def __getattr__(name: str):
    from importlib import import_module

    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = import_module(f".{module_name}", __name__)
    return getattr(module, name)
