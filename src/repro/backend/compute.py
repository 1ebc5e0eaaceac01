"""Evaluation compute context: resolved backend + dtype for score kernels.

:class:`EvalCompute` is what model kernels actually touch: it resolves a
backend name + eval dtype once, caches per-parameter embedding tables on the
backend, and degenerates to *zero-overhead pass-throughs* on the reference
configuration (numpy / fp64) so the default path stays bit-identical to the
seed — ``table()`` returns ``parameter.data`` itself and ``export()`` returns
its argument.

:class:`ScoreComputeMixin` gives every candidate scorer (embedding models and
the AMIE/simple/Cartesian predictors) a uniform ``set_score_backend`` knob.
Only the *names* are stored on the instance, so pickling a scorer into an
evaluation worker ships two strings and the worker re-resolves its own
backend handle.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from .base import ArrayBackend, canonical_dtype, numpy_dtype


def _resolve(backend: Any) -> ArrayBackend:
    if isinstance(backend, ArrayBackend):
        return backend
    from . import get_backend

    return get_backend(backend)


class EvalCompute:
    """A resolved (backend, eval dtype) pair with cached parameter tables."""

    __slots__ = ("backend", "backend_name", "dtype_name", "_identity", "_tables")

    def __init__(self, backend: Any = "numpy", eval_dtype: str = "fp64") -> None:
        resolved = _resolve(backend)
        self.backend = resolved
        self.backend_name = resolved.name
        self.dtype_name = canonical_dtype(eval_dtype)
        # Reference configuration: skip every conversion so the default path
        # is literally the seed's numpy float64 arithmetic.
        self._identity = resolved.name == "numpy" and self.dtype_name == "fp64"
        self._tables: Dict[int, Any] = {}

    # -- pickling: ship names, re-resolve on load --------------------------
    def __getstate__(self):
        return (self.backend_name, self.dtype_name)

    def __setstate__(self, state):
        self.__init__(state[0], state[1])

    # -- properties --------------------------------------------------------
    @property
    def xp(self) -> Any:
        return self.backend.xp

    @property
    def is_reference(self) -> bool:
        """True on the numpy/fp64 bit-identity configuration."""
        return self._identity

    # -- conversions -------------------------------------------------------
    def table(self, parameter: Any) -> Any:
        """Backend-resident view of a parameter's embedding table.

        On the reference configuration this is ``parameter.data`` itself (live,
        never stale).  Otherwise the converted table is cached per parameter;
        callers invalidate via :meth:`invalidate` when parameters mutate.
        """
        data = parameter.data
        if self._identity:
            return data
        key = id(parameter)
        cached = self._tables.get(key)
        if cached is None:
            host = np.asarray(data, dtype=numpy_dtype(self.dtype_name))
            cached = self.backend.from_numpy(host, self.dtype_name)
            self._tables[key] = cached
        return cached

    def array(self, values: Any) -> Any:
        """One-off transfer of an intermediate host array (no caching)."""
        if self._identity:
            return np.asarray(values, dtype=np.float64)
        host = np.asarray(values, dtype=numpy_dtype(self.dtype_name))
        return self.backend.from_numpy(host, self.dtype_name)

    def export(self, scores: Any) -> Any:
        """Wrap a finished host score matrix in the configured backend/dtype."""
        if self._identity:
            return scores
        return self.array(scores)

    def index(self, indices: Any) -> Any:
        """Index array in the backend's 64-bit integer type."""
        if self._identity:
            return np.asarray(indices, dtype=np.int64)
        return self.backend.index_array(np.asarray(indices, dtype=np.int64))

    def empty(self, shape: Any) -> Any:
        """Uninitialised score buffer in the configured backend/dtype."""
        if self._identity:
            return np.empty(shape)
        return self.backend.empty(shape, self.dtype_name)

    def zeros(self, shape: Any) -> Any:
        if self._identity:
            return np.zeros(shape)
        return self.backend.zeros(shape, self.dtype_name)

    def as_numpy(self, array: Any) -> np.ndarray:
        """Backend array back to host numpy (identity on the reference path)."""
        if self._identity:
            return array
        return self.backend.to_numpy(array)

    def invalidate(self) -> None:
        """Drop cached parameter tables (call after parameters mutate)."""
        self._tables.clear()


class ScoreComputeMixin:
    """Opt-in backend/dtype selection for candidate scorers.

    Class-attribute defaults mean existing instances and old pickles behave as
    the reference configuration without any ``__init__`` changes.
    """

    _score_backend_name: str = "numpy"
    _score_dtype_name: str = "fp64"

    def set_score_backend(self, backend: Any = "numpy", eval_dtype: str = "fp64") -> None:
        """Select the array backend and dtype used by the batch score kernels."""
        self._score_backend_name = getattr(backend, "name", None) or str(backend)
        self._score_dtype_name = canonical_dtype(eval_dtype)
        self.__dict__["_score_compute"] = None

    @property
    def score_compute(self) -> EvalCompute:
        compute: Optional[EvalCompute] = self.__dict__.get("_score_compute")
        if compute is None:
            compute = EvalCompute(self._score_backend_name, self._score_dtype_name)
            self.__dict__["_score_compute"] = compute
        return compute

    def invalidate_score_tables(self) -> None:
        """Drop any backend-resident parameter tables (post-update hook)."""
        compute: Optional[EvalCompute] = self.__dict__.get("_score_compute")
        if compute is not None:
            compute.invalidate()
