"""Evaluation options: one schema-derived dataclass for how an evaluation runs.

:class:`EvalOptions` is the whole knob surface of
:class:`repro.eval.LinkPredictionEvaluator` and
:func:`repro.eval.evaluate_model`; there is no per-knob keyword surface.  Its
fields mirror the ``evaluation`` section of the knob schema
(:mod:`repro.api.schema`) — name-for-name, default-for-default — plus the
engine-level extras that are not experiment knobs (currently
``mp_start_method``).  A regression test asserts the schema ↔ dataclass
field sync in both directions, so a knob added to the schema without a
matching field here (or vice versa) fails CI.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from . import schema

if TYPE_CHECKING:  # pragma: no cover - typing-time import only
    from .spec import ExperimentConfig

#: ``EvalOptions`` fields that are deliberately *not* evaluation-section
#: knobs (engine-level plumbing, never part of an experiment declaration).
#: The schema-sync regression test allows exactly these extras.
NON_SCHEMA_FIELDS = ("mp_start_method",)


@dataclass(frozen=True)
class EvalOptions:
    """How a link-prediction evaluation runs (not *what* it evaluates).

    Field defaults reference the knob schema directly, so the reference
    configuration here can never drift from ``repro-kgc``'s flags or a spec
    file's ``[evaluation]`` table.
    """

    #: Unique queries per batch scorer call (bounds the (B, E) score matrix).
    batch_size: int = schema.EVALUATION_DEFAULTS["batch_size"]
    #: Worker processes for sharded evaluation; 1 = exact in-process path.
    workers: int = schema.EVALUATION_DEFAULTS["workers"]
    #: Queries per shard (None = one balanced shard per worker).
    shard_size: Optional[int] = schema.EVALUATION_DEFAULTS["shard_size"]
    #: Array backend the batch score kernels compute on.
    backend: str = schema.EVALUATION_DEFAULTS["backend"]
    #: Candidate-scoring dtype (fp64 = the bit-identity reference).
    eval_dtype: str = schema.EVALUATION_DEFAULTS["eval_dtype"]
    #: Multiprocessing start method override (None = platform best).
    mp_start_method: Optional[str] = None

    # -- construction ------------------------------------------------------
    @classmethod
    def from_experiment_config(cls, config: "ExperimentConfig") -> "EvalOptions":
        """The options an :class:`~repro.api.spec.ExperimentConfig` declares."""
        return cls(
            batch_size=config.eval_batch_size,
            workers=config.eval_workers,
            shard_size=config.eval_shard_size,
            backend=config.eval_backend,
            eval_dtype=config.eval_dtype,
        )

    # -- validation / normalization ----------------------------------------
    def validation_errors(self) -> List[str]:
        """Schema-derived validation: ranges and choices from the knob schema."""
        errors: List[str] = []
        section = schema.section("evaluation")
        for knob in section.knobs:
            value = getattr(self, knob.name)
            if value is None:
                if not knob.optional:
                    errors.append(f"evaluation.{knob.name}: may not be None")
                continue
            if knob.choices is not None and value not in knob.choices:
                errors.append(
                    f"evaluation.{knob.name}: expected one of "
                    f"{', '.join(knob.choices)}, got {value!r}"
                )
                continue
            if knob.minimum is not None and value < knob.minimum:
                errors.append(
                    f"evaluation.{knob.name}: must be >= {knob.minimum}, got {value!r}"
                )
            if knob.maximum is not None and value > knob.maximum:
                errors.append(
                    f"evaluation.{knob.name}: must be <= {knob.maximum}, got {value!r}"
                )
        return errors

    def normalized(self) -> "EvalOptions":
        """A validated copy with integer knobs coerced and clamped sane.

        Raises :class:`ValueError` listing every schema violation at once.
        """
        errors = self.validation_errors()
        if errors:
            raise ValueError("invalid evaluation options: " + "; ".join(errors))
        return dataclasses.replace(
            self,
            batch_size=max(1, int(self.batch_size)),
            workers=max(1, int(self.workers)),
            shard_size=None if self.shard_size is None else max(1, int(self.shard_size)),
        )
