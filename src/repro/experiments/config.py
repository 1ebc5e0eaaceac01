"""Experiment configuration and the legacy :class:`Workbench` shim.

Every table and figure of the paper is regenerated from the same pool of
artefacts: the six benchmark datasets (three raw replicas and their
de-redundant variants), the trained embedding models, the mined AMIE rules and
the evaluation results.  Artefacts live in a
:class:`repro.api.artifacts.ArtifactStore` and are built on demand by the
stage builders of :mod:`repro.api.pipeline`, so the per-experiment drivers
stay declarative and a whole benchmark session trains each (model, dataset)
pair exactly once.

.. deprecated::
    :class:`Workbench` is the legacy imperative surface, kept as a thin shim
    over the artifact store so existing drivers keep working unchanged.  New
    code should declare a :class:`repro.api.ExperimentSpec` and execute it
    with :class:`repro.api.Runner` (see ``docs/api.md`` for the migration
    table); both paths share the same builders and produce bit-identical
    results.

Every :class:`ExperimentConfig` default derives from the knob schema of
:mod:`repro.api.schema` — the same single source of truth behind
``ExperimentSpec``, ``TrainingConfig`` and the generated CLI flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..api.artifacts import ArtifactStore
from ..api.pipeline import (
    ensure_categories,
    ensure_dataset,
    ensure_evaluation,
    ensure_leakage,
    ensure_redundancy,
    ensure_scorer,
    ensure_snapshot,
    ingest_dataset_into_store,
)
from ..api.schema import (
    ALL_DATASETS,
    AUDIT_DEFAULTS,
    DATASET_DEFAULTS,
    EVALUATION_DEFAULTS,
    FB15K,
    FB15K237,
    INGEST_DEFAULTS,
    MODEL_DEFAULTS,
    TELEMETRY_DEFAULTS,
    TRAINING_DEFAULTS,
    WN18,
    WN18RR,
    YAGO,
    YAGO_DR,
)
from ..core.leakage import LeakageReport
from ..core.redundancy import RedundancyReport
from ..eval.ranking import EvaluationResult
from ..kg.dataset import Dataset
from ..kg.freebase import FreebaseSnapshot
from ..models.base import ModelConfig
from ..models.registry import CORE_MODELS
from ..models.trainer import TrainingConfig

__all__ = [
    "ALL_DATASETS",
    "FB15K",
    "FB15K237",
    "WN18",
    "WN18RR",
    "YAGO",
    "YAGO_DR",
    "ExperimentConfig",
    "Workbench",
]


@dataclass
class ExperimentConfig:
    """Scale and training knobs shared by every experiment driver."""

    scale: str = DATASET_DEFAULTS["scale"]
    seed: int = DATASET_DEFAULTS["seed"]
    dim: int = MODEL_DEFAULTS["dim"]
    epochs: int = TRAINING_DEFAULTS["epochs"]
    batch_size: int = TRAINING_DEFAULTS["batch_size"]
    num_negatives: int = TRAINING_DEFAULTS["num_negatives"]
    learning_rate: float = TRAINING_DEFAULTS["learning_rate"]
    #: Stochastic optimizer of the training loop.
    optimizer: str = TRAINING_DEFAULTS["optimizer"]
    #: Loss family ("default" = each model's own preference).
    loss: str = TRAINING_DEFAULTS["loss"]
    margin: float = TRAINING_DEFAULTS["margin"]
    sampler: str = TRAINING_DEFAULTS["sampler"]
    #: Unique link-prediction queries scored per batch evaluator call.
    eval_batch_size: int = EVALUATION_DEFAULTS["batch_size"]
    #: Worker processes for the sharded link-prediction evaluation
    #: (``1`` = exact in-process path, no pool).
    eval_workers: int = EVALUATION_DEFAULTS["workers"]
    #: Queries per evaluation shard (``None`` = one balanced shard per worker).
    eval_shard_size: Optional[int] = EVALUATION_DEFAULTS["shard_size"]
    #: Array backend the batch score kernels compute on ("auto" picks the
    #: first available accelerator, falling back to numpy).
    eval_backend: str = EVALUATION_DEFAULTS["backend"]
    #: Candidate-scoring dtype (fp64 = bit-identity reference).
    eval_dtype: str = EVALUATION_DEFAULTS["eval_dtype"]
    #: Labelled triples per chunk of the streaming TSV ingestion pipeline
    #: (:meth:`Workbench.ingest`).
    ingest_chunk_size: int = INGEST_DEFAULTS["chunk_size"]
    #: Bounded-queue depth (in chunks) of the ingest pipeline; peak
    #: labelled-triple residency is ``ingest_chunk_size * (ingest_max_queue_chunks + 2)``.
    ingest_max_queue_chunks: int = INGEST_DEFAULTS["max_queue_chunks"]
    #: Fused stream-to-shard execution: ingested splits stay array views that
    #: feed training and sharded evaluation directly (bit-identical results,
    #: no indexed Dataset materialization).
    ingest_fused: bool = INGEST_DEFAULTS["fused"]
    #: Row-indexed sparse gradients + lazy per-row optimizer updates
    #: (``False`` = the dense reference training path).
    sparse_updates: bool = TRAINING_DEFAULTS["sparse_updates"]
    #: Max coalesced rows per sparse optimizer update before the step is
    #: densified (``None`` = never).
    row_budget: Optional[int] = TRAINING_DEFAULTS["row_budget"]
    #: Epochs between validation-MRR passes during training (0 = off).
    validate_every: int = TRAINING_DEFAULTS["validate_every"]
    #: Validation checks without a new best MRR before early stopping (0 = off).
    patience: int = TRAINING_DEFAULTS["patience"]
    #: Reload the best-validation-MRR snapshot before a training run returns.
    restore_best: bool = TRAINING_DEFAULTS["restore_best"]
    #: Directory for periodic training checkpoints (None = off).
    checkpoint_dir: Optional[str] = TRAINING_DEFAULTS["checkpoint_dir"]
    #: Epochs between checkpoints (0 disables periodic saves).
    checkpoint_every: int = TRAINING_DEFAULTS["checkpoint_every"]
    #: L2 weight decay folded into the optimizer step (sparse runs touch only
    #: the batch rows, keeping regularized training O(batch) per step).
    weight_decay: float = TRAINING_DEFAULTS["weight_decay"]
    models: Tuple[str, ...] = tuple(CORE_MODELS)
    include_amie: bool = True
    #: Overlap / density threshold of the Section 4 redundancy audit.
    audit_theta: float = AUDIT_DEFAULTS["theta"]
    #: Redundancy thresholds used for the YAGO-style analysis (the paper keeps
    #: 0.8 for FB15k but treats the 0.75-overlap YAGO pair as duplicates).
    yago_theta: float = AUDIT_DEFAULTS["yago_theta"]
    #: Collect tracing spans and metrics across every stage (see
    #: :mod:`repro.telemetry`; off = near-zero-overhead no-op singletons).
    telemetry_enabled: bool = TELEMETRY_DEFAULTS["enabled"]
    #: Where ``Runner`` writes the JSON-lines span stream after a run
    #: (None = keep the trace in the artifact store only).
    telemetry_trace_path: Optional[str] = TELEMETRY_DEFAULTS["trace_path"]
    #: Opt-in per-stage profiling (wall/cpu timers, RSS and allocation peaks).
    telemetry_profile: bool = TELEMETRY_DEFAULTS["profile"]

    def model_config(self, model_name: str) -> ModelConfig:
        extra: Dict[str, float] = {}
        if model_name == "ConvE":
            extra = {"embedding_height": 4}
        return ModelConfig(dim=self.dim, seed=self.seed, extra=extra)

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            optimizer=self.optimizer,
            num_negatives=self.num_negatives,
            loss=self.loss,
            margin=self.margin,
            sampler=self.sampler,
            seed=self.seed,
            sparse_updates=self.sparse_updates,
            row_budget=self.row_budget,
            validate_every=self.validate_every,
            patience=self.patience,
            restore_best=self.restore_best,
            validation_batch_size=self.eval_batch_size,
            validation_workers=self.eval_workers,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
            weight_decay=self.weight_decay,
        )


class Workbench:
    """Legacy lazy-building surface, now a thin shim over the artifact store.

    .. deprecated::
        Prefer declaring a :class:`repro.api.ExperimentSpec` and running it
        through :class:`repro.api.Runner`.  This class survives so existing
        drivers and tests keep passing: every accessor delegates to the same
        :mod:`repro.api.pipeline` builders the runner uses, over one shared
        :class:`~repro.api.artifacts.ArtifactStore` (exposed as
        :attr:`artifacts`), so the two surfaces are bit-identical.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        self.config = config or ExperimentConfig()
        #: The keyed artifact store replacing the old private dict caches.
        self.artifacts = store if store is not None else ArtifactStore()

    # -- datasets ----------------------------------------------------------------
    def snapshot(self) -> FreebaseSnapshot:
        """The simulated Freebase snapshot behind the FB15k-like benchmark."""
        return ensure_snapshot(self.artifacts, self.config)

    def dataset(self, name: str) -> Dataset:
        """Build (or fetch) one of the six benchmark datasets by key."""
        return ensure_dataset(self.artifacts, self.config, name)

    def all_datasets(self) -> Dict[str, Dataset]:
        return {name: self.dataset(name) for name in ALL_DATASETS}

    def ingest(self, directory, name: Optional[str] = None) -> Dataset:
        """Stream-ingest a TSV dataset directory and register it by name.

        The dataset is pulled through the bounded-memory pipeline of
        :mod:`repro.kg.streaming` under the config's ``ingest_chunk_size`` /
        ``ingest_max_queue_chunks`` budget and cached like the built-in
        replicas, so every analysis and evaluation accessor
        (:meth:`redundancy`, :meth:`leakage`, :meth:`evaluation`, ...) works
        on it by its name.  Re-ingesting an existing name drops every stale
        artifact derived from the old data.
        """
        return ingest_dataset_into_store(self.artifacts, self.config, directory, name=name)

    # -- analyses -----------------------------------------------------------------
    def redundancy(self, dataset_name: str) -> RedundancyReport:
        return ensure_redundancy(self.artifacts, self.config, dataset_name)

    def leakage(self, dataset_name: str) -> LeakageReport:
        return ensure_leakage(self.artifacts, self.config, dataset_name)

    def relation_categories(self, dataset_name: str) -> Dict[int, str]:
        return ensure_categories(self.artifacts, self.config, dataset_name)

    # -- models and evaluations -------------------------------------------------------
    def scorer(self, model_name: str, dataset_name: str):
        """A trained scorer (embedding model, AMIE, simple rule or Cartesian baseline)."""
        return ensure_scorer(self.artifacts, self.config, model_name, dataset_name)

    def evaluation(self, model_name: str, dataset_name: str) -> EvaluationResult:
        """Cached link-prediction evaluation of one scorer on one dataset."""
        return ensure_evaluation(self.artifacts, self.config, model_name, dataset_name)

    def evaluations(self, model_names, dataset_name: str) -> Dict[str, EvaluationResult]:
        return {name: self.evaluation(name, dataset_name) for name in model_names}

    def lineup(self, include_amie: Optional[bool] = None) -> Tuple[str, ...]:
        """The model lineup of the headline tables (embedding models + AMIE)."""
        include_amie = self.config.include_amie if include_amie is None else include_amie
        models = tuple(self.config.models)
        if include_amie:
            models = models + ("AMIE",)
        return models
