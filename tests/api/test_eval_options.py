"""EvalOptions: schema sync, construction, and validation.

The satellite's regression test lives here: the ``EvalOptions`` dataclass and
the schema's ``evaluation`` section must agree field-for-field and
default-for-default in *both* directions (modulo the declared
``NON_SCHEMA_FIELDS`` engine extras), so neither surface can drift.
"""

import dataclasses

import pytest

from repro.api import EvalOptions, schema
from repro.api.options import NON_SCHEMA_FIELDS
from repro.api.spec import ExperimentConfig
from repro.eval import LinkPredictionEvaluator, evaluate_model


# ------------------------------------------------------------------ schema sync
def test_every_evaluation_knob_has_a_matching_field_and_default():
    """Schema -> dataclass: a knob added to the schema must gain a field."""
    fields = {field.name: field for field in dataclasses.fields(EvalOptions)}
    for knob in schema.section("evaluation").knobs:
        assert knob.name in fields, f"schema knob {knob.name} missing from EvalOptions"
        assert fields[knob.name].default == knob.default, knob.name


def test_every_field_is_either_a_schema_knob_or_a_declared_extra():
    """Dataclass -> schema: no undeclared fields sneak past the schema."""
    knob_names = {knob.name for knob in schema.section("evaluation").knobs}
    for field in dataclasses.fields(EvalOptions):
        assert field.name in knob_names or field.name in NON_SCHEMA_FIELDS, (
            f"EvalOptions.{field.name} is neither an evaluation-section knob "
            f"nor listed in NON_SCHEMA_FIELDS"
        )


# ------------------------------------------------------------------ keyword surface
def test_evaluator_rejects_unknown_keywords(toy_dataset):
    with pytest.raises(TypeError, match="typo_knob"):
        LinkPredictionEvaluator(toy_dataset, typo_knob=1)
    # Evaluation knobs are EvalOptions fields only; the old keywords are gone.
    with pytest.raises(TypeError, match="eval_batch_size"):
        LinkPredictionEvaluator(toy_dataset, eval_batch_size=3)
    with pytest.raises(TypeError, match="n_workers"):
        evaluate_model(None, toy_dataset, n_workers=2)


# ------------------------------------------------------------------ construction
def test_from_experiment_config_reads_the_eval_knobs():
    config = ExperimentConfig(eval_batch_size=9, eval_workers=2)
    options = EvalOptions.from_experiment_config(config)
    assert options.batch_size == 9
    assert options.workers == 2
    assert options.shard_size == config.eval_shard_size
    assert (options.backend, options.eval_dtype) == (config.eval_backend, config.eval_dtype)


# ------------------------------------------------------------------ validation
def test_normalized_lists_every_violation_at_once():
    bad = EvalOptions(batch_size=0, workers=0, eval_dtype="fp128")
    with pytest.raises(ValueError) as excinfo:
        bad.normalized()
    message = str(excinfo.value)
    assert "evaluation.batch_size" in message
    assert "evaluation.workers" in message
    assert "evaluation.eval_dtype" in message


def test_normalized_passes_through_valid_options():
    options = EvalOptions(batch_size=4, workers=2, shard_size=5)
    assert options.normalized() == options
