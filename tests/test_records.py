"""Equality and hashing of the frozen records."""

import numpy as np
import pytest

from cornercase.corruptions import Sweep
from cornercase.density import KnnIndex, fit_gmm
from cornercase.embeddings import EmbeddingSet, FeatureMap
from cornercase.images import DepthMap, ImageBuffer
from cornercase.metrics import DetectionReport, LabeledScores, PixelScoreMap
from cornercase.stats import CorrelationResult, pca_fit
from cornercase.uncertainty import DirichletParams, UncertaintyMap

_POINTS = np.random.default_rng(0).normal(size=(12, 3))

# each makes a new record of the same values on every call
ARRAY_RECORDS = {
    "LabeledScores": lambda: LabeledScores([1.0, 2.0], [0.0, 0.5]),
    "PixelScoreMap": lambda: PixelScoreMap(np.eye(2), np.eye(2), np.ones((2, 2))),
    "ImageBuffer": lambda: ImageBuffer(np.full((2, 2, 3), 0.5)),
    "DepthMap": lambda: DepthMap(np.full((2, 2), 5.0), np.ones((2, 2), dtype=bool)),
    "UncertaintyMap": lambda: UncertaintyMap(np.full((2, 2), 0.25)),
    "FeatureMap": lambda: FeatureMap(np.ones((2, 2, 2))),
    "DirichletParams": lambda: DirichletParams([1.0, 2.0]),
    "GmmModel": lambda: fit_gmm(EmbeddingSet([f"r{i}" for i in range(12)], _POINTS), 1, seed=0),
    "KnnIndex": lambda: KnnIndex(2, _POINTS),
    "PcaModel": lambda: pca_fit(EmbeddingSet([f"r{i}" for i in range(12)], _POINTS), 2),
}

VALUE_RECORDS = {
    "DetectionReport": lambda: DetectionReport(90.0, 10.0, 80.0, 70.0),
    "CorrelationResult": lambda: CorrelationResult(0.5, 0.1, 10, "pearson"),
    "Sweep": lambda: Sweep("fog", (0.01, 0.02), seed=3),
}


@pytest.mark.parametrize("make", ARRAY_RECORDS.values(), ids=list(ARRAY_RECORDS))
def test_records_that_hold_arrays_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert {a, b, a} == {a, b} and a in {a} and b not in {a}


@pytest.mark.parametrize("make", VALUE_RECORDS.values(), ids=list(VALUE_RECORDS))
def test_records_of_scalars_compare_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and {a, b} == {a}
