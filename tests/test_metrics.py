"""Detection-metric tests against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornercase.errors import FormatError, ValidationError
from cornercase.images import write_png
from cornercase.metrics import (
    DetectionReport,
    LabeledScores,
    PixelScoreMap,
    apply_threshold,
    aupr,
    auroc,
    calibrate_threshold,
    detection_report,
    fpr_at_tpr,
    labeled_scores_from_files,
    load_pixel_ground_truth,
    pixel_average_precision,
    pixel_fpr_at_tpr,
    save_scores,
)

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def auroc_pairwise_oracle(id_scores, ood_scores) -> float:
    """Exhaustive pairwise comparison with half credit for ties."""
    id_scores = np.asarray(id_scores, dtype=float)
    ood_scores = np.asarray(ood_scores, dtype=float)
    gt = (id_scores[:, None] > ood_scores[None, :]).sum()
    eq = (id_scores[:, None] == ood_scores[None, :]).sum()
    return 100.0 * (gt + 0.5 * eq) / (id_scores.size * ood_scores.size)


def fpr_enumeration_oracle(id_scores, ood_scores, tpr_target=0.95) -> float:
    """Scan candidate thresholds; keep the largest achieving the target TPR."""
    id_scores = np.asarray(id_scores, dtype=float)
    ood_scores = np.asarray(ood_scores, dtype=float)
    best_lam = None
    for lam in np.concatenate([id_scores, ood_scores]):
        tpr = (id_scores >= lam).mean()
        if tpr >= tpr_target and (best_lam is None or lam > best_lam):
            best_lam = lam
    return 100.0 * (ood_scores >= best_lam).mean()


def ap_sweep_oracle(scores, positives) -> float:
    """Threshold sweep over unique scores with tie grouping."""
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    n_pos = positives.sum()
    ap = 0.0
    prev_recall = 0.0
    for lam in sorted(set(scores.tolist()), reverse=True):
        predicted = scores >= lam
        tp = (predicted & positives).sum()
        recall = tp / n_pos
        precision = tp / predicted.sum()
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return 100.0 * ap


def aupr_oracle(id_scores, ood_scores, positive="in") -> float:
    scores = np.concatenate([id_scores, ood_scores]).astype(float)
    labels = np.concatenate(
        [np.ones(len(id_scores), dtype=bool), np.zeros(len(ood_scores), dtype=bool)]
    )
    if positive == "out":
        scores, labels = -scores, ~labels
    return ap_sweep_oracle(scores, labels)


def _random_split(rng, tie_heavy=False, max_n=200):
    n_id = int(rng.integers(1, max_n))
    n_ood = int(rng.integers(1, max_n))
    if tie_heavy:
        # exactly representable values so ties survive score transforms
        pool = rng.integers(0, 6, size=5) * 0.25
        id_s = rng.choice(pool, size=n_id)
        ood_s = rng.choice(pool, size=n_ood) - 0.25
    else:
        id_s = rng.normal(loc=1.0, size=n_id)
        ood_s = rng.normal(loc=0.0, size=n_ood)
    return LabeledScores(id_scores=id_s, ood_scores=ood_s)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestAuroc:
    def test_perfect_separation(self):
        s = LabeledScores(id_scores=[0.9, 0.8], ood_scores=[0.1, 0.2])
        assert auroc(s) == 100.0

    def test_single_tie_is_half(self):
        s = LabeledScores(id_scores=[0.5], ood_scores=[0.5])
        assert auroc(s) == 50.0

    def test_worked_example(self):
        s = LabeledScores(id_scores=[0.9, 0.4, 0.7], ood_scores=[0.5, 0.3])
        assert auroc(s) == pytest.approx(100.0 * 5.0 / 6.0, abs=1e-9)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            s = _random_split(rng, tie_heavy=trial % 3 == 0)
            assert auroc(s) == pytest.approx(
                auroc_pairwise_oracle(s.id_scores, s.ood_scores), abs=1e-9
            )

    def test_side_swap_symmetry(self):
        # swapping which side is "ID" flips the orientation, complementing AUROC
        rng = np.random.default_rng(1)
        for trial in range(25):
            s = _random_split(rng, tie_heavy=trial % 4 == 0)
            swapped = LabeledScores(id_scores=s.ood_scores, ood_scores=s.id_scores)
            assert auroc(s) + auroc(swapped) == pytest.approx(100.0, abs=1e-9)

    def test_empty_side_rejected(self):
        with pytest.raises(ValidationError):
            auroc(LabeledScores(id_scores=[1.0], ood_scores=[]))


class TestFprAtTpr:
    def test_perfect_separation(self):
        s = LabeledScores(id_scores=[3.0, 2.0], ood_scores=[0.0, 1.0])
        assert fpr_at_tpr(s) == 0.0

    def test_hand_enumeration(self):
        s = LabeledScores(id_scores=[4.0, 3.0, 2.0, 1.0], ood_scores=[0.5, 1.5])
        # keeping 95% of four samples keeps all four, threshold 1
        assert fpr_at_tpr(s, 0.95) == 50.0

    def test_identical_distributions_near_95(self):
        rng = np.random.default_rng(2)
        s = LabeledScores(
            id_scores=rng.normal(size=100_000), ood_scores=rng.normal(size=100_000)
        )
        assert fpr_at_tpr(s, 0.95) == pytest.approx(95.0, abs=1.0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            s = _random_split(rng, tie_heavy=trial % 3 == 0, max_n=60)
            for target in (0.5, 0.8, 0.95, 1.0):
                assert fpr_at_tpr(s, target) == pytest.approx(
                    fpr_enumeration_oracle(s.id_scores, s.ood_scores, target), abs=1e-9
                )

    def test_monotone_in_target(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = _random_split(rng)
            values = [fpr_at_tpr(s, t) for t in (0.5, 0.7, 0.9, 0.95, 1.0)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bad_target_rejected(self):
        s = LabeledScores(id_scores=[1.0], ood_scores=[0.0])
        with pytest.raises(ValidationError):
            fpr_at_tpr(s, 0.0)


class TestCalibrateThreshold:
    def test_keep_all(self):
        assert calibrate_threshold([1.0, 2.0, 3.0, 4.0], 1.0) == 1.0

    def test_keep_three_quarters(self):
        assert calibrate_threshold([1.0, 2.0, 3.0, 4.0], 0.75) == 2.0

    def test_singleton(self):
        assert calibrate_threshold([5.0], 0.95) == 5.0

    def test_retention_contract(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            scores = rng.normal(size=int(rng.integers(1, 50)))
            target = float(rng.uniform(0.05, 1.0))
            lam = calibrate_threshold(scores, target)
            kept = np.mean([apply_threshold(v, lam) == "ID" for v in scores])
            assert kept >= target - 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_threshold([], 0.95)


class TestApplyThreshold:
    def test_above(self):
        assert apply_threshold(0.7, 0.5) == "ID"

    def test_boundary_is_id(self):
        assert apply_threshold(0.5, 0.5) == "ID"

    def test_below(self):
        assert apply_threshold(0.3, 0.5) == "OOD"


class TestAupr:
    def test_perfect_separation(self):
        s = LabeledScores(id_scores=[2.0, 3.0], ood_scores=[0.0, 1.0])
        assert aupr(s, "in") == 100.0

    def test_all_equal_gives_prevalence(self):
        s = LabeledScores(id_scores=[1.0] * 3, ood_scores=[1.0] * 7)
        assert aupr(s, "in") == pytest.approx(30.0)
        assert aupr(s, "out") == pytest.approx(70.0)

    def test_worked_example_matches_oracle(self):
        s = LabeledScores(id_scores=[0.9, 0.4, 0.7], ood_scores=[0.5, 0.3])
        assert aupr(s, "in") == pytest.approx(
            aupr_oracle(s.id_scores, s.ood_scores, "in"), abs=1e-9
        )

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            s = _random_split(rng, tie_heavy=trial % 3 == 0, max_n=80)
            for positive in ("in", "out"):
                assert aupr(s, positive) == pytest.approx(
                    aupr_oracle(s.id_scores, s.ood_scores, positive), abs=1e-9
                )

    def test_bad_positive_class(self):
        s = LabeledScores(id_scores=[1.0], ood_scores=[0.0])
        with pytest.raises(ValidationError):
            aupr(s, "neither")


class TestRankInvariance:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_strictly_increasing_transforms(self, seed):
        rng = np.random.default_rng(seed)
        s = _random_split(rng, tie_heavy=seed % 2 == 0, max_n=60)
        transforms = [
            lambda v: np.exp(v / 4.0),
            lambda v: 3.0 * v + 11.0,
            lambda v: v**3,
        ]
        base = (auroc(s), fpr_at_tpr(s), aupr(s, "in"), aupr(s, "out"))
        for tf in transforms:
            ts = LabeledScores(id_scores=tf(s.id_scores), ood_scores=tf(s.ood_scores))
            got = (auroc(ts), fpr_at_tpr(ts), aupr(ts, "in"), aupr(ts, "out"))
            np.testing.assert_allclose(got, base, atol=1e-9)


class TestDetectionReport:
    def test_fields_within_range(self):
        rng = np.random.default_rng(7)
        s = _random_split(rng)
        rep = detection_report(s)
        for name in ("fpr_at_95", "auroc", "aupr_in", "aupr_out"):
            assert 0.0 <= getattr(rep, name) <= 100.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            DetectionReport(fpr_at_95=-1.0, auroc=50.0, aupr_in=50.0, aupr_out=50.0)


class TestPixelMetrics:
    def _map_from(self, scores, gt, valid=None):
        scores = np.asarray(scores, dtype=float)
        gt = np.asarray(gt, dtype=bool)
        if valid is None:
            valid = np.ones_like(gt, dtype=bool)
        return PixelScoreMap(scores=scores, ground_truth=gt, valid_mask=valid)

    def test_indicator_scores_perfect(self):
        gt = np.zeros((4, 4), dtype=bool)
        gt[1:3, 1:3] = True
        m = self._map_from(gt.astype(float), gt)
        assert pixel_average_precision(m) == 100.0
        assert pixel_fpr_at_tpr(m) == 0.0

    def test_constant_scores_prevalence(self):
        gt = np.zeros((5, 4), dtype=bool)
        gt[0, :] = True
        m = self._map_from(np.ones((5, 4)), gt)
        assert pixel_average_precision(m) == pytest.approx(100.0 * 4 / 20)

    def test_inverted_scores_worst_case(self):
        gt = np.zeros((4, 4), dtype=bool)
        gt[0, 0] = True
        m = self._map_from(1.0 - gt.astype(float), gt)
        assert pixel_fpr_at_tpr(m) == 100.0

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            scores = rng.normal(size=(16, 16))
            gt = rng.uniform(size=(16, 16)) < 0.2
            valid = rng.uniform(size=(16, 16)) > 0.1
            if not (gt & valid).any() or not (~gt & valid).any():
                continue
            m = self._map_from(scores, gt, valid)
            flat_scores = scores[valid]
            flat_gt = gt[valid]
            assert pixel_average_precision(m) == pytest.approx(
                ap_sweep_oracle(flat_scores, flat_gt), abs=1e-9
            )
            oracle_fpr = fpr_enumeration_oracle(
                flat_scores[flat_gt], flat_scores[~flat_gt], 0.95
            )
            assert pixel_fpr_at_tpr(m) == pytest.approx(oracle_fpr, abs=1e-9)

    def test_no_positive_rejected(self):
        m = self._map_from(np.zeros((3, 3)), np.zeros((3, 3), dtype=bool))
        with pytest.raises(ValidationError):
            pixel_average_precision(m)

    def test_invalid_pixels_excluded(self):
        gt = np.array([[True, False], [False, False]])
        scores = np.array([[1.0, 5.0], [0.0, 0.0]])
        valid = np.array([[True, False], [True, True]])  # high-score FP is invalid
        m = self._map_from(scores, gt, valid)
        assert pixel_average_precision(m) == 100.0


class TestScoreFiles:
    def test_round_trip(self, tmp_path):
        ids, scores = [f"r{i}" for i in range(5)], [float(i) for i in range(5)]
        id_path, ood_path = tmp_path / "id.jsonl", tmp_path / "ood.jsonl"
        save_scores(id_path, ids, scores, "id")
        save_scores(ood_path, ids[:2], scores[:2], "ood")
        split = labeled_scores_from_files(id_path, ood_path)
        assert split.id_scores.size == 5 and split.ood_scores.size == 2

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"id": "a", "score": 1.0, "label": "maybe"}\n')
        with pytest.raises(FormatError):
            labeled_scores_from_files(path)


class TestGroundTruthPng:
    def test_convention(self, tmp_path):
        arr = np.array([[0, 255], [128, 0]], dtype=np.uint8)
        path = tmp_path / "gt.png"
        write_png(path, arr)
        gt, valid = load_pixel_ground_truth(path)
        np.testing.assert_array_equal(gt, [[False, True], [False, False]])
        np.testing.assert_array_equal(valid, [[True, True], [False, True]])
