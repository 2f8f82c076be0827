"""Detection-metric tests against brute-force oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cornercase import metrics
from cornercase.embeddings import FeatureMap, save_feature_map
from cornercase.errors import FormatError, ValidationError
from cornercase.images import write_png
from cornercase.metrics import (
    _COUNT_BLOCK,
    DetectionReport,
    LabeledScores,
    PixelScoreMap,
    _ap_from_counts,
    _positive_counts,
    _tie_counts,
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
from cornercase.stats import midranks
from cornercase.uncertainty import load_uncertainty_map

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


def average_precision_loop_reference(scores, positive) -> float:
    """Tie-walking loop that AP from a _tie_counts table must equal bit
    for bit."""
    n_pos = int(positive.sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = positive[order]
    ap = 0.0
    tp = fp = 0
    prev_recall = 0.0
    i = 0
    n = scores.size
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        tp += int(sorted_pos[i : j + 1].sum())
        fp += (j - i + 1) - int(sorted_pos[i : j + 1].sum())
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return ap


def pixel_fpr_pooled_reference(m: PixelScoreMap, tpr_target: float) -> float:
    """FPR95 from one copy of all valid pixels, the threshold taken by
    calibrate_threshold: what pixel_fpr_at_tpr must equal on both paths."""
    valid = m.valid_mask.ravel()
    scores, positives = m.scores.ravel()[valid], m.ground_truth.ravel()[valid]
    if not positives.any() or positives.all():
        raise ValidationError("pixel map needs valid positive and negative pixels")
    lam = calibrate_threshold(scores[positives], tpr_target)
    negatives = scores[~positives]
    return 100.0 * float((negatives >= lam).sum()) / negatives.size


# seeded draws of n scores: no ties, five levels, signed zeros among
# rounded values, all scores equal, and 16-bit map levels k/65535
SCORE_DRAWS = {
    "gaussian": lambda rng, n: rng.normal(size=n),
    "five_levels": lambda rng, n: rng.integers(0, 5, size=n).astype(float),
    "signed_zeros": lambda rng, n: np.round(rng.normal(size=n))
    * rng.choice([-0.0, 0.0, 1.0], size=n),
    "all_equal": lambda rng, n: np.full(n, 0.3),
    "sixteen_bit": lambda rng, n: rng.integers(0, 65536, size=n) / 65535.0,
}


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

    @pytest.mark.parametrize("target", [0.01, 0.5, 0.95, 0.999, 1.0])
    def test_equals_full_sort(self, target):
        # the selection must return the order statistic a full sort gives,
        # on draws from 1 distinct value (all tied) up to about n of them
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(1, 2000))
            levels = int(np.exp(rng.uniform(0.0, np.log(2 * n))))
            scores = rng.integers(0, levels, size=n) * rng.choice([-0.25, 0.25])
            keep = math.ceil(target * n)
            assert calibrate_threshold(scores, target) == float(np.sort(scores)[n - keep])


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


def auroc_midrank_reference(s: LabeledScores) -> float:
    """AUROC as U from the midranks of the pooled scores."""
    n_id, n_ood = s.id_scores.size, s.ood_scores.size
    ranks = midranks(np.concatenate([s.id_scores, s.ood_scores]))
    u = ranks[:n_id].sum() - n_id * (n_id + 1) / 2.0
    return 100.0 * u / (n_id * n_ood)


def fpr_threshold_reference(s: LabeledScores, tpr_target: float) -> float:
    """FPR as the share of OOD scores >= calibrate_threshold of the ID side."""
    lam = calibrate_threshold(s.id_scores, tpr_target)
    return 100.0 * float((s.ood_scores >= lam).sum()) / s.ood_scores.size


def aupr_negated_reference(s: LabeledScores, positive: str) -> float:
    """AUPR from the loop reference, AUPR-OUT over negated scores."""
    scores = np.concatenate([s.id_scores, s.ood_scores])
    labels = np.arange(scores.size) < s.id_scores.size
    if positive == "out":
        scores, labels = -scores, ~labels
    return 100.0 * average_precision_loop_reference(scores, labels)


# a few exactly representable values, signed zeros among them, so draws tie
_TIED = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 2.0])
_SIDE = st.lists(_TIED | st.floats(-1e3, 1e3), min_size=1, max_size=40)


class TestOneTieTable:
    """All four detection metrics read one cached table per split; each
    equals its reference formula under ==."""

    @given(id_s=_SIDE, ood_s=_SIDE, target=st.sampled_from([0.5, 0.8, 0.95, 1.0]))
    @example(id_s=[0.0], ood_s=[-0.0], target=0.95)
    @example(id_s=[2.0], ood_s=[-0.0, 0.0, 2.0], target=1.0)
    @example(id_s=[-0.0, 0.0, 0.25], ood_s=[1.0], target=0.5)
    @settings(max_examples=300, deadline=None)
    def test_equal_to_reference_formulas(self, id_s, ood_s, target):
        s = LabeledScores(id_scores=id_s, ood_scores=ood_s)
        want = (
            fpr_threshold_reference(s, target),
            auroc_midrank_reference(s),
            aupr_negated_reference(s, "in"),
            aupr_negated_reference(s, "out"),
        )
        assert (fpr_at_tpr(s, target), auroc(s), aupr(s, "in"), aupr(s, "out")) == want
        fresh = LabeledScores(id_scores=id_s, ood_scores=ood_s)
        assert detection_report(fresh, target) == DetectionReport(*want)

    @pytest.fixture
    def sorts(self, monkeypatch):
        # records each ranking of a split, so a test can count them
        sizes = []

        def spy(scores, positive):
            sizes.append(scores.size)
            return _tie_counts(scores, positive)

        monkeypatch.setattr(metrics, "_tie_counts", spy)
        return sizes

    def test_detection_report_ranks_once(self, sorts):
        s = _random_split(np.random.default_rng(40), tie_heavy=True)
        detection_report(s, 0.8)
        assert sorts == [s.id_scores.size + s.ood_scores.size]

    def test_public_calls_on_one_split_rank_once(self, sorts):
        s = _random_split(np.random.default_rng(41))
        first = (auroc(s), fpr_at_tpr(s), fpr_at_tpr(s, 0.5), aupr(s, "in"), aupr(s, "out"))
        again = (auroc(s), fpr_at_tpr(s), fpr_at_tpr(s, 0.5), aupr(s, "in"), aupr(s, "out"))
        assert first == again
        assert len(sorts) == 1

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda s: auroc(s), "both ID and OOD"),
            (lambda s: fpr_at_tpr(s, 0.0), "both ID and OOD"),
            (lambda s: aupr(s, "neither"), "both ID and OOD"),
            (lambda s: detection_report(s, 1.5), "both ID and OOD"),
        ],
    )
    @pytest.mark.parametrize("sides", [([], [1.0]), ([1.0], []), ([], [])])
    def test_sides_checked_first(self, sides, call, message):
        with pytest.raises(ValidationError, match=message):
            call(LabeledScores(*sides))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda s: fpr_at_tpr(s, 1.5), r"tpr_target must lie in \(0, 1\], got 1.5"),
            (lambda s: detection_report(s, 0.0), r"tpr_target must lie in \(0, 1\], got 0.0"),
            (lambda s: aupr(s, "neither"), "positive must be 'in' or 'out', got 'neither'"),
        ],
    )
    def test_then_target_then_positive(self, call, message):
        with pytest.raises(ValidationError, match=message):
            call(LabeledScores(id_scores=[1.0, 0.5], ood_scores=[0.5]))


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


class TestAveragePrecisionReference:
    @pytest.mark.parametrize("kind", sorted(SCORE_DRAWS))
    def test_equals_loop_reference(self, kind):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(1, 3000))
            scores = SCORE_DRAWS[kind](rng, n)
            positive = rng.uniform(size=n) < rng.uniform(0.01, 0.99)
            positive[rng.integers(n)] = True
            assert _ap_from_counts(*_tie_counts(scores, positive)) == (
                average_precision_loop_reference(scores, positive)
            )

    def test_pooled_sixteen_bit_maps_with_invalid_band(self):
        rng = np.random.default_rng(13)
        maps = rng.integers(0, 65536, size=(4, 48, 64)) / 65535.0
        gt = np.zeros(maps.shape, dtype=bool)
        gt[:, 20:30, 10:40] = True
        maps[gt] = np.minimum(maps[gt] + 0.3, 1.0)
        valid = np.ones(maps.shape, dtype=bool)
        valid[:, 40:, :] = False
        pooled = PixelScoreMap(
            scores=maps.reshape(-1, 64),
            ground_truth=gt.reshape(-1, 64),
            valid_mask=valid.reshape(-1, 64),
        )
        assert pixel_average_precision(pooled) == 100.0 * (
            average_precision_loop_reference(maps[valid], gt[valid])
        )


def _sixteen_bit_draw(rng, shape, levels):
    """A map of k/65535 scores over a few distinct k, so ties are heavy."""
    return rng.choice(rng.integers(0, 65536, size=levels), size=shape) / 65535.0


class TestPixelApPaths:
    """16-bit maps are scored from per-value counts and any other map from
    a table cut at its sorted positive scores; both must equal a full sort
    and the loop reference under ==."""

    @pytest.fixture
    def ranked(self, monkeypatch):
        # records the scores each call of the off-grid builder ranks, so a
        # test can tell which path ran and what it sorted
        ranked = []

        def spy(positives, blocks):
            ranked.append(np.sort(positives))
            return _positive_counts(positives, blocks)

        monkeypatch.setattr(metrics, "_positive_counts", spy)
        return ranked

    def _check(self, scores, gt, valid, ranked, off_grid):
        m = PixelScoreMap(scores=scores, ground_truth=gt, valid_mask=valid)
        got = pixel_average_precision(m)
        assert len(ranked) == (1 if off_grid else 0)
        assert (m._grid_counts is None) == off_grid
        if off_grid:
            # the valid positive scores, and none of the negatives
            assert np.array_equal(ranked[0], np.sort(scores[valid & gt]))
        flat, positive = m.scores[m.valid_mask], m.ground_truth[m.valid_mask]
        assert got == 100.0 * _ap_from_counts(*_tie_counts(flat, positive))
        assert got == 100.0 * average_precision_loop_reference(flat, positive)
        return got

    @pytest.mark.parametrize("levels", [1, 3, 40, 65536])
    def test_heavy_ties_with_invalid_band(self, ranked, levels):
        # 600 x 512 spans three count blocks; rows 256-511 fill the second
        # block with invalid pixels only
        assert 256 * 512 == _COUNT_BLOCK
        rng = np.random.default_rng(16)
        scores = _sixteen_bit_draw(rng, (600, 512), levels)
        gt = rng.uniform(size=scores.shape) < 0.07
        valid = np.ones(scores.shape, dtype=bool)
        valid[256:512] = False
        self._check(scores, gt, valid, ranked, off_grid=False)

    def test_no_invalid_band(self, ranked):
        rng = np.random.default_rng(17)
        scores = _sixteen_bit_draw(rng, (64, 96), 9)
        gt = rng.uniform(size=scores.shape) < 0.3
        self._check(scores, gt, np.ones(scores.shape, dtype=bool), ranked, off_grid=False)

    def test_all_valid_pixels_positive(self, ranked):
        rng = np.random.default_rng(18)
        scores = _sixteen_bit_draw(rng, (40, 60), 5)
        valid = rng.uniform(size=scores.shape) < 0.5
        got = self._check(scores, valid.copy(), valid, ranked, off_grid=False)
        assert got == 100.0

    def test_single_valid_pixel(self, ranked):
        scores = _sixteen_bit_draw(np.random.default_rng(19), (8, 8), 4)
        valid = np.zeros(scores.shape, dtype=bool)
        valid[5, 2] = True
        self._check(scores, valid.copy(), valid, ranked, off_grid=False)

    def test_sixteen_bit_png_maps(self, tmp_path, ranked):
        rng = np.random.default_rng(20)
        write_png(tmp_path / "u.png", rng.integers(0, 65536, size=(48, 64), dtype=np.uint16))
        scores = load_uncertainty_map(tmp_path / "u.png").values
        gt = rng.uniform(size=scores.shape) < 0.1
        valid = np.ones(scores.shape, dtype=bool)
        valid[30:] = False
        self._check(scores, gt, valid, ranked, off_grid=False)

    def test_one_pixel_off_the_grid_is_sorted(self, ranked):
        rng = np.random.default_rng(21)
        scores = _sixteen_bit_draw(rng, (300, 512), 30)
        scores[200, 7] = np.nextafter(scores[200, 7], 2.0)
        gt = rng.uniform(size=scores.shape) < 0.1
        self._check(scores, gt, np.ones(scores.shape, dtype=bool), ranked, off_grid=True)

    def test_negated_scores_are_sorted(self, ranked):
        rng = np.random.default_rng(22)
        scores = -(rng.integers(1, 65536, size=(40, 50)) / 65535.0)
        gt = rng.uniform(size=scores.shape) < 0.2
        self._check(scores, gt, rng.uniform(size=scores.shape) < 0.9, ranked, off_grid=True)

    def test_float_feature_maps_are_sorted(self, tmp_path, ranked):
        rng = np.random.default_rng(23)
        save_feature_map(FeatureMap(rng.uniform(size=(1, 40, 50))), tmp_path / "u.ccfm")
        scores = load_uncertainty_map(tmp_path / "u.ccfm").values
        gt = rng.uniform(size=scores.shape) < 0.2
        self._check(scores, gt, np.ones(scores.shape, dtype=bool), ranked, off_grid=True)

    @pytest.mark.parametrize("scale", [1.0, -1.0])
    def test_no_valid_positive_rejected(self, ranked, scale):
        scores = scale * _sixteen_bit_draw(np.random.default_rng(24), (8, 8), 4)
        gt = np.zeros(scores.shape, dtype=bool)
        gt[0, 0] = True
        valid = ~gt
        m = PixelScoreMap(scores=scores, ground_truth=gt, valid_mask=valid)
        with pytest.raises(ValidationError, match="no valid positive"):
            pixel_average_precision(m)


def _sorted(m: PixelScoreMap) -> PixelScoreMap:
    """m with its grid counts cached as absent, so both pixel metrics
    read the off-grid table of the same scores."""
    m.__dict__["_grid_counts"] = None
    return m


class TestPixelFprPaths:
    """FPR95 of a 16-bit map is read from the cached value counts, of any
    other map from the cached table cut at its positive scores; both equal
    the pooled-copy reference."""

    TARGETS = [0.95, 0.5, 1.0, 1e-3]

    def _maps(self, scores, gt, valid):
        grid = PixelScoreMap(scores=scores, ground_truth=gt, valid_mask=valid)
        assert grid._grid_counts is not None
        return grid, _sorted(PixelScoreMap(scores=scores, ground_truth=gt, valid_mask=valid))

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("levels", [1, 3, 40, 65536])
    def test_count_path_equals_sort_path(self, levels, target):
        # three count blocks, the second of invalid pixels only
        rng = np.random.default_rng(30)
        scores = _sixteen_bit_draw(rng, (600, 512), levels)
        gt = rng.uniform(size=scores.shape) < 0.07
        valid = np.ones(scores.shape, dtype=bool)
        valid[256:512] = False
        grid, by_sort = self._maps(scores, gt, valid)
        want = pixel_fpr_pooled_reference(grid, target)
        assert pixel_fpr_at_tpr(grid, target) == want
        assert pixel_fpr_at_tpr(by_sort, target) == want

    def test_random_maps_with_ties_and_invalid_pixels(self):
        # 300 maps of 16-bit levels, on the grid, then 300 off it:
        # few-level normals, and signed zeros beside -1.0, where positives
        # at 0.0 tie negatives at -0.0
        rng = np.random.default_rng(31)
        off_grid_draws = [
            lambda shape: rng.choice(rng.normal(size=int(rng.integers(1, 12))), size=shape),
            lambda shape: rng.choice([-0.0, 0.0, -1.0], size=shape),
        ]
        checked = [0, 0]
        off_grid = 0
        for i in range(600):
            shape = tuple(int(v) for v in rng.integers(1, 40, size=2))
            if i < 300:
                scores = _sixteen_bit_draw(rng, shape, int(rng.integers(1, 12)))
            else:
                scores = off_grid_draws[i % 2](shape)
            gt = rng.uniform(size=shape) < rng.uniform(0.05, 0.95)
            valid = rng.uniform(size=shape) < rng.uniform(0.3, 1.0)
            target = float(rng.choice([*self.TARGETS, rng.uniform(1e-3, 1.0)]))
            if i < 300:
                m, by_sort = self._maps(scores, gt, valid)
            else:
                m = PixelScoreMap(scores=scores, ground_truth=gt, valid_mask=valid)
                by_sort = _sorted(PixelScoreMap(scores=scores, ground_truth=gt, valid_mask=valid))
                off_grid += m._grid_counts is None
            try:
                want = pixel_fpr_pooled_reference(m, target)
            except ValidationError as exc:
                for each in (m, by_sort):
                    with pytest.raises(ValidationError, match=str(exc)):
                        pixel_fpr_at_tpr(each, target)
                continue
            assert pixel_fpr_at_tpr(m, target) == want
            assert pixel_fpr_at_tpr(by_sort, target) == want
            checked[i >= 300] += 1
        assert checked[0] > 200 and checked[1] > 200
        assert off_grid > 270

    def test_off_grid_maps_equal_reference(self):
        rng = np.random.default_rng(32)
        scores = -(rng.integers(1, 65536, size=(300, 512)) / 65535.0)
        gt = rng.uniform(size=scores.shape) < 0.1
        valid = rng.uniform(size=scores.shape) < 0.9
        m = PixelScoreMap(scores=scores, ground_truth=gt, valid_mask=valid)
        assert m._grid_counts is None
        for target in self.TARGETS:
            assert pixel_fpr_at_tpr(m, target) == pixel_fpr_pooled_reference(m, target)

    @pytest.mark.parametrize(
        "case, target, message",
        [
            ("no_positive", 0.95, "valid positive and negative"),
            ("no_negative", 0.95, "valid positive and negative"),
            ("no_valid", 0.95, "valid positive and negative"),
            ("both", 0.0, r"tpr_target must lie in \(0, 1\], got 0.0"),
            ("both", 1.5, r"tpr_target must lie in \(0, 1\], got 1.5"),
            ("both", -0.1, r"tpr_target must lie in \(0, 1\], got -0.1"),
            ("both", float("nan"), r"tpr_target must lie in \(0, 1\], got nan"),
        ],
    )
    def test_same_errors_on_both_paths(self, case, target, message):
        scores = _sixteen_bit_draw(np.random.default_rng(33), (8, 8), 5)
        gt = np.zeros(scores.shape, dtype=bool)
        gt[:3] = True
        valid = np.ones(scores.shape, dtype=bool)
        if case == "no_positive":
            valid[:3] = False
        elif case == "no_negative":
            valid[3:] = False
        elif case == "no_valid":
            valid[:] = False
        for m in self._maps(scores, gt, valid):
            with pytest.raises(ValidationError, match=message):
                pixel_fpr_at_tpr(m, target)
        with pytest.raises(ValidationError, match=message):
            pixel_fpr_pooled_reference(m, target)

    def test_one_count_pass_serves_ap_and_fpr(self, monkeypatch):
        passes = []
        blocks = metrics._valid_blocks

        def spy(m):
            passes.append(m)
            return blocks(m)

        def full_sort(scores, positive):
            raise AssertionError("a pixel metric sorted the whole map")

        monkeypatch.setattr(metrics, "_valid_blocks", spy)
        monkeypatch.setattr(metrics, "_tie_counts", full_sort)
        rng = np.random.default_rng(34)
        scores = _sixteen_bit_draw(rng, (300, 512), 50)
        truth = rng.uniform(size=scores.shape) < 0.1
        # on the grid the count pass; negated, off the grid, the grid
        # test, then the positives and the negatives
        for sign, table_passes in ((1.0, 1), (-1.0, 3)):
            passes.clear()
            m = PixelScoreMap(scores=sign * scores, ground_truth=truth,
                              valid_mask=np.ones(scores.shape, dtype=bool))
            pixel_average_precision(m)
            assert len(passes) == table_passes
            pixel_fpr_at_tpr(m, 0.95)
            pixel_fpr_at_tpr(m, 0.5)
            assert passes == [m] * table_passes

    @pytest.mark.parametrize("on_grid", [True, False])
    def test_pooled_maps_in_bounded_memory(self, on_grid):
        # 40 pooled 192x384 maps, 8% positive, an invalid band at the
        # bottom of each; rescaled scores leave the grid. Pooled copies
        # of the valid pixels peaked at 44.8 MiB for FPR95 and a sort of
        # them at 70.1 MiB for AP; blocks of _COUNT_BLOCK pixels hold
        # about 5-6 MiB on either path, with the positives off the grid.
        # Each metric is traced on a fresh map, so each builds the table.
        rng = np.random.default_rng(35)
        maps, height, width = 40, 192, 384
        scores = rng.integers(0, 65536, size=(maps * height, width)) / 65535.0
        if not on_grid:
            scores = 0.5 * scores + 0.25
        gt = np.zeros(scores.shape, dtype=bool)
        gt[:, 100:130] = True
        valid = np.ones((maps, height, width), dtype=bool)
        valid[:, -16:] = False
        valid = valid.reshape(scores.shape)
        flat, positive = scores[valid], gt[valid]
        want = {
            pixel_average_precision: 100.0 * _ap_from_counts(*_tie_counts(flat, positive)),
            pixel_fpr_at_tpr: pixel_fpr_pooled_reference(PixelScoreMap(scores, gt, valid), 0.95),
        }
        del flat, positive
        for metric, expected in want.items():
            m = PixelScoreMap(scores=scores, ground_truth=gt, valid_mask=valid)
            tracemalloc.start()
            try:
                got = metric(m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, metric.__name__
            assert got == expected
            assert (m._grid_counts is not None) == on_grid


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
