"""Sample-level detection metrics and pixel-level anomaly metrics.

Positive-class conventions are pinned here once: TPR is measured on
in-distribution samples; FPR@95 is the OOD false-positive rate at the
threshold retaining 95% ID TPR; AUPR-IN treats ID as positive and
AUPR-OUT treats OOD as positive with negated scores. AUROC gives half
credit to ties and PR curves group tied scores at a single threshold,
so no metric depends on input order. All results are percentages.

Pixel AP and FPR95 over 16-bit uncertainty maps (every valid score
k/65535 for an integer k in 0..65535) are computed from value counts:
an exact grid test and np.bincount over 65536 values, block by block,
replace the sort over pooled pixels, so no temporary grows with the
pixel count. A PixelScoreMap counts once and caches the counts, so AP
and FPR95 of one map share a single pass. Any other float map (CCFMP1
feature-map scores, negated or rescaled scores) takes the sort path: AP
sorts the valid pixels, and FPR95 selects the positives and counts the
negatives at or above the threshold block by block, so it holds only
the positive scores. Both paths use the same integers, so they give
identical results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .embeddings import json_lines
from .errors import FormatError, ValidationError
from .images import _frozen_array, read_png
from .stats import _tie_ends, midranks
from .uncertainty import _SIXTEEN_BIT_MAX

# pixels per block of the 16-bit count path (1 MiB of float64)
_COUNT_BLOCK = 1 << 17


@dataclass(frozen=True)
class LabeledScores:
    """Detection scores split by ground truth; larger = more in-distribution."""

    id_scores: np.ndarray
    ood_scores: np.ndarray

    def __post_init__(self):
        id_scores = np.asarray(self.id_scores, dtype=float).reshape(-1)
        ood_scores = np.asarray(self.ood_scores, dtype=float).reshape(-1)
        if not (np.all(np.isfinite(id_scores)) and np.all(np.isfinite(ood_scores))):
            raise ValidationError("scores must be finite")
        object.__setattr__(self, "id_scores", _frozen_array(id_scores))
        object.__setattr__(self, "ood_scores", _frozen_array(ood_scores))

    def _require_both_sides(self):
        if self.id_scores.size == 0 or self.ood_scores.size == 0:
            raise ValidationError("metric needs both ID and OOD scores")


@dataclass(frozen=True)
class DetectionReport:
    """Table row: all four detection metrics as percentages."""

    fpr_at_95: float
    auroc: float
    aupr_in: float
    aupr_out: float

    def __post_init__(self):
        for name in ("fpr_at_95", "auroc", "aupr_in", "aupr_out"):
            v = getattr(self, name)
            if not (0.0 <= v <= 100.0):
                raise ValidationError(f"{name}={v} outside [0, 100]")


@dataclass(frozen=True)
class PixelScoreMap:
    """Pixel anomaly scores (larger = more anomalous) with ground truth."""

    scores: np.ndarray
    ground_truth: np.ndarray
    valid_mask: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        gt = np.asarray(self.ground_truth, dtype=bool)
        valid = np.asarray(self.valid_mask, dtype=bool)
        if scores.ndim != 2 or gt.shape != scores.shape or valid.shape != scores.shape:
            raise ValidationError("scores, ground_truth and valid_mask shapes disagree")
        if not np.all(np.isfinite(scores)):
            raise ValidationError("pixel scores must be finite")
        object.__setattr__(self, "scores", _frozen_array(scores))
        object.__setattr__(self, "ground_truth", _frozen_array(gt, dtype=bool))
        object.__setattr__(self, "valid_mask", _frozen_array(valid, dtype=bool))

    @cached_property
    def _grid_counts(self):
        """(positive, total) counts per distinct valid score, highest
        first, when every valid score is k/65535 for an integer k in
        0..65535; else None. Cached: the arrays are frozen copies.

        k -> k/65535 is strictly increasing, so nonzero bins in
        descending k are the tie groups in descending score order.
        """
        counts = np.zeros(2 * (_SIXTEEN_BIT_MAX + 1), dtype=np.intp)
        for s, truth in _valid_blocks(self):
            if not s.size:
                continue
            k = s * _SIXTEEN_BIT_MAX
            np.rint(k, out=k)
            if not (k.min() >= 0 and k.max() <= _SIXTEEN_BIT_MAX):
                return None
            index = k.astype(np.intp)
            k /= _SIXTEEN_BIT_MAX
            if not np.array_equal(k, s):
                return None
            # bin 2k counts the negatives at k, bin 2k + 1 the positives
            index <<= 1
            index += truth
            counts += np.bincount(index, minlength=counts.size)
        counts = counts.reshape(-1, 2)
        total = counts.sum(axis=1)
        groups = np.flatnonzero(total)[::-1]
        return counts[groups, 1], total[groups]


# ---------------------------------------------------------------------------
# core metrics
# ---------------------------------------------------------------------------


def auroc(s: LabeledScores) -> float:
    """Area under the ROC curve as a percentage.

    Equals the Mann-Whitney statistic: the fraction of (ID, OOD) pairs
    where the ID sample outranks the OOD sample, ties counted half.
    """
    s._require_both_sides()
    n_id, n_ood = s.id_scores.size, s.ood_scores.size
    ranks = midranks(np.concatenate([s.id_scores, s.ood_scores]))
    u = ranks[:n_id].sum() - n_id * (n_id + 1) / 2.0
    return 100.0 * u / (n_id * n_ood)


def calibrate_threshold(id_scores, tpr_target: float = 0.95) -> float:
    """Largest threshold keeping at least tpr_target of the ID scores.

    Classification at the returned threshold (score >= threshold = ID)
    retains >= tpr_target of the given ID scores.
    """
    scores = np.asarray(id_scores, dtype=float).reshape(-1)
    if scores.size == 0:
        raise ValidationError("cannot calibrate a threshold on empty scores")
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be finite")
    kth = _kth_lowest(scores.size, tpr_target)
    return float(np.partition(scores, kth)[kth])


def _kth_lowest(n: int, tpr_target: float) -> int:
    """Index, from the lowest, of the threshold among n sorted ID scores."""
    if not 0.0 < tpr_target <= 1.0:
        raise ValidationError(f"tpr_target must lie in (0, 1], got {tpr_target}")
    return n - math.ceil(tpr_target * n)


def fpr_at_tpr(s: LabeledScores, tpr_target: float = 0.95) -> float:
    """OOD false-positive rate (%) at the ID-calibrated threshold."""
    s._require_both_sides()
    lam = calibrate_threshold(s.id_scores, tpr_target)
    return 100.0 * float((s.ood_scores >= lam).sum()) / s.ood_scores.size


def apply_threshold(score: float, lam: float) -> str:
    """Threshold decision: 'ID' when score >= lam, else 'OOD'."""
    if not (np.isfinite(score) and np.isfinite(lam)):
        raise ValidationError("score and threshold must be finite")
    return "ID" if score >= lam else "OOD"


def _ap_from_counts(pos: np.ndarray, total: np.ndarray) -> float:
    """AP = sum over descending-threshold groups of (R_n - R_{n-1}) * P_n.

    pos and total count the positives and all scores of each group of
    tied scores, groups in descending score order. The terms are added
    one at a time in threshold order; np.sum would add them pairwise and
    change the last bits.
    """
    tp = np.cumsum(pos)
    recall = tp / tp[-1]
    precision = tp / np.cumsum(total)
    return float(np.add.accumulate(np.diff(recall, prepend=0.0) * precision)[-1])


def _average_precision(scores: np.ndarray, positive: np.ndarray) -> float:
    """AP with tied scores grouped at a single threshold, group counts
    taken from a sort of all scores."""
    order = np.argsort(-scores, kind="stable")
    ends = _tie_ends(scores[order])
    tp = np.searchsorted(np.flatnonzero(positive[order]), ends)
    return _ap_from_counts(np.diff(tp, prepend=0), np.diff(ends, prepend=0))


def aupr(s: LabeledScores, positive: str = "in") -> float:
    """Average precision (%) with the chosen positive class.

    positive='in' ranks by score with ID positive; positive='out'
    negates scores so the OOD class is ranked first.
    """
    s._require_both_sides()
    if positive not in ("in", "out"):
        raise ValidationError(f"positive must be 'in' or 'out', got {positive!r}")
    scores = np.concatenate([s.id_scores, s.ood_scores])
    labels = np.concatenate(
        [np.ones(s.id_scores.size, dtype=bool), np.zeros(s.ood_scores.size, dtype=bool)]
    )
    if positive == "out":
        scores = -scores
        labels = ~labels
    return 100.0 * _average_precision(scores, labels)


def detection_report(s: LabeledScores, tpr_target: float = 0.95) -> DetectionReport:
    """All four detection metrics for one score split."""
    return DetectionReport(
        fpr_at_95=fpr_at_tpr(s, tpr_target),
        auroc=auroc(s),
        aupr_in=aupr(s, "in"),
        aupr_out=aupr(s, "out"),
    )


# ---------------------------------------------------------------------------
# pixel-level anomaly metrics
# ---------------------------------------------------------------------------


def _valid_blocks(m: PixelScoreMap):
    """(scores, ground truth) of the valid pixels, _COUNT_BLOCK pixels of
    the map at a time, so no temporary grows with the map."""
    scores, truth, valid = m.scores.ravel(), m.ground_truth.ravel(), m.valid_mask.ravel()
    for start in range(0, scores.size, _COUNT_BLOCK):
        ok = valid[start : start + _COUNT_BLOCK]
        yield scores[start : start + _COUNT_BLOCK][ok], truth[start : start + _COUNT_BLOCK][ok]


def pixel_average_precision(m: PixelScoreMap) -> float:
    """AP (%) over valid pixels with anomaly pixels as positives.

    Scores on the 16-bit grid are counted per value; others are sorted.
    """
    counts = m._grid_counts
    if counts is not None:
        pos, total = counts
        if pos.any():
            return 100.0 * _ap_from_counts(pos, total)
    else:
        valid = m.valid_mask.ravel()
        scores, positives = m.scores.ravel()[valid], m.ground_truth.ravel()[valid]
        if positives.any():
            return 100.0 * _average_precision(scores, positives)
    raise ValidationError("pixel map has no valid positive pixel")


def pixel_fpr_at_tpr(m: PixelScoreMap, tpr_target: float = 0.95) -> float:
    """FPR (%) over valid negative pixels at tpr_target anomaly recall.

    The threshold is calibrate_threshold of the valid positive scores.
    On the 16-bit grid it is read from the shared value counts; other
    maps are read block by block, keeping only the positive scores.
    """
    counts = m._grid_counts
    if counts is None:
        positives = np.concatenate([s[truth] for s, truth in _valid_blocks(m)] or [np.empty(0)])
        n_pos = positives.size
        n_neg = np.count_nonzero(m.valid_mask) - n_pos
    else:
        pos, total = counts
        n_pos = int(pos.sum())
        n_neg = int(total.sum()) - n_pos
    if not (n_pos and n_neg):
        raise ValidationError("pixel map needs valid positive and negative pixels")
    kth = _kth_lowest(n_pos, tpr_target)
    if counts is None:
        positives.partition(kth)
        lam = positives[kth]
        above = sum(np.count_nonzero(s[~truth] >= lam) for s, truth in _valid_blocks(m))
    else:
        # the threshold's tie group is the first, highest first, by which
        # n_pos - kth positives have been seen; every negative from the
        # top through that group scores >= the threshold
        group = np.searchsorted(np.cumsum(pos), n_pos - kth) + 1
        above = int(total[:group].sum() - pos[:group].sum())
    return 100.0 * float(above) / n_neg


def load_pixel_ground_truth(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (ground_truth, valid_mask) from an 8-bit grayscale PNG.

    Convention: 0 = negative, 255 = positive, anything else = invalid.
    """
    arr = read_png(path)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise FormatError(f"{path}: ground truth must be an 8-bit single-channel PNG")
    return arr == 255, (arr == 0) | (arr == 255)


# ---------------------------------------------------------------------------
# score files
# ---------------------------------------------------------------------------


def save_scores(path, ids, scores, label: str) -> None:
    """Write per-sample scores as JSON-lines with one shared split label."""
    if label not in ("id", "ood"):
        raise ValidationError(f"label must be 'id' or 'ood', got {label!r}")
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if len(ids) != scores.size:
        raise ValidationError(f"{len(ids)} ids for {scores.size} scores")
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be finite")
    lines = [
        json.dumps({"id": ident, "score": score, "label": label}) + "\n"
        for ident, score in zip(ids, scores.tolist())
    ]
    Path(path).write_text("".join(lines), encoding="utf-8")


def load_score_lines(path) -> list[tuple[str, float, str]]:
    """Read (id, score, label) triples from a JSON-lines score file: id a
    string, score a finite JSON number (not a bool), label 'id' or 'ood'."""
    out = []
    for lineno, obj in json_lines(path, "score"):
        try:
            ident, score, label = obj["id"], obj["score"], obj["label"]
        except KeyError as exc:
            raise FormatError(f"{path}:{lineno}: bad score record ({exc})") from exc
        # every JSON number reads as a float; true and false stay bools
        if not isinstance(ident, str):
            raise FormatError(f"{path}:{lineno}: id must be a string, got {ident!r}")
        if not isinstance(score, float):
            raise FormatError(f"{path}:{lineno}: score must be a number, got {score!r}")
        if label not in ("id", "ood"):
            raise FormatError(f"{path}:{lineno}: label must be 'id' or 'ood'")
        if not np.isfinite(score):
            raise FormatError(f"{path}:{lineno}: non-finite score")
        out.append((ident, score, label))
    return out


def labeled_scores_from_files(*paths) -> LabeledScores:
    """Merge one or more score files into a LabeledScores split."""
    id_scores, ood_scores = [], []
    for path in paths:
        for _, score, label in load_score_lines(path):
            (id_scores if label == "id" else ood_scores).append(score)
    return LabeledScores(id_scores=np.array(id_scores), ood_scores=np.array(ood_scores))
