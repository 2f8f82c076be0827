"""Sample-level detection metrics and pixel-level anomaly metrics.

Positive-class conventions are pinned here once: TPR is measured on
in-distribution samples; FPR@95 is the OOD false-positive rate at the
threshold retaining 95% ID TPR; AUPR-IN treats ID as positive and
AUPR-OUT treats OOD as positive, lowest score first. AUROC gives half
credit to ties and PR curves group tied scores at a single threshold,
so no metric depends on input order. All results are percentages.
Every metric reads one table: positives and total per tie group,
highest score first. A LabeledScores split caches its table from one
stable sort, so its four metrics share one ranking.

A PixelScoreMap caches one table for AP and FPR95: a 16-bit map (every
valid score k/65535) counts each of the 65536 values; any other map
(CCFMP1 features, negated or rescaled scores) sorts only its positive
scores and counts the negatives between them; both go block by block.
The metrics read only cumulative counts at groups with positives, which
equal a full sort's. FPR95 alone builds the table too; run AP first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .embeddings import json_lines
from .errors import FormatError, ValidationError
from .images import _SIXTEEN_BIT_MAX, GRAY8, _frozen_array, _write_file, read_png
from .stats import _tie_ends

# pixels per block of the 16-bit count path (1 MiB of float64)
_COUNT_BLOCK = 1 << 17


@dataclass(frozen=True, eq=False)
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

    @cached_property
    def _counts(self):
        """_tie_counts with ID positive; cached, as the scores are frozen.
        Every metric reads it, so each checks here that both sides exist."""
        if self.id_scores.size == 0 or self.ood_scores.size == 0:
            raise ValidationError("metric needs both ID and OOD scores")
        scores = np.concatenate([self.id_scores, self.ood_scores])
        return _tie_counts(scores, np.arange(scores.size) < self.id_scores.size)


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


@dataclass(frozen=True, eq=False)
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

    @cached_property
    def _counts(self):
        """Both pixel metrics' table: _grid_counts, or else _positive_counts."""
        return self._grid_counts or _positive_counts(
            np.concatenate([s[truth] for s, truth in _valid_blocks(self)] or [np.empty(0)]),
            _valid_blocks(self),
        )


# ---------------------------------------------------------------------------
# core metrics
# ---------------------------------------------------------------------------


def auroc(s: LabeledScores) -> float:
    """Area under the ROC curve as a percentage.

    Equals the Mann-Whitney statistic: the fraction of (ID, OOD) pairs
    where the ID sample outranks the OOD sample, ties counted half.
    """
    pos, total = s._counts
    # 2U sums, per OOD sample, 2 per ID sample above its group and 1 per
    # ID sample in it: an integer, so u is exact
    u = float(np.dot(total - pos, 2 * np.cumsum(pos) - pos)) / 2.0
    return 100.0 * u / (s.id_scores.size * s.ood_scores.size)


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


def _fpr_from_counts(pos: np.ndarray, total: np.ndarray, tpr_target: float) -> float:
    """FPR (%) at calibrate_threshold of the positives, from a tie table:
    the threshold's group is the first by which n_pos - kth positives are
    seen, and every negative from the top through it scores >= it."""
    tp = np.cumsum(pos)
    n_pos = int(tp[-1])
    group = np.searchsorted(tp, n_pos - _kth_lowest(n_pos, tpr_target)) + 1
    above = int(total[:group].sum()) - int(tp[group - 1])
    return 100.0 * float(above) / (int(total.sum()) - n_pos)


def fpr_at_tpr(s: LabeledScores, tpr_target: float = 0.95) -> float:
    """OOD false-positive rate (%) at the ID-calibrated threshold."""
    return _fpr_from_counts(*s._counts, tpr_target)


def apply_threshold(score: float, lam: float) -> str:
    """Threshold decision: 'ID' when score >= lam, else 'OOD'."""
    if not (np.isfinite(score) and np.isfinite(lam)):
        raise ValidationError("score and threshold must be finite")
    return "ID" if score >= lam else "OOD"


def _tie_counts(scores: np.ndarray, positive: np.ndarray) -> tuple:
    """The tie-group table: (positive, total) counts per group of tied
    scores, highest score first, from one stable sort."""
    order = np.argsort(-scores, kind="stable")
    ends = _tie_ends(scores[order])
    tp = np.searchsorted(np.flatnonzero(positive[order]), ends)
    return np.diff(tp, prepend=0), np.diff(ends, prepend=0)


def _ap_from_counts(pos: np.ndarray, total: np.ndarray) -> float:
    """AP = sum over descending-threshold groups of (R_n - R_{n-1}) * P_n,
    from a tie table. The terms are added one at a time in
    threshold order; np.sum would add them pairwise and change the last
    bits."""
    tp = np.cumsum(pos)
    recall = tp / tp[-1]
    precision = tp / np.cumsum(total)
    return float(np.add.accumulate(np.diff(recall, prepend=0.0) * precision)[-1])


def aupr(s: LabeledScores, positive: str = "in") -> float:
    """Average precision (%) with the chosen positive class.

    positive='in' ranks by score with ID positive; positive='out' ranks
    the same tie groups lowest score first with OOD positive.
    """
    pos, total = s._counts
    if positive not in ("in", "out"):
        raise ValidationError(f"positive must be 'in' or 'out', got {positive!r}")
    if positive == "out":
        return 100.0 * _ap_from_counts((total - pos)[::-1], total[::-1])
    return 100.0 * _ap_from_counts(pos, total)


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


def _positive_counts(positives: np.ndarray, blocks) -> tuple:
    """A tie table cut at the positive scores, highest first: a group per
    distinct positive score, with the negatives of blocks at or above it
    that the group above lacks, then the rest. Sorts positives in place."""
    positives.sort()
    ends = _tie_ends(positives)
    positives = positives[ends - 1]  # distinct, so the sorted copy is freed
    pos = np.append(np.diff(ends, prepend=0)[::-1], 0)
    del ends
    # below[j]: the negatives with j distinct positive scores at or below them
    below = np.zeros(positives.size + 1, dtype=np.intp)
    for s, truth in blocks:
        # sorted, the negatives look their bins up in order: 4-5x faster
        np.add.at(below, np.searchsorted(positives, np.sort(s[~truth]), side="right"), 1)
    return pos, pos + below[::-1]


def pixel_average_precision(m: PixelScoreMap) -> float:
    """AP (%) over valid pixels with anomaly pixels as positives."""
    counts = m._counts
    if not counts[0].any():
        raise ValidationError("pixel map has no valid positive pixel")
    return 100.0 * _ap_from_counts(*counts)


def pixel_fpr_at_tpr(m: PixelScoreMap, tpr_target: float = 0.95) -> float:
    """FPR (%) of the valid negatives at calibrate_threshold of the valid positives."""
    counts = m._counts
    if not 0 < counts[0].sum() < counts[1].sum():
        raise ValidationError("pixel map needs valid positive and negative pixels")
    return _fpr_from_counts(*counts, tpr_target)


def load_pixel_ground_truth(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (ground_truth, valid_mask) from an 8-bit grayscale PNG.

    Convention: 0 = negative, 255 = positive, anything else = invalid.
    """
    arr = read_png(path, GRAY8)
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
    _write_file(path, (
        json.dumps({"id": ident, "score": score, "label": label}) + "\n"
        for ident, score in zip(ids, scores.tolist())
    ))


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
