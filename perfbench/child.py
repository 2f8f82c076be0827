"""Run one workload plan in a fresh process.

    python3 child.py PLAN.json [SPANS.json]

A plan is a JSON list of steps. ``{"cli": [...]}`` calls
``cornercase.cli.main`` with those arguments, exactly as the
``cornercase`` command does. ``{"pixel": {...}}`` pools uncertainty maps
against 8-bit ground truth through the public pixel-metric functions
and writes both results as JSON. With SPANS.json the layer modules are
traced (see tracer.py) and the spans are written there at the end.

Exits with the first non-zero CLI status, else 0.
"""

from __future__ import annotations

import json
import sys
import time


def pixel_step(step: dict) -> None:
    import numpy as np
    from cornercase import metrics, uncertainty

    scores, truth, valid = [], [], []
    for map_path, gt_path in zip(step["maps"], step["ground_truth"]):
        scores.append(uncertainty.load_uncertainty_map(map_path).values)
        gt, ok = metrics.load_pixel_ground_truth(gt_path)
        truth.append(gt)
        valid.append(ok)
    pooled = metrics.PixelScoreMap(
        scores=np.concatenate(scores),
        ground_truth=np.concatenate(truth),
        valid_mask=np.concatenate(valid),
    )
    result = {
        "pixel_ap": metrics.pixel_average_precision(pooled),
        "pixel_fpr_at_95": metrics.pixel_fpr_at_tpr(pooled, 0.95),
    }
    with open(step["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
        fh.write("\n")


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if len(argv) > 2:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from cornercase import cli

    status = 0
    start = time.perf_counter()
    for step in plan:
        if "cli" in step:
            status = cli.main(step["cli"])
        else:
            pixel_step(step["pixel"])
        if status:
            break
    end = time.perf_counter()
    if tracer is not None:
        tracer.dump(argv[2], start, end)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
