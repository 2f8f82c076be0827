"""Outside-in span tracer for cornercase.

The tracer wraps every public module-level function of each layer
module from outside the package and rebinds every ``cornercase.*``
attribute that refers to the original function object. Call sites that
imported a function by name (``from .density import score_set``) are
covered too, and so are public functions a later change adds. No
source file of the program changes.

Each call records one span: name, start, end, parent span, work counts
and whether a CornerCaseError escaped it. Spans stay in memory and are
written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types

LAYERS = (
    "images",
    "corruptions",
    "embeddings",
    "density",
    "metrics",
    "stats",
    "uncertainty",
    "bench",
    "cli",
)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _knn_counts(args, kwargs, result):
    index, queries = _arg(args, kwargs, 0, "index"), _arg(args, kwargs, 1, "X")
    q, n, d = len(queries), index.count, index.dim
    return {"queries": q, "distance_flops": 3 * q * n * d}


def _gmm_counts(args, kwargs, result):
    n, d = len(_arg(args, kwargs, 0, "ids")), result.dim
    iters = len(result.log_likelihoods)
    # E-step: difference, square, scale and sum per (row, component,
    # dim); M-step: the weighted mean and variance products.
    return {"em_iters": iters, "em_flops": iters * 10 * n * result.components * d}


def _read_png_counts(args, kwargs, result):
    return {
        "raw_bytes": result.nbytes + result.shape[0],
        "file": os.path.abspath(os.fspath(_arg(args, kwargs, 0, "path"))),
    }


def _write_png_counts(args, kwargs, result):
    arr = _arg(args, kwargs, 1, "arr")
    return {"raw_bytes": arr.nbytes + arr.shape[0]}


def _rows_loaded(args, kwargs, result):
    return {"rows": len(result)}


def _scores_ranked(args, kwargs, result):
    split = _arg(args, kwargs, 0, "s")
    return {"scores": split.id_scores.size + split.ood_scores.size}


def _pixels_ranked(args, kwargs, result):
    return {"pixels": int(_arg(args, kwargs, 0, "m").valid_mask.sum())}


COUNTERS = {
    "density.knn_kth_sqdist": _knn_counts,
    "density.fit_gmm": _gmm_counts,
    "images.read_png": _read_png_counts,
    "images.write_png": _write_png_counts,
    "embeddings.load_embeddings": _rows_loaded,
    "metrics.detection_report": _scores_ranked,
    "metrics.pixel_average_precision": _pixels_ranked,
    "metrics.pixel_fpr_at_tpr": _pixels_ranked,
}


class Tracer:
    """Collects spans from the functions it wraps; one per process."""

    def __init__(self):
        # span: [name, start, end, parent index, counts or None, error]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, error_type):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except error_type:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    span[4] = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    # a changed signature loses the count, never the run
                    span[4] = {"counter_error": f"{type(exc).__name__}: {exc}"}
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and rebind their names."""
        from cornercase.errors import CornerCaseError

        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cornercase.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj, CornerCaseError)
        for name, module in list(sys.modules.items()):
            if name != "cornercase" and not name.startswith("cornercase."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def dump(self, path, plan_start: float, plan_end: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"plan_s": plan_end - plan_start, "spans": self.spans}, fh)
