"""Benchmark for the cornercase toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is used from
``src/`` as it stands; there is nothing to build. One invocation:

1. writes the workload's inputs from the seed (inputs.py) and checks
   once that ``read_png`` and ``load_embeddings`` return exactly the
   generated arrays;
2. with ``--trace 0``, times ``cornercase --version`` in fresh processes
   (``setup_s``), then runs the workload in fresh processes until S
   seconds of runs are measured and reports the end-to-end metrics;
   with ``--trace 1``, alternates untraced and traced runs (tracer.py)
   and reports the per-layer metrics;
3. checks the first run's outputs against the oracles (workloads.py)
   and every run's outputs for byte identity with the first.

Everything is written under ``.perfbench/`` in the checkout. The last
line of standard output is the JSON result; the line before it is the
run record (machine, versions, seed, sizes, the workloads' reasons).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# BLAS threads for the program and for the oracles: one per core, at most two.
BLAS_THREADS = max(1, min(2, os.cpu_count() or 1))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
STDERR_TAIL = 8  # lines of the children's stderr kept in the run record on a failure
# Stop starting runs once the invocation nears this many seconds, so it
# ends well inside three minutes even if the program gets much slower.
WALL_LIMIT_S = 140.0

# Per-layer counts derived from shapes and return values, not measured.
COMPUTED = (
    "density.knn_distance_flops",
    "density.gmm_em_flops",
    "images.raw_mb_decoded",
    "images.raw_mb_encoded",
    "metrics.scores_ranked",
    "metrics.pixels_ranked",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], cwd: Path, stdout: Path, timeout: float) -> tuple[float, float, int]:
    """Run a fresh process; returns (wall seconds, peak RSS MB, exit code)."""
    with open(stdout, "wb") as out, open(cwd / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def output_digest(work: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((work / "out").rglob("*")):
        if path.is_file():
            h.update(path.relative_to(work).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    h.update((work / "stdout.txt").read_bytes())
    return h.hexdigest()


def check_generated(work: Path, ctx: dict) -> list[str]:
    """The program's readers must return exactly the generated arrays."""
    import numpy as np

    sys.path.insert(0, str(SRC))
    from cornercase.embeddings import load_embeddings
    from cornercase.images import read_png

    problems = []
    for rel, (ids, matrix) in ctx.get("embedding_files", {}).items():
        es = load_embeddings(work / rel)
        if es.ids() != ids or not np.array_equal(es.matrix(), matrix.astype(float)):
            problems.append(f"load_embeddings({rel}) differs from the generated rows")
    for rel, arr in ctx.get("png_files", {}).items():
        got = read_png(work / rel)
        if got.dtype != arr.dtype or not np.array_equal(got, arr):
            problems.append(f"read_png({rel}) differs from the generated pixels")
    return problems


def layer_metrics(spans_file: Path, process_wall: float) -> tuple[dict, set]:
    """Per-layer numbers from one traced run, and the work counters that
    failed. A span's self time is its duration minus the durations of
    its direct children."""
    data = json.loads(spans_file.read_text(encoding="utf-8"))
    spans = data["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    agg = defaultdict(float)
    files, counter_errors = set(), set()
    rooted = 0.0
    for i, (name, start, end, parent, counts, error) in enumerate(spans):
        module = name.split(".")[0]
        own = end - start - child_time[i]
        agg[f"{name}.s"] += own
        agg[f"{name}.calls"] += 1
        agg[f"{module}.self_s"] += own
        agg[f"{module}.errors"] += bool(error)
        if parent < 0:
            rooted += end - start
        for key, value in (counts or {}).items():
            if key == "file":
                files.add(value)
            elif key == "counter_error":
                counter_errors.add(f"{name}: {value}")
            else:
                agg[f"{name}#{key}"] += value
    out = dict(agg)
    out.update({
        "density.knn_queries": agg["density.knn_kth_sqdist#queries"],
        "density.knn_distance_flops": agg["density.knn_kth_sqdist#distance_flops"],
        "density.gmm_em_iters": agg["density.fit_gmm#em_iters"],
        "density.gmm_em_flops": agg["density.fit_gmm#em_flops"],
        "embeddings.rows_loaded": agg["embeddings.load_embeddings#rows"],
        "images.raw_mb_decoded": agg["images.read_png#raw_bytes"] / 1e6,
        "images.raw_mb_encoded": agg["images.write_png#raw_bytes"] / 1e6,
        "images.decode_reuse_ratio": agg["images.read_png.calls"] / len(files) if files else 0.0,
        "metrics.scores_ranked": agg["metrics.detection_report#scores"],
        "metrics.pixels_ranked": agg["metrics.pixel_average_precision#pixels"]
        + agg["metrics.pixel_fpr_at_tpr#pixels"],
        "uncertainty.maps": agg["uncertainty.load_uncertainty_map.calls"],
        "trace.wall_s": process_wall,
        "trace.unattributed_s": data["plan_s"] - rooted,
        "trace.outside_plan_s": process_wall - data["plan_s"],
        "trace.spans": float(len(spans)),
    })
    return out, counter_errors


def run_record(workload, seed: int, trace: bool, spec: dict) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "sizes": workload.sizes,
        "items_per_run": workload.items,
        "item_unit": workload.item_unit,
        "reasons": {w["name"]: w["why"] for w in spec["workloads"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cornercase" / "cli.py").is_file():
        print(f"no cornercase source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed & 0xFFFFFFFF  # numpy seeds are non-negative
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    began = time.perf_counter()
    work = STATE / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan, ctx = workload.generate(work, seed)
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        problems = check_generated(work, ctx)

        version = [sys.executable, "-m", "cornercase", "--version"]
        setup = []

        def time_setup() -> None:
            wall, _, code = spawn(version, work, work / "version.txt", 60.0)
            if code != 0:
                problems.append(f"cornercase --version exited {code}")
            setup.append(wall)

        if not args.trace:
            time_setup()  # fills the bytecode cache; not counted
            setup.clear()
        phases = {"before_runs_s": time.perf_counter() - began}

        child = [sys.executable, str(HERE / "child.py"), str(work / "plan.json")]
        runs = []  # (traced, wall, rss, exit code, digest)
        reference = None
        check_problems = None
        layer_runs = []
        counter_errors = set()
        measured = 0.0
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            enough = (
                len(runs) >= 2 * MIN_TRACED_PAIRS and len(runs) % 2 == 0
                if args.trace
                else len(runs) >= MIN_RUNS
            )
            elapsed = time.perf_counter() - began
            if enough and measured >= args.seconds:
                break
            if runs and elapsed + 1.5 * max(r[1] for r in runs) > WALL_LIMIT_S:
                break
            if not args.trace:
                time_setup()  # interleaved with the runs, so both see the same machine
            shutil.rmtree(work / "out", ignore_errors=True)
            (work / "out").mkdir()
            spans = work / "spans.json"
            wall, rss, code = spawn(
                child + ([str(spans)] if traced else []),
                work,
                work / "stdout.txt",
                WALL_LIMIT_S + 20.0 - elapsed,
            )
            measured += wall
            digest = output_digest(work) if code == 0 else None
            if code == 0 and reference is None:
                reference = digest
                check_problems = workload.check(work, ctx)
            if traced and code == 0:
                numbers, errors = layer_metrics(spans, wall)
                layer_runs.append(numbers)
                counter_errors |= errors
            runs.append((traced, wall, rss, code, digest))
        phases["runs_and_checks_s"] = time.perf_counter() - began - phases["before_runs_s"]

        if check_problems is None:
            problems.append("no run exited 0; outputs were never checked")
        else:
            problems += check_problems
        failed = sum(
            1 for r in runs if r[3] != 0 or r[4] != reference or check_problems
        )
        if failed:
            codes = sorted({r[3] for r in runs})
            problems.append(f"{failed} of {len(runs)} runs failed (exit codes {codes})")
        if problems:
            # the work directory is removed below; keep the end of the children's stderr
            lines = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace").splitlines()
            problems += [f"stderr: {line}" for line in lines[-STDERR_TAIL:]]

        untraced_walls = [r[1] for r in runs if not r[0]]
        metrics = {}
        if args.trace:
            for name in {m["name"] for m in wanted}:
                values = [lm.get(name, 0.0) for lm in layer_runs]
                metrics[name] = statistics.median(values) if values else 0.0
            traced_walls = [r[1] for r in runs if r[0]]
            if traced_walls:
                metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
        else:
            wall = statistics.median(untraced_walls)
            metrics = {
                "wall_s": wall,
                "items_per_s": workload.items / wall,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(r[2] for r in runs),
            }
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            print(f"metrics not measured: {missing}", file=sys.stderr)
            return 2

        record = run_record(workload, seed, bool(args.trace), spec)
        record.update({
            "runs": len(runs),
            "run_walls_s": [round(r[1], 6) for r in runs],
            "traced": [r[0] for r in runs],
            "setup_walls_s": [round(w, 6) for w in setup],
            "counter_errors": sorted(counter_errors),
            "computed_counts": list(COMPUTED) if args.trace else [],
            "phases_s": {k: round(v, 3) for k, v in phases.items()},
            "problems": problems,
        })
        print(json.dumps({"run_record": record}, sort_keys=True))
        result = {
            "correct": not problems,
            "attempted": len(runs),
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
