"""protoseg benchmark: one closed-loop workload per run, with checked outputs.

    python3 benchmark/run.py --workload train_capl --seed 1 --seconds 10 --trace 0

Workloads are ``train_capl``, ``eval_fewshot`` and ``data_io`` (see
``workloads.py``). ``--trace 0`` reports every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` runs the focused loop traced and reports
every per-layer metric, and writes its spans to
``.bench_work/traces/<workload>-seed<seed>.jsonl``. ``--smoke`` shrinks every
size so that a run takes seconds.

Output: an ``env`` line (the environment stamp), one line per metric with its
unit and sample count, the check summary, and as the last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The program is
imported from ``src/`` of the checkout this file sits in and nowhere else;
the run exits non-zero without a result if it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"


def import_program():
    """Import protoseg from this checkout's ``src`` or exit with status 2."""
    package = ROOT / "src" / "protoseg"
    if not (package / "__init__.py").is_file():
        print(f"benchmark: no program at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import protoseg

    if Path(protoseg.__file__).resolve().parent != package:
        print(f"benchmark: protoseg resolved to {protoseg.__file__}, not {package}", file=sys.stderr)
        raise SystemExit(2)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    """What the numbers depend on besides the code, and an oversubscription flag.

    The load generator's threads are BLAS's (OpenBLAS defaults to one per
    core) and the evaluation pool's (``CAPL_THREADS``, else the CPU count).
    """
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    env = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CAPL_THREADS")}
    blas_threads = int(env["OPENBLAS_NUM_THREADS"] or env["OMP_NUM_THREADS"] or nproc)
    pool_threads = int(env["CAPL_THREADS"] or os.cpu_count() or 1)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": nproc,
        "threads_env": env,
        "blas_threads": blas_threads,
        "pool_threads": pool_threads,
        "oversubscribed": max(blas_threads, pool_threads) > nproc,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; returns metrics (name -> (value, unit, samples)),
    check counts and the spans of a traced run."""
    import workloads
    from layers import PER_LAYER
    from seams import Patcher

    work_dir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        run = workloads.Run(workload, seed, workloads.SMOKE if smoke else workloads.FULL, str(work_dir))
        metrics, spans = run.execute(seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    Patcher.check_clean()
    if trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: (value, units[name], None) for name, value in metrics.items()}
    return {
        "metrics": metrics,
        "attempted": run.checks.attempted,
        "failures": run.checks.failures,
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; a run takes seconds")
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers
    from seams import dump_spans
    from workloads import REPORTED_ONLY, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    if env["oversubscribed"]:
        print("warning: the load generator would use more threads than nproc", flush=True)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    for name, (value, unit, samples) in result["metrics"].items():
        count = "" if samples is None else f"  n={samples}"
        note = "  (reported, not gated)" if name in REPORTED_ONLY else ""
        print(f"{name:36s} {value:14.6g} {unit}{count}{note}")
    if args.trace:
        spans = result["spans"]
        path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        dump_spans(str(path), spans)
        print(f"self time per span name (ms, whole traced loop), {len(spans)} spans in {path.name}:")
        ranked = sorted(layers.self_times(spans).items(), key=lambda kv: -kv[1])
        for name, ms in ranked:
            print(f"  {name:40s} {ms:12.3f}")
    failed = len(result["failures"])
    for what in result["failures"][:20]:
        print(f"check failed: {what}")
    print(f"checks: {result['attempted']} attempted, {failed} failed "
          f"(share {failed / max(1, result['attempted']):.4f}) on {args.workload}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()
                    if name not in REPORTED_ONLY
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
