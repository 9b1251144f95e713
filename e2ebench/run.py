"""End-to-end benchmark of the truss decomposition CLI and server.

Run from the repository root::

    python3 e2ebench/run.py --workload decompose-clique --seed 1 \\
        --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another.

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that reports the per-layer
metrics and its own overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Two more modes:

* ``--self-check N`` runs every workload (or the ``--workload`` given)
  N times with seeds 1..N and prints, for every end-to-end metric, its
  median, its quartile spread as a share of the median, and its bound
  from ``BENCHMARK.json``;
* ``--refresh-reference`` deletes the cached correctness references
  and recomputes them from freshly generated inputs, cross-checking
  the smallest against networkx.

See ``e2ebench/README.md`` for the workloads and what each metric
means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

import procs
from procs import Children, Interrupted

WORK_DIR = ".e2ebench-work"
CACHE_DIR = ".e2ebench-cache"


def _load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: dict, names) -> str:
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            n: {"value": float(metrics[n][0]), "unit": metrics[n][1]}
            for n in names
        },
    })


def run_one(root: str, args, children: Children) -> int:
    import workloads

    spec = _load_spec(root)
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    work = children.scratch_dir(os.path.join(root, WORK_DIR), "run-")
    ctx = workloads.Ctx(root, work, children, args.seed, args.seconds)
    if args.trace:
        import traced
        outcome = traced.run_traced(ctx, args.workload)
    else:
        outcome = workloads.run_workload(ctx, args.workload)
    children.kill_all()
    survivors = children.survivors()
    for note in outcome.notes:
        print(note)
    for why in outcome.problems:
        print(f"PROBLEM: {why}")
    if survivors:
        print(f"error: processes outlived the run: {survivors}",
              file=sys.stderr)
        for pid, _ in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return 3
    for name in names:
        if name in outcome.metrics:
            value, unit = outcome.metrics[name]
            print(f"{name} = {value:.6g} {unit}")
    print(_result_line(not outcome.problems, outcome.attempted,
                       outcome.failed, outcome.metrics, names))
    return 0


def self_check(root: str, args, children: Children) -> int:
    """Repeat the untraced runs and print each metric's spread."""
    spec = _load_spec(root)
    seconds = args.seconds or spec["run_seconds"]
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    work = children.scratch_dir(os.path.join(root, WORK_DIR), "check-")
    worst_ok = True
    for workload in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        fails = []
        for seed in range(1, args.self_check + 1):
            log = os.path.join(work, f"{workload}.{seed}.log")
            t0 = time.perf_counter()
            proc = children.spawn(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                env=dict(os.environ), cwd=root, log_path=log)
            done = children.wait(proc, timeout=600.0)
            with open(log, encoding="utf-8", errors="replace") as fh:
                lines = fh.read().strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}")
                worst_ok = False
                continue
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: "
                  f"{time.perf_counter() - t0:.1f} s, " + ", ".join(
                      f"{n} {m['value']:.5g}"
                      for n, m in result["metrics"].items()), flush=True)
            fails.append((result["failed"], result["attempted"]))
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output")
                worst_ok = False
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload}: {len(fails)} runs, failed/attempted {fails}")
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO WIDE")
            if m["name"] != "setup_s" and spread > m["bound"]:
                worst_ok = False
            print(f"  {m['name']:<12} median {med:12.5g} {m['unit']:<6} "
                  f"spread {spread:7.2%}  bound {m['bound']:.0%}  {verdict}")
    return 0 if worst_ok else 1


def refresh_reference(root: str, args, children: Children) -> int:
    """Recompute every cached reference from scratch."""
    import reference
    import workloads

    shutil.rmtree(os.path.join(root, CACHE_DIR), ignore_errors=True)
    work = children.scratch_dir(os.path.join(root, WORK_DIR), "ref-")
    ctx = workloads.Ctx(root, work, children, 0, 0)
    inputs = [(s.dataset, s.scale) for s in workloads.DECOMPOSE.values()]
    inputs.append(workloads.SERVE_DATASET)
    for dataset, scale in inputs:
        path = ctx.path(f"{dataset}_{scale}.txt")
        done, log = ctx.run(
            ctx.repro("generate", dataset, path, "--scale", str(scale)),
            "generate.log")
        if done.returncode != 0:
            print(f"repro generate {dataset} failed: {log[-300:]}")
            return 1
        t0 = time.perf_counter()
        edges = reference.read_edges(path)
        ref = ctx.cache.for_edges(edges)
        print(f"{dataset}@{scale}: {ref.meta} "
              f"({time.perf_counter() - t0:.1f} s)")
        if len(edges) <= 10_000:
            agrees = reference.networkx_agrees(edges, ref.phi.tolist())
            print(f"  networkx k_truss agrees: {agrees}")
            if not agrees:
                return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", type=int, default=0, metavar="N")
    parser.add_argument("--refresh-reference", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    procs.install_signal_handlers()
    children = Children()
    try:
        if args.refresh_reference:
            return refresh_reference(root, args, children)
        if args.self_check:
            return self_check(root, args, children)
        import workloads
        if args.workload == "all":
            names = workloads.WORKLOADS
        elif args.workload in workloads.WORKLOADS:
            names = (args.workload,)
        else:
            print(f"error: --workload must be 'all' or one of "
                  f"{workloads.WORKLOADS}", file=sys.stderr)
            return 2
        if args.seconds is None:
            args.seconds = float(_load_spec(root)["run_seconds"])
        code = 0
        for name in names:
            args.workload = name
            code = max(code, run_one(root, args, children))
        return code
    except Interrupted as exc:
        print(f"error: {exc}; every child process was killed",
              file=sys.stderr)
        return 128 + exc.signum
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        children.close()
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
