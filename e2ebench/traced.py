"""The traced run: per-layer metrics and the tracing overhead.

Timers and counters live here, in the benchmark, not in the program:
:class:`Probes` wraps each layer's public entry points for the length
of a call and puts the originals back afterwards.  The run also reads
the counters the program already reports (``td.stats``, ``IOStats``,
the server's ``/metrics`` and its ``--trace`` spans).

* decompose workloads call ``repro.cli.main`` in this process, once
  with probes and once without, alternately; the overhead is the
  traced median over the untraced one.
* serve-mixed loads a real ``repro serve --trace`` for half the run,
  then drives the same operation plan in-process through
  ``TrussService.apply_write`` and ``LocalReader.current()``.

A layer a workload does not exercise reports 0: no calls, no time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import time
from collections import defaultdict
from statistics import fmean, median
from typing import Callable, Dict, List, Optional

import workloads
from workloads import DECOMPOSE, Ctx, Outcome

#: every per-layer metric and its unit (BENCHMARK.json lists the same)
UNITS: Dict[str, str] = {
    "cli.import_s": "s",
    "cli.imported_modules": "count",
    "cli.main_s": "s",
    "cli.emit_s": "s",
    "graph.ingest_s": "s",
    "triangles.index_build_s": "s",
    "triangles.count": "count",
    "kernels.peel_s": "s",
    "kernels.gather_s": "s",
    "kernels.waves": "count",
    "kernels.levels": "count",
    "kernels.gathered_triangles": "count",
    "core.materialize_s": "s",
    "core.unaccounted_s": "s",
    "core.lowerbound_s": "s",
    "core.level_peel_s": "s",
    "core.levels_visited": "count",
    "partition.p9_rounds": "count",
    "partition.partition_s": "s",
    "partition.max_boost": "count",
    "graph.add_edge_calls": "count",
    "exio.blocks_read": "blocks",
    "exio.blocks_written": "blocks",
    "serve.http.edge_ms": "ms",
    "serve.http.community_ms": "ms",
    "serve.http.updates_ms": "ms",
    "serve.transport_gap_ms": "ms",
    "serve.span.request_ms": "ms",
    "serve.span.publish_ms": "ms",
    "serve.span.recover_s": "s",
    "serve.view.lookup_us": "us",
    "serve.view.community_ms": "ms",
    "serve.wal.append_ms": "ms",
    "stream.apply_batch_ms": "ms",
    "stream.region_edges": "count",
    "serve.publish_ms": "ms",
    "serve.snapshot_bytes": "bytes",
    "serve.recover_load_s": "s",
    "serve.replayed_records": "count",
    "trace.overhead_pct": "%",
}

#: fresh interpreters timing ``import repro.cli``; the median is reported
IMPORT_SAMPLES = 5
_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import repro.cli\n"
    "d = time.perf_counter() - t\n"
    "n = sum(1 for m in sys.modules if m == 'repro' or "
    "m.startswith('repro.'))\n"
    "print(d, n)\n"
)


class Probes:
    """Time and count calls to wrapped attributes; undo on exit."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.own: Dict[str, float] = defaultdict(float)
        #: time inside probed calls not made from another probed call
        self.outer = 0.0
        self._stack: List[float] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self._undo: List[Callable[[], None]] = []

    def _swap(self, owner, attr: str, make: Callable) -> None:
        if isinstance(owner, type):
            # the raw attribute, found where the class hierarchy defines it
            raw = next(k.__dict__[attr] for k in owner.__mro__
                       if attr in k.__dict__)
            own = attr in owner.__dict__
        else:
            raw, own = getattr(owner, attr), True
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(owner, attr, wrapped)
        self._undo.append(
            (lambda: setattr(owner, attr, raw)) if own
            else (lambda: delattr(owner, attr)))

    def time(self, owner, attr: str, key: str,
             after: Optional[Callable] = None) -> None:
        """Time each call into ``key``; ``after(result, args, kwargs)``.

        ``seconds[key]`` is the total; ``own[key]`` the self time, i.e.
        minus the time of probed calls made from inside it.
        """
        stack = self._stack

        def make(fn):
            def timed(*args, **kwargs):
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = time.perf_counter() - t0
                    inner = stack.pop()
                    if stack:
                        stack[-1] += dur
                    else:
                        self.outer += dur
                    self.seconds[key] += dur
                    self.own[key] += dur - inner
                    self.calls[key] += 1
                if after is not None:
                    after(result, args, kwargs)
                return result
            return timed
        self._swap(owner, attr, make)

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls only (for very hot entry points)."""
        calls = self.calls

        def make(fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted
        self._swap(owner, attr, make)

    def mean_ms(self, key: str) -> float:
        n = self.calls.get(key, 0)
        return self.seconds[key] / n * 1000.0 if n else 0.0

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()


def cli_import(ctx: Ctx, out: Outcome, layer: Dict[str, float]) -> None:
    """``import repro.cli`` timed in fresh interpreters."""
    times, modules = [], 0
    for _ in range(IMPORT_SAMPLES):
        done, log = ctx.run([sys.executable, "-c", _IMPORT_PROBE],
                            "import.log")
        if done.returncode != 0:
            raise RuntimeError(f"import repro.cli failed: {log[-300:]}")
        secs, count = log.split()[-2:]
        times.append(float(secs))
        modules = int(count)
    layer["cli.import_s"] = median(times)
    layer["cli.imported_modules"] = modules
    out.notes.append(f"  cli.import_s {median(times):.4f} s "
                     f"({modules} repro modules, {IMPORT_SAMPLES} samples)")


def _in_process(ctx: Ctx) -> None:
    """Make ``repro`` importable here, its temporary files in the run."""
    src = os.path.join(ctx.root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    tempfile.tempdir = os.path.join(ctx.work, "tmp")


# --------------------------------------------------------------- decompose
def _decompose_probes(p: Probes, td_seen: list) -> None:
    import repro.cli as cli
    import repro.core.bottomup as bottomup
    import repro.core.flat as flat
    from repro.core.decomposition import TrussDecomposition
    from repro.graph.adjacency import Graph
    from repro.graph.csr import CSRGraph
    from repro.kernels import get_kernel

    def gathered(result, args, kwargs):
        p.values["gathered"].append(len(result))

    def boost(result, args, kwargs):
        p.values["boost"].append(kwargs.get("boost", 1))

    def keep_td(result, args, kwargs):
        td_seen.append((result, kwargs.get("io_stats")))

    p.time(CSRGraph, "from_edge_list_file", "ingest")
    p.time(cli, "read_edge_list", "ingest")
    p.time(cli, "truss_decomposition", "decompose", after=keep_td)
    p.time(flat, "build_triangle_index", "index")
    p.time(flat, "run_wave_peel", "peel")
    p.time(type(get_kernel()), "gather_incident", "gather", after=gathered)
    p.time(flat, "result_from_phi", "materialize")
    p.time(TrussDecomposition, "k_classes", "k_classes")
    p.time(bottomup, "lower_bounding", "lowerbound")
    p.time(bottomup, "peel_level", "level_peel")
    p.time(bottomup, "partition_with_escape", "partition", after=boost)
    p.count(Graph, "add_edge", "add_edge")


def _stat(td, name: str) -> float:
    value = td.stats.metrics.value(name)
    return float(value) if isinstance(value, (int, float)) else 0.0


def _decompose_layers(p: Probes, main_s: float, td_seen: list) -> dict:
    """One probed call's ledger; the times add up to ``main_s``."""
    td, io_stats = td_seen[-1]
    own = p.own
    return {
        "cli.main_s": main_s,
        "cli.emit_s": main_s - p.outer,
        "graph.ingest_s": own["ingest"],
        "triangles.index_build_s": own["index"],
        "triangles.count": _stat(td, "triangles"),
        "kernels.peel_s": own["peel"],
        "kernels.gather_s": own["gather"],
        "kernels.waves": _stat(td, "waves"),
        "kernels.levels": _stat(td, "levels"),
        "kernels.gathered_triangles": float(sum(p.values["gathered"])),
        "core.materialize_s": own["materialize"] + own["k_classes"],
        "core.unaccounted_s": own["decompose"],
        "core.lowerbound_s": own["lowerbound"],
        "core.level_peel_s": own["level_peel"],
        "core.levels_visited": _stat(td, "candidate_rounds"),
        "partition.p9_rounds": float(p.calls["partition"]),
        "partition.partition_s": own["partition"],
        "partition.max_boost": float(max(p.values["boost"], default=0)),
        "graph.add_edge_calls": float(p.calls["add_edge"]),
        "exio.blocks_read": float(io_stats.blocks_read if io_stats else 0),
        "exio.blocks_written": float(
            io_stats.blocks_written if io_stats else 0),
    }


def traced_decompose(ctx: Ctx, name: str, out: Outcome,
                     layer: Dict[str, float]) -> None:
    spec = DECOMPOSE[name]
    inp, _ = workloads.generate_input(ctx, out, spec.dataset, spec.scale)
    ref = ctx.cache.for_file(inp)
    _in_process(ctx)
    import repro.cli as cli

    result = ctx.path("phi.txt")
    argv = ["decompose", inp, *spec.method_args, "-o", result]
    plain: List[float] = []
    traced: List[dict] = []
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)  # warm-up: lazy imports and first-call costs
    t0 = time.perf_counter()
    while len(traced) < 2 or (
        time.perf_counter() - t0 + 2 * median(plain or [0.0]) < ctx.seconds
    ):
        # alternate which of the pair goes first, so neither side
        # always runs on the heap the other one left behind
        for probed in (False, True) if len(plain) % 2 else (True, False):
            td_seen: list = []
            with Probes() as p, contextlib.redirect_stderr(io.StringIO()):
                if probed:
                    _decompose_probes(p, td_seen)
                t = time.perf_counter()
                code = cli.main(argv)
                main_s = time.perf_counter() - t
            out.attempted += 1
            if code != 0:
                out.failed += 1
                out.problem(f"repro.cli.main exited {code}")
                continue
            with open(result, "rb") as fh:
                why = ref.check_output(fh.read())
            if why:
                out.problem(why)
            if probed:
                traced.append(_decompose_layers(p, main_s, td_seen))
            else:
                plain.append(main_s)
    for key in traced[0]:
        layer[key] = median([row[key] for row in traced])
    untraced = median(plain)
    layer["trace.overhead_pct"] = (layer["cli.main_s"] / untraced - 1) * 100
    layer["cli.main_s"] = untraced
    out.notes.append(
        f"{name} traced: {len(traced)} probed and {len(plain)} plain "
        f"in-process repro.cli.main calls; tracing overhead "
        f"{layer['trace.overhead_pct']:+.1f}% of {untraced:.3f} s")


# ------------------------------------------------------------------- serve
_PROM = re.compile(
    r'^repro_http_request_seconds_(sum|count)\{route="([^"]*)"\} (\S+)$',
    re.M)
_ROUTES = {
    "/edge/{u}/{v}/trussness": "serve.http.edge_ms",
    "/community/{v}": "serve.http.community_ms",
    "/updates": "serve.http.updates_ms",
}


def _handler_means(text: str) -> Dict[str, float]:
    sums: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for kind, route, value in _PROM.findall(text):
        (sums if kind == "sum" else counts)[route] = float(value)
    return {route: sums[route] / counts[route] * 1000.0
            for route in sums if counts.get(route)}


def _spans(path: str) -> Dict[str, List[float]]:
    durs: Dict[str, List[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("kind") == "span":
                durs[rec["name"]].append(float(rec["dur"]))
    return durs


def traced_server(ctx: Ctx, out: Outcome, layer: Dict[str, float],
                  graph: str, plan, seconds: float) -> None:
    """A real ``repro serve --trace``: /metrics and its spans."""
    trace1, trace2 = ctx.path("serve.trace.jsonl"), ctx.path("restart.jsonl")
    server = workloads.Server(ctx, ctx.path("data"), graph,
                              ["--trace", trace1])
    server.start()
    res = workloads.drive_load(server.host, server.port, plan, ctx.seed,
                               seconds)
    out.attempted += res.attempted
    out.failed += res.failed
    for why in res.problems:
        out.problem(why)
    status, body = server.get("/metrics")
    if status != 200:
        out.problem(f"/metrics: HTTP {status}")
    means = _handler_means(body.decode())
    for route, key in _ROUTES.items():
        layer[key] = means.get(route, 0.0)
    read_p50 = median(res.lat["read"]) * 1000.0
    layer["serve.transport_gap_ms"] = read_p50 - layer["serve.http.edge_ms"]
    server.stop()  # a clean stop flushes the trace file
    restarted = workloads.Server(ctx, server.data_dir, None,
                                 ["--trace", trace2])
    restarted.start()
    restarted.stop()
    spans, recover = _spans(trace1), _spans(trace2)
    layer["serve.span.request_ms"] = fmean(spans["request"]) * 1000.0
    layer["serve.span.publish_ms"] = fmean(spans["publish"]) * 1000.0
    layer["serve.span.recover_s"] = recover["recover"][0]
    out.notes.append(
        f"serve-mixed traced: {res.attempted} requests to repro serve "
        f"--trace; read p50 {read_p50:.2f} ms at the client against a "
        f"{layer['serve.http.edge_ms']:.3f} ms handler mean")


def _serve_probes(p: Probes, region: List[int], nbytes: List[int]) -> None:
    from repro.serve import snapshot
    from repro.serve.view import ReadView
    from repro.serve.wal import WriteAheadLog
    from repro.stream import TrussMaintainer

    def affected(result, args, kwargs):
        region.append(len(args[0].last_affected))

    def published(result, args, kwargs):
        nbytes.append(os.path.getsize(os.path.join(result, snapshot.STATE)))

    p.time(WriteAheadLog, "append", "wal")
    p.time(TrussMaintainer, "apply_batch", "apply", after=affected)
    p.time(snapshot, "write_generation", "write_gen", after=published)
    p.time(ReadView, "__init__", "view_build")
    p.time(ReadView, "lookup", "lookup")
    p.time(ReadView, "community", "community")
    p.time(snapshot, "load_generation", "load_gen")
    p.time(TrussMaintainer, "from_state", "from_state")


def _drive_service(service, rounds, deadline: float) -> int:
    """Whole rounds of the plan against the in-process service."""
    done = 0
    while time.perf_counter() < deadline:
        for kind, arg in next(rounds):
            if kind == "read":
                view, _ = service.reader.current()
                if view.lookup(*arg) is None:
                    raise RuntimeError(f"in-process read {arg}: no edge")
            elif kind == "community":
                view, _ = service.reader.current()
                k = view.max_k_of_vertex(arg)
                if k is None or view.community(arg, k) is None:
                    raise RuntimeError(f"in-process community {arg}: none")
            else:
                applied, _, _ = service.apply_write([(kind, *arg)])
                if applied != 1:
                    raise RuntimeError(f"in-process {kind} {arg}: "
                                       "not applied")
            done += 1
    return done


def traced_service(ctx: Ctx, out: Outcome, layer: Dict[str, float],
                   graph: str, plan, base, seconds: float) -> None:
    """The same plan through ``TrussService`` with probed layers."""
    _in_process(ctx)
    from repro.serve.service import TrussService

    data = ctx.path("inproc")
    region: List[int] = []
    nbytes: List[int] = []
    service = TrussService(data, graph)
    service.open()
    try:
        rounds = plan.rounds(0, ctx.seed)
        half = seconds / 2
        t = time.perf_counter()
        plain_ops = _drive_service(service, rounds, t + half)
        plain_s = time.perf_counter() - t
        with Probes() as p:
            _serve_probes(p, region, nbytes)
            t = time.perf_counter()
            traced_ops = _drive_service(service, rounds, t + half)
            traced_s = time.perf_counter() - t
        out.attempted += plain_ops + traced_ops
        view, _ = service.reader.current()
        dump = ("\n".join(view.dump_lines()) + "\n").encode()
    finally:
        service.close()
    ref = ctx.cache.for_edges(base)  # every round deletes what it inserts
    why = ref.check_output(dump)
    if why:
        out.problem(f"in-process service state: {why}")
    with Probes() as rp:
        _serve_probes(rp, [], [])
        recovered = TrussService(data, None)
        recovered.open()
        replayed = recovered.registry.value("repro_serve_replayed_total")
        recovered.close()
    layer["serve.view.lookup_us"] = p.mean_ms("lookup") * 1000.0
    layer["serve.view.community_ms"] = p.mean_ms("community")
    layer["serve.wal.append_ms"] = p.mean_ms("wal")
    layer["stream.apply_batch_ms"] = p.mean_ms("apply")
    layer["stream.region_edges"] = fmean(region)
    layer["serve.publish_ms"] = p.mean_ms("write_gen") + \
        p.mean_ms("view_build")
    layer["serve.snapshot_bytes"] = float(nbytes[-1])
    layer["serve.recover_load_s"] = \
        rp.seconds["load_gen"] + rp.seconds["from_state"]
    layer["serve.replayed_records"] = float(replayed or 0)
    layer["trace.overhead_pct"] = \
        ((traced_s / traced_ops) / (plain_s / plain_ops) - 1) * 100
    out.notes.append(
        f"serve-mixed in-process: {plain_ops} plain and {traced_ops} "
        f"probed operations; tracing overhead "
        f"{layer['trace.overhead_pct']:+.1f}% per operation")


def traced_serve(ctx: Ctx, out: Outcome, layer: Dict[str, float]) -> None:
    dataset, scale = workloads.SERVE_DATASET
    graph = ctx.path("graph.txt")
    done, log = ctx.run(ctx.repro("generate", dataset, graph,
                                  "--scale", str(scale)), "generate.log")
    if done.returncode != 0:
        raise RuntimeError(f"repro generate failed: {log[-500:]}")
    base = workloads.read_edges(graph)
    plan = workloads.ServeLoad.plan(base, ctx.seed)
    traced_server(ctx, out, layer, graph, plan, ctx.seconds / 2)
    traced_service(ctx, out, layer, graph, plan, base, ctx.seconds / 2)


def run_traced(ctx: Ctx, name: str) -> Outcome:
    out = Outcome()
    layer = {key: 0.0 for key in UNITS}
    cli_import(ctx, out, layer)
    if name in DECOMPOSE:
        traced_decompose(ctx, name, out, layer)
    else:
        traced_serve(ctx, out, layer)
    out.metrics = {key: (layer[key], UNITS[key]) for key in UNITS}
    return out
