"""The four workloads, measured with tracing off.

Each workload drives the program only as a user would: ``repro
generate`` and ``repro decompose`` as processes, ``repro serve`` as a
process spoken to over HTTP.  One program process runs at a time.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from procs import Children
from reference import Reference, ReferenceCache, read_edges

#: how many times set-up runs in one run; ``setup_s`` is the median
SETUP_REPEATS = 3
#: fewest program invocations a decompose run measures, however short
MIN_INVOCATIONS = 3
#: SIGKILL/restart cycles after the serve load; ``wall_s`` is the median
RECOVERY_CYCLES = 9
#: keep-alive HTTP clients driving the server (the host has 2 cores)
CLIENTS = 2
#: one round of one client: 16 edge reads, 2 community reads and one
#: insert plus one delete of the same triangle-closing non-edge
ROUND = ("read",) * 16 + ("community",) * 2 + ("insert", "delete")
#: distinct write edges each client cycles through
WRITE_EDGES_PER_CLIENT = 64
#: the bound on any single program invocation or wait
PROCESS_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class DecomposeSpec:
    dataset: str
    scale: float
    method_args: Tuple[str, ...]


DECOMPOSE: Dict[str, DecomposeSpec] = {
    "decompose-clique": DecomposeSpec("lj", 1.0, ("--method", "flat")),
    "decompose-levels": DecomposeSpec("skitter", 3.0, ("--method", "flat")),
    "decompose-external": DecomposeSpec(
        "hep", 0.1, ("--method", "bottomup", "--memory-fraction", "4")),
}
SERVE_DATASET = ("hep", 0.3)
WORKLOADS = tuple(DECOMPOSE) + ("serve-mixed",)


@dataclass
class Outcome:
    """What one run reports: operations, problems, metrics, notes."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


class Ctx:
    """Paths, environment and process registry of one run."""

    def __init__(self, root: str, work: str, children: Children,
                 seed: int, seconds: float) -> None:
        self.root = root
        self.work = work
        self.children = children
        self.seed = seed
        self.seconds = seconds
        self.cache = ReferenceCache(os.path.join(root, ".e2ebench-cache"))
        tmp = os.path.join(work, "tmp")
        os.makedirs(tmp, exist_ok=True)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        # the program's own temporary files stay inside the checkout
        self.env = dict(os.environ, TMPDIR=tmp,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))

    def repro(self, *args: str) -> List[str]:
        return [sys.executable, "-m", "repro", *args]

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def run(self, argv: Sequence[str], log: str):
        """Run one program process to its end; ``Exited`` plus its log."""
        log_path = self.path(log)
        if os.path.exists(log_path):
            os.unlink(log_path)
        proc = self.children.spawn(argv, env=self.env, cwd=self.root,
                                   log_path=log_path)
        done = self.children.wait(proc, timeout=PROCESS_TIMEOUT_S)
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            return done, fh.read()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_quantile(n: int) -> Optional[int]:
    """Highest of p99/p98/p95/p90 with at least ten samples beyond it."""
    for q in (99, 98, 95, 90):
        if n * (100 - q) / 100 >= 10:
            return q
    return None


# ------------------------------------------------------------------ inputs
def generate_input(ctx: Ctx, out: Outcome, dataset: str,
                   scale: float) -> Tuple[str, List[float]]:
    """``repro generate`` the input ``SETUP_REPEATS`` times.

    Every copy must be byte-identical (generation is seeded by the
    registry); the walls are the set-up samples.
    """
    walls, first = [], None
    for i in range(SETUP_REPEATS):
        path = ctx.path(f"{dataset}_{scale}.{i}.txt")
        done, log = ctx.run(
            ctx.repro("generate", dataset, path, "--scale", str(scale)),
            "generate.log",
        )
        if done.returncode != 0:
            raise RuntimeError(f"repro generate failed: {log[-500:]}")
        walls.append(done.wall_s)
        with open(path, "rb") as fh:
            data = fh.read()
        if first is None:
            first = data
        elif data != first:
            out.problem(f"repro generate {dataset} is not deterministic")
    return ctx.path(f"{dataset}_{scale}.0.txt"), walls


# --------------------------------------------------------------- decompose
_BLOCKS = re.compile(r"\bblocks=(\d+)")


def run_decompose(ctx: Ctx, name: str) -> Outcome:
    spec = DECOMPOSE[name]
    out = Outcome()
    inp, setup_walls = generate_input(ctx, out, spec.dataset, spec.scale)
    ref = ctx.cache.for_file(inp)
    result = ctx.path("phi.txt")
    argv = ctx.repro("decompose", inp, *spec.method_args, "-o", result)
    walls: List[float] = []
    rss: List[float] = []
    blocks: List[int] = []
    property_checked = False
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        # start another invocation only if it should end in the window
        if out.attempted >= MIN_INVOCATIONS and (
            not walls or elapsed + median(walls) > ctx.seconds
        ):
            break
        if os.path.exists(result):
            os.unlink(result)
        done, log = ctx.run(argv, "decompose.log")
        out.attempted += 1
        if done.returncode != 0:
            out.failed += 1
            late = " after the time limit" if done.timed_out else ""
            out.problem(f"decompose exited {done.returncode}{late}: "
                        f"{log[-300:]}")
            continue
        walls.append(done.wall_s)
        rss.append(done.maxrss_kb / 1024.0)
        with open(result, "rb") as fh:
            data = fh.read()
        why = ref.check_output(data)
        if why:
            out.problem(why)
        if not property_checked:
            why = ref.check_property(data)
            if why:
                out.problem(why)
            property_checked = True
        m = _BLOCKS.search(log)
        if m:
            blocks.append(int(m.group(1)))
    if not walls:
        return out
    wall = median(walls)
    out.metrics = {
        "setup_s": (median(setup_walls), "s"),
        "wall_s": (wall, "s"),
        "p50_ms": (wall * 1000.0, "ms"),
        "ops_per_s": (len(walls) / sum(walls), "ops/s"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    out.notes.append(
        f"{name}: {spec.dataset}@{spec.scale} "
        f"({ref.meta['edges']} edges, {ref.meta['triangles']} triangles, "
        f"kmax {ref.meta['kmax']}); {len(walls)} invocations of "
        f"repro decompose {' '.join(spec.method_args)}"
    )
    out.notes.append(
        "  wall_s median %.4f s (min %.4f, max %.4f); peak_rss_mb %.1f MB"
        % (wall, min(walls), max(walls), median(rss))
    )
    if blocks:
        out.notes.append(
            f"  block_ios {median(blocks):.0f} blocks (IOStats reads + "
            f"writes; values seen: {sorted(set(blocks))})"
        )
    return out


# ------------------------------------------------------------------- serve
class Server:
    """One ``repro serve`` process on a data directory."""

    def __init__(self, ctx: Ctx, data_dir: str, graph: Optional[str],
                 extra: Sequence[str] = ()) -> None:
        self.ctx = ctx
        self.data_dir = data_dir
        args = ["serve"] + ([graph] if graph else []) + \
            ["--data", data_dir, "--workers", "0", *extra]
        self.argv = ctx.repro(*args)
        self.proc = None
        self.host = ""
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for ``/readyz`` 200; seconds from spawn."""
        os.makedirs(self.data_dir, exist_ok=True)
        try:
            os.unlink(os.path.join(self.data_dir, "endpoint.json"))
        except FileNotFoundError:
            pass
        self.proc = self.ctx.children.spawn(
            self.argv, env=self.ctx.env, cwd=self.ctx.root,
            log_path=self.data_dir + ".log",
        )
        t0 = self.ctx.children.started_at(self.proc)
        deadline = t0 + PROCESS_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self._exited():
                raise RuntimeError(
                    f"repro serve exited before ready: {self.log_tail()}")
            if self._ready():
                return time.perf_counter() - t0
            time.sleep(0.005)
        raise RuntimeError(f"repro serve not ready: {self.log_tail()}")

    def _exited(self) -> bool:
        info = os.waitid(os.P_PID, self.proc.pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT)
        return info is not None

    def _ready(self) -> bool:
        try:
            with open(os.path.join(self.data_dir, "endpoint.json"),
                      encoding="utf-8") as fh:
                ep = json.load(fh)
        except (OSError, ValueError):
            return False
        self.host, self.port = ep["host"], ep["port"]
        try:
            status, _ = self.get("/readyz", timeout=1.0)
        except (OSError, http.client.HTTPException):
            return False
        return status == 200

    def get(self, path: str, timeout: float = 30.0) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def kill(self):
        return self.ctx.children.kill(self.proc)

    def stop(self):
        """SIGTERM, the clean shutdown; the ``Exited`` record."""
        self.ctx.children.signal_group(self.proc, signal.SIGTERM)
        return self.ctx.children.wait(self.proc, timeout=30.0)

    def log_tail(self) -> str:
        try:
            with open(self.data_dir + ".log", encoding="utf-8",
                      errors="replace") as fh:
                return fh.read()[-500:]
        except OSError:
            return ""


@dataclass
class ServeLoad:
    """The seeded operation plan of serve-mixed."""

    edges: List[Tuple[int, int]]
    vertices: List[int]
    write_edges: List[List[Tuple[int, int]]]

    @classmethod
    def plan(cls, edges: List[Tuple[int, int]], seed: int) -> "ServeLoad":
        rng = random.Random(f"serve-plan:{seed}")
        present = set(edges)
        adj: Dict[int, List[int]] = {}
        for u, v in edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        hubs = sorted(x for x, nb in adj.items() if len(nb) >= 2)
        chosen: List[Tuple[int, int]] = []
        seen = set()
        need = CLIENTS * WRITE_EDGES_PER_CLIENT
        while len(chosen) < need:
            v = rng.choice(hubs)
            a, b = rng.sample(adj[v], 2)
            e = (a, b) if a < b else (b, a)
            if e not in present and e not in seen:
                seen.add(e)
                chosen.append(e)  # closes the triangle (a, v, b)
        per = WRITE_EDGES_PER_CLIENT
        return cls(list(edges), sorted(adj),
                   [chosen[i * per:(i + 1) * per] for i in range(CLIENTS)])

    def rounds(self, client: int, seed: int):
        """Endless rounds of ``(kind, arg)`` operations for one client."""
        rng = random.Random(f"serve-ops:{seed}:{client}")
        writes = self.write_edges[client]
        r = 0
        while True:
            kinds = list(ROUND)
            rng.shuffle(kinds)
            i, d = kinds.index("insert"), kinds.index("delete")
            if d < i:
                kinds[i], kinds[d] = kinds[d], kinds[i]
            e = writes[r % len(writes)]
            ops = []
            for kind in kinds:
                if kind == "read":
                    ops.append((kind, rng.choice(self.edges)))
                elif kind == "community":
                    ops.append((kind, rng.choice(self.vertices)))
                else:
                    ops.append((kind, e))
            yield ops
            r += 1


def _request(conn: http.client.HTTPConnection, kind: str, arg):
    if kind == "read":
        conn.request("GET", "/edge/%d/%d/trussness" % arg)
    elif kind == "community":
        conn.request("GET", "/community/%d" % arg)
    else:
        sign = "+" if kind == "insert" else "-"
        conn.request("POST", "/updates",
                     body=("%s %d %d\n" % (sign, arg[0], arg[1])).encode())
    resp = conn.getresponse()
    return resp.status, resp.read()


def _check_reply(kind: str, arg, status: int, body: bytes) -> Optional[str]:
    """Why a reply is malformed, or ``None``."""
    if status != 200:
        return f"{kind} {arg}: HTTP {status} {body[:200]!r}"
    try:
        obj = json.loads(body)
    except ValueError:
        return f"{kind} {arg}: body is not JSON"
    if kind == "read":
        k = obj.get("trussness")
        if not (isinstance(k, int) and k >= 2 and
                (obj.get("u"), obj.get("v")) == tuple(arg)):
            return f"read {arg}: malformed reply {obj!r}"
    elif kind == "community":
        if not (obj.get("vertex") == arg and isinstance(obj.get("k"), int)
                and obj["k"] >= 2 and obj.get("num_edges", 0) >= 1):
            return f"community {arg}: malformed reply {str(obj)[:200]}"
    elif obj.get("applied") != 1:
        return f"{kind} {arg}: not applied: {obj!r}"
    return None


class LoadResult:
    def __init__(self) -> None:
        self.lat: Dict[str, List[float]] = {
            "read": [], "community": [], "insert": [], "delete": []}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.elapsed = 0.0
        #: acknowledged writes, in order per client
        self.acked: List[List[Tuple[str, Tuple[int, int]]]] = [
            [] for _ in range(CLIENTS)]
        self._lock = threading.Lock()

    def record(self, client: int, kind: str, arg, seconds: float,
               why: Optional[str]) -> None:
        with self._lock:
            self.attempted += 1
            if why is None:
                self.lat[kind].append(seconds)
                if kind in ("insert", "delete"):
                    self.acked[client].append((kind, arg))
            else:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(why)

    def writes(self) -> List[float]:
        return self.lat["insert"] + self.lat["delete"]

    def edge_set(self, base: Sequence[Tuple[int, int]]):
        edges = set(base)
        for acked in self.acked:
            for kind, e in acked:
                (edges.add if kind == "insert" else edges.discard)(e)
        return sorted(edges)


def drive_load(host: str, port: int, plan: ServeLoad, seed: int,
               seconds: float) -> LoadResult:
    """Closed loop: ``CLIENTS`` keep-alive connections, whole rounds."""
    res = LoadResult()
    start = threading.Barrier(CLIENTS + 1)
    t_end = [0.0]

    def client(idx: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        rounds = plan.rounds(idx, seed)
        start.wait()
        try:
            while time.perf_counter() < t_end[0]:
                for kind, arg in next(rounds):
                    t0 = time.perf_counter()
                    try:
                        status, body = _request(conn, kind, arg)
                        why = _check_reply(kind, arg, status, body)
                    except (OSError, http.client.HTTPException) as exc:
                        why = f"{kind} {arg}: {exc!r}"
                        conn.close()
                        conn = http.client.HTTPConnection(
                            host, port, timeout=30.0)
                    res.record(idx, kind, arg, time.perf_counter() - t0, why)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    t0 = time.perf_counter()
    t_end[0] = t0 + seconds
    start.wait()
    for t in threads:
        t.join()
    res.elapsed = time.perf_counter() - t0
    return res


def latency_notes(res: LoadResult) -> List[str]:
    """Client-side latency lines: median plus the supported tail."""
    lines = []
    for label, samples in (("read", res.lat["read"]),
                           ("community", res.lat["community"]),
                           ("write", res.writes())):
        if not samples:
            continue
        ms = [s * 1000.0 for s in samples]
        text = f"  {label}_p50_ms {median(ms):.3f} ms"
        q = tail_quantile(len(ms))
        if q is not None:
            text += f", {label}_p{q}_ms {percentile(ms, q):.3f} ms"
        lines.append(text + f" (n={len(ms)})")
    return lines


def check_dump(server: Server, ref: Reference, when: str, out: Outcome,
               check_property: bool = False) -> None:
    status, body = server.get("/dump")
    if status != 200:
        out.problem(f"/dump {when}: HTTP {status}")
        return
    whys = [ref.check_output(body)]
    if check_property:
        whys.append(ref.check_property(body))
    for why in whys:
        if why:
            out.problem(f"/dump {when}: {why}")


def run_serve(ctx: Ctx, name: str) -> Outcome:
    out = Outcome()
    dataset, scale = SERVE_DATASET
    done, log = ctx.run(
        ctx.repro("generate", dataset, ctx.path("graph.txt"),
                  "--scale", str(scale)), "generate.log")
    if done.returncode != 0:
        raise RuntimeError(f"repro generate failed: {log[-500:]}")
    graph = ctx.path("graph.txt")
    base = read_edges(graph)
    plan = ServeLoad.plan(base, ctx.seed)

    # set-up: cold starts on fresh data directories; the last one serves
    setup_walls = []
    server = None
    for i in range(SETUP_REPEATS):
        if server is not None:
            stopped = server.stop()
            if stopped.returncode != 0:
                out.problem(f"repro serve exited {stopped.returncode} "
                            "on SIGTERM")
        server = Server(ctx, ctx.path(f"data{i}"), graph)
        setup_walls.append(server.start())

    res = drive_load(server.host, server.port, plan, ctx.seed, ctx.seconds)
    out.attempted, out.failed = res.attempted, res.failed
    for why in res.problems:
        out.problem(why)
    ref = ctx.cache.for_edges(res.edge_set(base))
    check_dump(server, ref, "before the kill", out, check_property=True)

    recoveries = []
    loaded_rss = None
    for cycle in range(RECOVERY_CYCLES):
        killed = server.kill()
        if loaded_rss is None:
            loaded_rss = killed.maxrss_kb / 1024.0
        server = Server(ctx, server.data_dir, None)
        recoveries.append(server.start())
        check_dump(server, ref, f"after recovery {cycle + 1}", out)
    stopped = server.stop()
    if stopped.returncode != 0:
        out.problem(f"repro serve exited {stopped.returncode} on SIGTERM")

    reads = res.lat["read"]
    out.metrics = {
        "setup_s": (median(setup_walls), "s"),
        "wall_s": (median(recoveries), "s"),
        "p50_ms": (median(reads) * 1000.0 if reads else 0.0, "ms"),
        "ops_per_s": (res.attempted / res.elapsed, "ops/s"),
        "peak_rss_mb": (loaded_rss, "MB"),
    }
    out.notes.append(
        f"{name}: {dataset}@{scale} ({len(base)} edges, "
        f"{ref.meta['triangles']} triangles after the writes); "
        f"{res.attempted} requests in {res.elapsed:.1f} s from "
        f"{CLIENTS} keep-alive clients in a closed loop"
    )
    out.notes.extend(latency_notes(res))
    out.notes.append(
        "  recovery_s median %.4f s over %d SIGKILL/restart cycles "
        "(min %.4f, max %.4f); ops_per_s %.2f; peak_rss_mb %.1f MB"
        % (median(recoveries), len(recoveries), min(recoveries),
           max(recoveries), res.attempted / res.elapsed, loaded_rss)
    )
    return out


def run_workload(ctx: Ctx, name: str) -> Outcome:
    if name in DECOMPOSE:
        return run_decompose(ctx, name)
    return run_serve(ctx, name)
