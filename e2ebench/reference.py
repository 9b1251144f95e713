"""The correctness reference, computed without the program under test.

Nothing here imports ``repro``.  For an edge-list file the reference
is:

* the canonical edge list (``u < v``, no self loops, no duplicates),
  sorted — the order of the program's ``u v phi`` output lines;
* every edge's trussness, from a textbook bucket-queue peel (Wang and
  Cheng's Algorithm 2) over Python sets;
* every triangle, as three edge ids, for the property check.

:class:`ReferenceCache` keeps these by the SHA-256 of the canonical
edge list, so a run pays for them once per edge set and outside its
timed region.
``python3 e2ebench/run.py --refresh-reference`` rebuilds the cache
from scratch and cross-checks the small input against networkx.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

Edge = Tuple[int, int]


def read_edges(path: str) -> List[Edge]:
    """Sorted canonical edges of a SNAP-style ``u v`` edge-list file."""
    edges = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line[0] in "#%":
                continue
            a, b = line.split()[:2]
            u, v = int(a), int(b)
            if u != v:
                edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


def _adjacency(edges: Iterable[Edge]) -> Dict[int, set]:
    adj: Dict[int, set] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def trussness(edges: Sequence[Edge]) -> List[int]:
    """phi(e) for every edge, aligned with ``edges``.

    Level by level: every live edge whose support is at most ``k - 2``
    gets trussness ``k`` and is removed; removing it decrements the
    support of the two other edges of each triangle it closed.  An
    edge already at or below ``k - 2`` is not decremented further — it
    leaves at this level whatever its support becomes.
    """
    m = len(edges)
    adj = _adjacency(edges)
    index = {e: i for i, e in enumerate(edges)}
    sup = [len(adj[u] & adj[v]) for u, v in edges]
    bins: List[set] = [set() for _ in range(max(sup, default=0) + 1)]
    for i, s in enumerate(sup):
        bins[s].add(i)
    phi = [0] * m
    k, low, left = 2, 0, m
    while left:
        while not bins[low]:
            low += 1
        if low > k - 2:
            k = low + 2
        i = bins[low].pop()
        left -= 1
        phi[i] = k
        u, v = edges[i]
        au, av = adj[u], adj[v]
        for w in au & av:
            for a, b in ((u, w), (v, w)):
                j = index[(a, b) if a < b else (b, a)]
                s = sup[j]
                if s > k - 2:
                    bins[s].discard(j)
                    sup[j] = s - 1
                    bins[s - 1].add(j)
        au.discard(v)
        av.discard(u)
    return phi


def triangles(edges: Sequence[Edge]) -> np.ndarray:
    """Every triangle as a row of three edge ids (``int32``)."""
    adj = _adjacency(edges)
    index = {e: i for i, e in enumerate(edges)}
    rows: List[int] = []
    for i, (u, v) in enumerate(edges):
        for w in adj[u] & adj[v]:
            if w > v:  # u < v < w: each triangle once
                rows += (i, index[(u, w)], index[(v, w)])
    return np.asarray(rows, dtype=np.int32).reshape(-1, 3)


def format_lines(edges: Sequence[Edge], phi: Sequence[int]) -> bytes:
    """The ``u v phi`` text both ``decompose -o`` and ``/dump`` emit."""
    return "".join(
        f"{u} {v} {k}\n" for (u, v), k in zip(edges, phi)
    ).encode()


def parse_lines(data: bytes) -> np.ndarray:
    """``u v phi`` text as an ``(m, 3)`` int64 array."""
    flat = np.array(data.split(), dtype=np.int64)
    if flat.size % 3:
        raise ValueError("output is not whole 'u v phi' lines")
    return flat.reshape(-1, 3)


def property_violations(tri: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Edge ids that break the trussness certificate.

    An edge with trussness ``k`` must lie in at least ``k - 2``
    triangles whose other two edges both have trussness ``>= k``
    (Definition 2: it survives in the k-truss).  Returns the ids of the
    edges that do not.
    """
    m = phi.size
    count = np.zeros(m, dtype=np.int64)
    if tri.size:
        p = phi[tri]  # (t, 3) trussness of each triangle's edges
        for me, o1, o2 in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            ok = (p[:, o1] >= p[:, me]) & (p[:, o2] >= p[:, me])
            count += np.bincount(tri[ok, me], minlength=m)
    return np.flatnonzero((phi < 2) | (count < phi - 2))


def first_difference(got: bytes, want: bytes) -> str:
    """Where two ``u v phi`` texts first differ, for the failure report."""
    a, b = got.split(b"\n"), want.split(b"\n")
    for lineno, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            return f"line {lineno}: got {x.decode()!r}, want {y.decode()!r}"
    return f"line count: got {len(a) - 1}, want {len(b) - 1}"


class Reference:
    """One input's reference: output text, phi per edge, triangles."""

    def __init__(self, text: bytes, phi: np.ndarray, tri: np.ndarray,
                 meta: dict) -> None:
        self.text = text
        self.phi = phi
        self.tri = tri
        self.meta = meta

    def check_output(self, data: bytes) -> Optional[str]:
        """``None`` if ``data`` is the reference output, else why not."""
        if data == self.text:
            return None
        return "output differs from the reference at " + \
            first_difference(data, self.text)

    def check_property(self, data: bytes) -> Optional[str]:
        """Check the certificate on a program output over these edges."""
        rows = parse_lines(data)
        if rows.shape[0] != self.phi.size:
            return (f"property check: {rows.shape[0]} output lines for "
                    f"{self.phi.size} edges")
        bad = property_violations(self.tri, rows[:, 2])
        if bad.size:
            u, v, k = rows[bad[0]]
            return (f"property check: {bad.size} edges break it, first "
                    f"{u} {v} with trussness {k}")
        return None


def compute(edges: Sequence[Edge]) -> Reference:
    phi = trussness(edges)
    tri = triangles(edges)
    arr = np.asarray(phi, dtype=np.int64)
    meta = {
        "edges": len(edges),
        "vertices": len({x for e in edges for x in e}),
        "triangles": int(tri.shape[0]),
        "kmax": int(arr.max()) if arr.size else 2,
    }
    return Reference(format_lines(edges, phi), arr, tri, meta)


class ReferenceCache:
    """References on disk, keyed by the SHA-256 of the edge list."""

    def __init__(self, root: str) -> None:
        self.root = root

    def _paths(self, digest: str) -> Tuple[str, str, str, str]:
        base = os.path.join(self.root, digest)
        return (base + ".txt", base + ".phi.npy", base + ".tri.npy",
                base + ".json")

    @staticmethod
    def digest_of_edges(edges: Sequence[Edge]) -> str:
        h = hashlib.sha256()
        for u, v in edges:
            h.update(b"%d %d\n" % (u, v))
        return h.hexdigest()

    def for_file(self, path: str) -> Reference:
        return self.for_edges(read_edges(path))

    def for_edges(self, edges: Sequence[Edge]) -> Reference:
        digest = self.digest_of_edges(edges)
        text_p, phi_p, tri_p, meta_p = self._paths(digest)
        try:
            with open(text_p, "rb") as fh:
                text = fh.read()
            with open(meta_p, encoding="utf-8") as fh:
                meta = json.load(fh)
            return Reference(text, np.load(phi_p), np.load(tri_p), meta)
        except (OSError, ValueError):
            pass
        ref = compute(edges)
        os.makedirs(self.root, exist_ok=True)
        # written under temporary names, renamed last: a run killed
        # mid-write leaves no half-written entry behind
        for path, write in (
            (phi_p, lambda fh: np.save(fh, ref.phi)),
            (tri_p, lambda fh: np.save(fh, ref.tri)),
            (text_p, lambda fh: fh.write(ref.text)),
            (meta_p, lambda fh: fh.write(json.dumps(ref.meta).encode())),
        ):
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "wb") as fh:
                write(fh)
            os.replace(tmp, path)
        return ref


def networkx_agrees(edges: Sequence[Edge], phi: Sequence[int]) -> bool:
    """Cross-check a small reference against ``networkx.k_truss``.

    For every k, the edges with reference trussness ``>= k`` must be
    exactly the edge set of networkx's k-truss.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_edges_from(edges)
    for k in range(3, max(phi, default=2) + 1):
        want = {e for e, p in zip(edges, phi) if p >= k}
        got = {(a, b) if a < b else (b, a) for a, b in nx.k_truss(g, k).edges}
        if got != want:
            return False
    return True
