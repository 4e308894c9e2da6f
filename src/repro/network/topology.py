"""Connectivity graph over node positions.

:class:`Topology` maintains the unit-disc adjacency over the current node
positions and answers the graph queries the routing protocols need
(neighbors, shortest paths, BFS trees, connectivity).  Two interchangeable
adjacency backends sit behind one API:

* ``index="dense"`` -- the adjacency is one vectorized ``O(n^2)`` distance
  pass, recomputed wholesale when positions change.  At the paper's
  scenario scales (up to a few hundred nodes) this is cheapest and
  trivially correct.
* ``index="grid"`` -- a :class:`~repro.network.spatial.GridHashIndex`
  (cell size = radio range) answers neighbor queries in O(local density)
  and absorbs mobility *incrementally*: a ``move``/``move_all`` re-buckets
  only the nodes whose cell changed, and ``kill``/``revive`` touch no
  index state at all.  This is what lets E7-XL run 10k-100k nodes.

``index="auto"`` (the default) picks dense below
:data:`GRID_AUTO_THRESHOLD` nodes and grid above.  The two backends are
*bit-identical*: every surviving neighbor passed the same ``np.hypot``
comparison, neighbor lists are ascending, and the fuzz tests in
``tests/network/test_spatial_index.py`` drive both through the same
churn and compare every query.

Route cache
-----------
Graph queries are memoized behind the :attr:`Topology.version` generation
counter: ``kill``/``revive``/``move``/``block_links`` (mobility epochs,
battery deaths, partitions) bump the counter, and the first query at a new
generation discards every cached answer.

Within a generation, route queries read one CSR snapshot of the
adjacency (:attr:`Topology.csr`), built lazily from the ascending
neighbor rows -- ``np.nonzero`` of the dense matrix, or each node's
neighbor list in grid mode -- as float64 data with int32
``indptr``/``indices``, the form :mod:`scipy.sparse.csgraph` accepts
without copying.  One C-level
:func:`~scipy.sparse.csgraph.breadth_first_order` per (generation, root)
yields the discovery order and predecessor array, cached as arrays;
:meth:`Topology.shortest_path` walks the predecessors, and
:meth:`Topology.bfs_tree` / :meth:`Topology.hop_counts_from` build their
dicts from the arrays on each call.  On an unchanged topology a relayed
hop therefore answers its route query without re-running BFS -- the
dominant cost of E2/E3-style workloads, where every epoch rebuilds the
same aggregation tree.

Answers equal those of a pure-Python FIFO BFS that expands neighbors in
increasing id order, dict order included: ``hop_counts_from`` lists nodes
in BFS discovery order, root first, and ``bfs_tree`` lists them in
discovery order with the root last.  Callers add per-node energy in dict
iteration order, so the order is part of the contract.

Hit/miss/invalidation totals are kept on the topology
(:attr:`route_cache_hits` and friends).  A query misses the first time
its answer form -- a parent map (``shortest_path``, ``bfs_tree``) or hop
counts (``hop_counts_from``) -- is asked of a root in a generation, and
hits afterwards.  :func:`repro.network.network.record_route_cache_metrics`
folds the totals into a :class:`~repro.simkernel.monitor.Monitor` under
the canonical ``net.route_cache.*`` names.
"""

from __future__ import annotations

import typing

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from repro.network.geometry import (
    as_positions,
    distances_from,
    neighbors_within,
)
from repro.network.spatial import GridHashIndex

#: ``index="auto"`` switches from the dense matrix to the grid hash above
#: this many nodes (dense recompute is ~4M floats here; past that the
#: O(n^2) pass starts to dominate mobility ticks).
GRID_AUTO_THRESHOLD = 2048


class Topology:
    """Dynamic unit-disc topology.

    Parameters
    ----------
    positions:
        Initial ``(n, 2)`` node positions in metres.
    range_m:
        Communication radius of the unit-disc model.
    index:
        Adjacency backend: ``"auto"`` (default), ``"dense"``, or
        ``"grid"``.  Backends answer every query bit-identically; see the
        module docstring.
    """

    def __init__(self, positions: np.ndarray, range_m: float, *,
                 index: str = "auto") -> None:
        self._positions = as_positions(positions).copy()
        if range_m <= 0:
            raise ValueError("range_m must be positive")
        self.range_m = float(range_m)
        if index == "auto":
            index = "grid" if len(self._positions) > GRID_AUTO_THRESHOLD else "dense"
        if index not in ("dense", "grid"):
            raise ValueError(f"index must be 'auto', 'dense' or 'grid', got {index!r}")
        self.index_kind = index
        self._alive = np.ones(len(self._positions), dtype=bool)
        #: Severed links: symmetric ``(lo, hi)`` id pair -> stack depth.
        #: A dict, not an (n, n) matrix, so partitions cost O(blocked
        #: pairs) memory at any population size.
        self._blocked: dict[tuple[int, int], int] = {}
        self._adj: np.ndarray | None = None
        self._grid = GridHashIndex(self._positions, self.range_m) if index == "grid" else None
        self._version = 0
        # per-generation neighbor-list cache (grid mode; dense mode reads
        # rows straight off the cached matrix)
        self._nbr_cache: dict[int, np.ndarray] = {}
        self._nbr_cache_version = 0
        # route cache: all entries valid only for _cache_version == _version
        self._cache_version = 0
        self._csr: csr_matrix | None = None
        # root -> (BFS discovery order, predecessor per node)
        self._searches: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # roots whose parent map was asked for (hit/miss accounting)
        self._tree_roots: set[int] = set()
        # root -> hop count of each node in its search's discovery order
        self._hops_cache: dict[int, np.ndarray] = {}
        self._dist_cache: dict[tuple[int, int], float] = {}
        #: Route queries answered from an answer form (parent map or hop
        #: counts) already cached for their root in this generation.
        self.route_cache_hits = 0
        #: Route queries that first asked their root for an answer form
        #: in this generation.
        self.route_cache_misses = 0
        #: Times a topology change forced a non-empty cache to be discarded.
        self.route_cache_invalidations = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total number of nodes ever placed (dead ones included)."""
        return len(self._positions)

    @property
    def version(self) -> int:
        """Monotone counter bumped on every topology change."""
        return self._version

    @property
    def positions(self) -> np.ndarray:
        """Current positions (read-only view)."""
        view = self._positions.view()
        view.flags.writeable = False
        return view

    def position_of(self, node: int) -> np.ndarray:
        """Position of one node (copy)."""
        return self._positions[node].copy()

    def is_alive(self, node: int) -> bool:
        """False once :meth:`kill` has been called for the node."""
        return bool(self._alive[node])

    def alive_nodes(self) -> list[int]:
        """Ids of all living nodes."""
        return [int(i) for i in np.flatnonzero(self._alive)]

    def move(self, node: int, position: np.ndarray) -> None:
        """Set one node's position (mobility models call this)."""
        self._positions[node] = np.asarray(position, dtype=np.float64)
        if self._grid is not None:
            self._grid.move(node, self._positions[node])
        self._invalidate()

    def move_all(self, positions: np.ndarray) -> None:
        """Replace all positions at once (bulk mobility step).

        Grid mode re-buckets only the nodes whose cell changed --
        incremental O(moved), not O(n^2)."""
        pos = as_positions(positions)
        if pos.shape != self._positions.shape:
            raise ValueError("positions shape mismatch")
        self._positions[:] = pos
        if self._grid is not None:
            self._grid.move_all(self._positions)
        self._invalidate()

    def kill(self, node: int) -> None:
        """Remove a node from the topology (battery death, destruction).

        Incremental in both backends: a cached dense matrix gets its row
        and column zeroed (O(n), not an O(n^2) recompute), and the grid
        index is untouched (liveness filters at query time).  Route
        caches still invalidate -- reachability changed."""
        if self._alive[node]:
            self._alive[node] = False
            if self._adj is not None:
                self._adj[node, :] = False
                self._adj[:, node] = False
                self._version += 1
            else:
                self._invalidate()

    def revive(self, node: int) -> None:
        """Bring a node back (used by disconnection churn models).

        Like :meth:`kill`, incremental: one O(n) row recompute patches a
        cached dense matrix, bit-identical to a full rebuild."""
        if not self._alive[node]:
            self._alive[node] = True
            if self._adj is not None:
                delta = self._positions - self._positions[node]
                row = np.hypot(delta[:, 0], delta[:, 1]) <= self.range_m
                row &= self._alive
                row[node] = False
                if self._blocked:
                    for (a, b) in self._blocked:
                        if a == node:
                            row[b] = False
                        elif b == node:
                            row[a] = False
                self._adj[node, :] = row
                self._adj[:, node] = row
                self._version += 1
            else:
                self._invalidate()

    @staticmethod
    def _pair(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def block_links(self, group_a: typing.Iterable[int], group_b: typing.Iterable[int]) -> None:
        """Sever every link between two node groups (network partition).

        Nodes stay alive -- only cross-group edges disappear from the
        adjacency, symmetrically.  Blocks stack: a link is usable again
        only once :meth:`unblock_links` has been called as many times as
        it was blocked (independent overlapping partitions compose).
        """
        blocked = self._blocked
        group_b = [int(n) for n in group_b]
        for a in group_a:
            a = int(a)
            for b in group_b:
                if a == b:
                    continue
                key = self._pair(a, b)
                blocked[key] = blocked.get(key, 0) + 1
        self._invalidate()

    def unblock_links(self, group_a: typing.Iterable[int], group_b: typing.Iterable[int]) -> None:
        """Restore links previously severed by :meth:`block_links`."""
        blocked = self._blocked
        group_b = [int(n) for n in group_b]
        for a in group_a:
            a = int(a)
            for b in group_b:
                if a == b:
                    continue
                key = self._pair(a, b)
                depth = blocked.get(key)
                if depth is not None:
                    if depth <= 1:
                        del blocked[key]
                    else:
                        blocked[key] = depth - 1
        self._invalidate()

    def _invalidate(self) -> None:
        self._adj = None
        self._version += 1

    def _route_cache(self) -> None:
        """Discard stale cached answers (lazy, on the next query)."""
        if self._cache_version != self._version:
            if self._searches or self._dist_cache:
                self.route_cache_invalidations += 1
                self._searches.clear()
                self._tree_roots.clear()
                self._hops_cache.clear()
                self._dist_cache.clear()
            self._csr = None
            self._cache_version = self._version

    @property
    def route_cache_stats(self) -> dict[str, int]:
        """Cumulative cache effectiveness: hits, misses, invalidations."""
        return {
            "hits": self.route_cache_hits,
            "misses": self.route_cache_misses,
            "invalidations": self.route_cache_invalidations,
        }

    # ------------------------------------------------------------------
    # adjacency & graph queries
    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> np.ndarray:
        """Boolean ``(n, n)`` adjacency; dead nodes have no edges.

        In grid mode the dense matrix is assembled on demand (tests and
        small-scale callers); above the geometry module's dense cap this
        raises :class:`~repro.network.geometry.PopulationTooLarge` --
        iterate :meth:`neighbors` instead, which stays O(density).
        """
        if self._adj is None:
            adj = neighbors_within(self._positions, self.range_m)
            adj &= self._alive[:, None]
            adj &= self._alive[None, :]
            for (a, b) in self._blocked:
                adj[a, b] = False
                adj[b, a] = False
            self._adj = adj
        return self._adj

    def _neighbor_ids(self, node: int) -> np.ndarray:
        """Living neighbors of ``node``, ascending (both backends)."""
        if self._grid is None:
            return np.flatnonzero(self.adjacency[node])
        if self._nbr_cache_version != self._version:
            self._nbr_cache.clear()
            self._nbr_cache_version = self._version
        cached = self._nbr_cache.get(node)
        if cached is None:
            cached = self._grid_neighbor_ids(node)
            self._nbr_cache[node] = cached
        return cached

    def _grid_neighbor_ids(self, node: int) -> np.ndarray:
        if not self._alive[node]:
            return np.empty(0, dtype=np.intp)
        ids = self._grid.candidates_near(node)
        ids = ids[self._alive[ids]]
        if len(ids):
            delta = self._positions[ids] - self._positions[node]
            ids = ids[np.hypot(delta[:, 0], delta[:, 1]) <= self.range_m]
        if self._blocked and len(ids):
            blocked = self._blocked
            pair = self._pair
            ids = np.asarray([j for j in ids if pair(node, int(j)) not in blocked],
                             dtype=np.intp)
        ids = np.sort(ids)
        return ids

    def neighbors(self, node: int) -> list[int]:
        """Living neighbors of ``node`` within radio range."""
        return [int(i) for i in self._neighbor_ids(node)]

    def degree(self, node: int) -> int:
        """Number of living neighbors."""
        return len(self._neighbor_ids(node))

    def has_edge(self, a: int, b: int) -> bool:
        """True iff a and b are alive and within range of each other."""
        if self._grid is None:
            return bool(self.adjacency[a, b])
        if a == b or not (self._alive[a] and self._alive[b]):
            return False
        if self._blocked and self._pair(a, b) in self._blocked:
            return False
        delta = self._positions[a] - self._positions[b]
        return bool(np.hypot(delta[0], delta[1]) <= self.range_m)

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two nodes (memoized per generation)."""
        self._route_cache()
        key = (a, b) if a <= b else (b, a)
        cached = self._dist_cache.get(key)
        if cached is None:
            delta = self._positions[a] - self._positions[b]
            cached = float(np.hypot(delta[0], delta[1]))
            self._dist_cache[key] = cached
        return cached

    def nearest_to(self, point: np.ndarray, alive_only: bool = True) -> int:
        """Id of the node nearest to ``point``."""
        dists = distances_from(self._positions, np.asarray(point, dtype=np.float64))
        if alive_only:
            dists = np.where(self._alive, dists, np.inf)
        return int(np.argmin(dists))

    @property
    def csr(self) -> csr_matrix:
        """CSR snapshot of the adjacency, built once per generation.

        Rows list living neighbors in ascending id order; dead nodes
        have empty rows.  Every route query of the generation shares the
        snapshot, so callers must not modify it.
        """
        self._route_cache()
        if self._csr is None:
            n = self.n_nodes
            if self._grid is None:
                rows, cols = np.nonzero(self.adjacency)
                counts = np.bincount(rows, minlength=n)
            else:
                nbrs = [self._neighbor_ids(node) for node in range(n)]
                counts = np.fromiter((len(ids) for ids in nbrs), dtype=np.intp, count=n)
                cols = np.concatenate(nbrs) if n else np.empty(0, dtype=np.intp)
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(counts, out=indptr[1:])
            self._csr = csr_matrix(
                (np.ones(len(cols)), cols.astype(np.int32), indptr), shape=(n, n))
        return self._csr

    def _search(self, root: int) -> tuple[np.ndarray, np.ndarray]:
        """``(order, predecessors)`` of the BFS from ``root`` (cached)."""
        found = self._searches.get(root)
        if found is None:
            found = breadth_first_order(self.csr, root, directed=True,
                                        return_predecessors=True)
            self._searches[root] = found
        return found

    def _parents_of(self, root: int) -> tuple[np.ndarray, np.ndarray]:
        """The search behind a parent-map answer, with its accounting."""
        self._route_cache()
        if root in self._tree_roots:
            self.route_cache_hits += 1
        else:
            self.route_cache_misses += 1
            self._tree_roots.add(root)
        return self._search(root)

    def shortest_path(self, src: int, dst: int) -> list[int] | None:
        """Min-hop path from src to dst via BFS, or None if partitioned.

        Walks the predecessor array of the cached BFS from ``src``; ties
        between equal-length paths go to the lowest-id parent.
        """
        if src == dst:
            return [src]
        if not (self._alive[src] and self._alive[dst]):
            return None
        _, pred = self._parents_of(src)
        if pred.item(dst) < 0:
            return None
        path = [dst]
        node = dst
        while node != src:
            node = pred.item(node)
            path.append(node)
        path.reverse()
        return path

    def hop_counts_from(self, root: int) -> dict[int, int]:
        """BFS hop distance from ``root`` to every reachable living node.

        Keys come in BFS discovery order, root first.
        """
        self._route_cache()
        order, pred = self._search(root)
        hops = self._hops_cache.get(root)
        if hops is None:
            self.route_cache_misses += 1
            level = {root: 0}
            parents = pred.tolist()
            for node in order[1:].tolist():
                level[node] = level[parents[node]] + 1
            hops = np.fromiter(level.values(), dtype=np.int32, count=len(level))
            self._hops_cache[root] = hops
        else:
            self.route_cache_hits += 1
        return dict(zip(order.tolist(), hops.tolist()))

    def bfs_tree(self, root: int) -> dict[int, int]:
        """Parent map of a min-hop spanning tree rooted at ``root``.

        The root maps to itself.  Unreachable nodes are absent.  Ties
        between candidate parents are broken by lowest node id, making the
        tree deterministic.  Keys come in BFS discovery order, root last.
        """
        order, pred = self._parents_of(root)
        nodes = order[1:]
        tree = dict(zip(nodes.tolist(), pred[nodes].tolist()))
        tree[root] = root
        return tree

    def is_connected(self, among: typing.Iterable[int] | None = None) -> bool:
        """True iff all living nodes (or ``among``) are mutually reachable."""
        nodes = list(among) if among is not None else self.alive_nodes()
        if len(nodes) <= 1:
            return True
        reached = set(self.hop_counts_from(nodes[0]))
        return all(n in reached for n in nodes)

    def connected_component(self, node: int) -> set[int]:
        """All living nodes reachable from ``node`` (including itself)."""
        return set(self.hop_counts_from(node))
