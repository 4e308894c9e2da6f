"""Route-cache correctness: cached answers must equal uncached BFS.

The cache memoizes one BFS per root (discovery order and predecessors)
behind the topology's generation counter; every mutation (kill, revive,
move, link blocking) bumps the counter and lazily flushes the cache.
These tests compare every cached answer, dict order included, against an
independent pure-Python BFS oracle under heavy churn, and pin down the
hit/miss/invalidation accounting.
"""

import collections

import numpy as np
import pytest

from repro.network import Topology, record_route_cache_metrics
from repro.simkernel import Monitor


def oracle_bfs(topo: Topology, src: int):
    """Independent BFS over the adjacency matrix: lowest-id expansion,
    exactly the determinism contract the cache relies on."""
    if not topo.is_alive(src):
        return {}
    adj = topo.adjacency
    parent = {src: src}
    queue = collections.deque([src])
    while queue:
        node = queue.popleft()
        for nbr in np.flatnonzero(adj[node]):
            nbr = int(nbr)
            if nbr not in parent and topo.is_alive(nbr):
                parent[nbr] = node
                queue.append(nbr)
    return parent


def oracle_path(topo: Topology, src: int, dst: int):
    if src == dst:
        return [src]  # the kernel's contract, even for a dead node
    if not (topo.is_alive(src) and topo.is_alive(dst)):
        return None
    parent = oracle_bfs(topo, src)
    if dst not in parent:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    return path[::-1]


def line_topology(n=6, spacing=10.0, range_m=12.0):
    pos = np.array([[i * spacing, 0.0] for i in range(n)])
    return Topology(pos, range_m=range_m)


class TestCacheBasics:
    def test_repeat_query_hits(self):
        topo = line_topology()
        first = topo.shortest_path(0, 5)
        stats = topo.route_cache_stats
        assert stats["misses"] == 1 and stats["hits"] == 0
        second = topo.shortest_path(0, 5)
        assert topo.route_cache_stats["hits"] == 1
        assert first == second == [0, 1, 2, 3, 4, 5]

    def test_cached_paths_are_private_copies(self):
        topo = line_topology()
        first = topo.shortest_path(0, 5)
        first.append(999)  # caller mutates its copy
        assert topo.shortest_path(0, 5) == [0, 1, 2, 3, 4, 5]

    def test_one_bfs_serves_all_destinations(self):
        topo = line_topology()
        topo.shortest_path(0, 5)  # the only BFS this test should run
        for dst in (1, 2, 3, 4):
            assert topo.shortest_path(0, dst) == list(range(dst + 1))
        assert topo.route_cache_stats["misses"] == 1

    def test_unreachable_result_is_cached(self):
        topo = line_topology()
        topo.kill(2)
        assert topo.shortest_path(0, 5) is None
        misses = topo.route_cache_stats["misses"]
        assert topo.shortest_path(0, 5) is None
        assert topo.route_cache_stats["misses"] == misses
        assert topo.route_cache_stats["hits"] >= 1

    def test_trivial_queries_bypass_cache(self):
        topo = line_topology()
        assert topo.shortest_path(3, 3) == [3]
        topo.kill(4)
        assert topo.shortest_path(0, 4) is None  # dead endpoint
        assert topo.route_cache_stats["misses"] == 0

    def test_hop_counts_and_bfs_tree_cached(self):
        topo = line_topology()
        hops = topo.hop_counts_from(0)
        tree = topo.bfs_tree(0)
        assert hops[5] == 5 and tree[5] == 4 and tree[0] == 0
        stats = topo.route_cache_stats
        topo.hop_counts_from(0)
        topo.bfs_tree(0)
        assert topo.route_cache_stats["hits"] == stats["hits"] + 2
        # returned mappings are private copies
        topo.hop_counts_from(0).clear()
        assert topo.hop_counts_from(0)[5] == 5


class TestInvalidation:
    def test_kill_invalidates(self):
        topo = line_topology()
        assert topo.shortest_path(0, 5) == [0, 1, 2, 3, 4, 5]
        topo.kill(3)
        assert topo.shortest_path(0, 5) is None
        assert topo.route_cache_stats["invalidations"] == 1

    def test_revive_restores_route(self):
        topo = line_topology()
        topo.kill(3)
        assert topo.shortest_path(0, 5) is None
        topo.revive(3)
        assert topo.shortest_path(0, 5) == [0, 1, 2, 3, 4, 5]

    def test_move_invalidates(self):
        topo = line_topology()
        assert topo.shortest_path(0, 2) == [0, 1, 2]
        d_before = topo.distance(0, 1)
        topo.move(1, np.array([500.0, 0.0]))  # out of everyone's range
        assert topo.shortest_path(0, 2) is None
        assert topo.distance(0, 1) != d_before

    def test_block_links_invalidates(self):
        topo = line_topology()
        assert topo.shortest_path(0, 5) is not None
        topo.block_links([2], [3])
        assert topo.shortest_path(0, 5) is None
        topo.unblock_links([2], [3])
        assert topo.shortest_path(0, 5) == [0, 1, 2, 3, 4, 5]

    def test_invalidation_counted_once_per_flush(self):
        topo = line_topology()
        topo.shortest_path(0, 5)
        topo.kill(3)
        topo.revive(3)  # two version bumps, but the cache flushes lazily
        topo.shortest_path(0, 5)
        assert topo.route_cache_stats["invalidations"] == 1

    def test_mutation_without_queries_never_flushes(self):
        topo = line_topology()
        topo.kill(1)
        topo.revive(1)
        assert topo.route_cache_stats["invalidations"] == 0


class TestChurnEquivalence:
    """Fuzz: interleave queries and mutations; cache must track the oracle."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_random_churn(self, seed):
        for index in ("dense", "grid"):
            for n in (12, 200):
                self.churn(seed, n, index)

    @staticmethod
    def churn(seed, n, index):
        rng = np.random.default_rng(seed)
        # keep the 12-node density (60 m square, 22 m range) at every size
        side = 60.0 * np.sqrt(n / 12)
        topo = Topology(rng.uniform(0.0, side, size=(n, 2)), range_m=22.0, index=index)
        blocked = []
        for _ in range(300):
            op = rng.integers(0, 8)
            if op == 0:
                topo.kill(int(rng.integers(0, n)))
            elif op == 1:
                topo.revive(int(rng.integers(0, n)))
            elif op == 2:
                topo.move(int(rng.integers(0, n)), rng.uniform(0.0, side, 2))
            elif op == 3 and len(blocked) < 4:
                a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
                if a != b:
                    topo.block_links([a], [b])
                    blocked.append((a, b))
            elif op == 4 and blocked:
                a, b = blocked.pop()
                topo.unblock_links([a], [b])
            else:
                src, dst = int(rng.integers(0, n)), int(rng.integers(0, n))
                assert topo.shortest_path(src, dst) == oracle_path(topo, src, dst)
                if not topo.is_alive(src):
                    assert list(topo.hop_counts_from(src).items()) == [(src, 0)]
                    assert list(topo.bfs_tree(src).items()) == [(src, src)]
                    continue
                # the oracle's dict is in discovery order, root first;
                # callers sum energy in dict order, so order must match
                parent = oracle_bfs(topo, src)
                hops = {}
                for node in parent:
                    steps, cursor = 0, node
                    while cursor != src:
                        cursor = parent[cursor]
                        steps += 1
                    hops[node] = steps
                assert list(topo.hop_counts_from(src).items()) == list(hops.items())
                tree = [(node, up) for node, up in parent.items() if node != src]
                tree.append((src, src))
                assert list(topo.bfs_tree(src).items()) == tree
        stats = topo.route_cache_stats
        assert stats["hits"] > 0 and stats["invalidations"] > 0


class TestMetricsExport:
    def test_record_route_cache_metrics_idempotent(self):
        topo = line_topology()
        monitor = Monitor()
        topo.shortest_path(0, 5)
        topo.shortest_path(0, 5)
        record_route_cache_metrics(topo, monitor)
        record_route_cache_metrics(topo, monitor)  # no double counting
        assert monitor.counter("net.route_cache.hits").value == 1
        assert monitor.counter("net.route_cache.misses").value == 1
        topo.shortest_path(0, 4)
        record_route_cache_metrics(topo, monitor)
        assert monitor.counter("net.route_cache.hits").value == 2
