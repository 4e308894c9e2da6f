"""Tests for the real-computation executor library."""

import numpy as np
import pytest

from repro.composition import HTNPlanner, build_pervasive_domain
from repro.composition.executors import (
    build_stream_mining_providers,
    make_aggregation_executor,
    make_combiner_executor,
    make_decision_tree_executor,
    make_spectrum_executor,
)
from repro.datamining import DecisionTree, LabeledStream, accuracy, partition_stream

D = 8


class TestIndividualExecutors:
    def test_decision_tree_executor(self):
        stream = LabeledStream(D, np.random.default_rng(0), noise=0.0)
        batch = stream.batch(300)
        tree = make_decision_tree_executor()( {}, {"__initial__": batch})
        assert isinstance(tree, DecisionTree)
        X, y = stream.batch(200)
        assert accuracy(tree.predict, X, y) > 0.7

    def test_spectrum_executor_tree_mode(self):
        stream = LabeledStream(D, np.random.default_rng(1), noise=0.0)
        tree = DecisionTree(max_depth=3).fit(*stream.batch(300))
        spectrum = make_spectrum_executor(D)({}, {"learn": tree})
        assert spectrum.shape == (2**D,)
        assert np.sum(spectrum**2) == pytest.approx(1.0)

    def test_spectrum_executor_select_mode(self):
        rng = np.random.default_rng(2)
        spectra = {f"s{i}": rng.normal(size=2**D) for i in range(3)}
        out = make_spectrum_executor(D)({"k_coefficients": 10}, spectra)
        assert np.count_nonzero(out) == 10

    def test_combiner_executor(self):
        spectrum = np.zeros(2**D)
        spectrum[0] = 1.0  # constant +1 function -> label 0
        fn = make_combiner_executor(D)({}, {"select": spectrum})
        X = np.random.default_rng(3).integers(0, 2, size=(20, D), dtype=np.uint8)
        assert np.all(fn.predict(X) == 0)

    def test_aggregation_executor(self):
        ex = make_aggregation_executor()
        assert ex({}, {"in": [1.0, 2.0, 3.0]}) == pytest.approx(2.0)
        assert ex({"func": "MAX"}, {"in": [1.0, 9.0]}) == pytest.approx(9.0)


class TestStreamMiningEconomy:
    @pytest.mark.parametrize("mode", ["centralized", "distributed"])
    def test_full_pipeline_with_real_ml(self, env_factory, mode):
        env = env_factory(mode=mode)
        build_stream_mining_providers(env.platform, env.registry, env.sim, d=D)
        stream = LabeledStream(D, np.random.default_rng(5), noise=0.05)
        X, y = stream.batch(900)
        parts = partition_stream(X, y, 3)
        graph = env.planner.plan("analyze-stream", {"n_partitions": 3})
        initial = {name: parts[i] for i, name in enumerate(graph.sources())}
        results = []
        env.manager.execute(graph, results.append, initial_inputs=initial)
        env.sim.run()
        (r,) = results
        assert r.success
        combined = next(iter(r.outputs.values()))
        X_test, y_test = stream.batch(500)
        assert accuracy(combined.predict, X_test, y_test) > 0.7

    def test_provider_count_and_advertisements(self, env_factory):
        env = env_factory()
        agents = build_stream_mining_providers(env.platform, env.registry, env.sim,
                                               d=D, n_miners=4)
        assert len(agents) == 6
        assert len(env.registry) == 6
        assert env.platform.is_registered("miner-3")
