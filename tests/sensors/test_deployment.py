"""Unit tests for sensor nodes and deployments."""

import numpy as np
import pytest

from repro.network import Battery, RadioEnergyModel
from repro.sensors import Reading, SensorDeployment, SensorNode, UniformField, FireField
from repro.simkernel import RandomStreams, Simulator


def sample_every_sensor(dep):
    """One ``sample_sensor`` reading from each living sensor."""
    readings = [dep.sample_sensor(i) for i in dep.sensor_ids]
    return [r for r in readings if r is not None]


def make_node(battery_j=1.0, noise=0.0, seed=0):
    return SensorNode(
        0,
        np.array([0.0, 0.0]),
        Battery(battery_j),
        RadioEnergyModel(),
        np.random.default_rng(seed),
        noise_std=noise,
    )


class TestSensorNode:
    def test_sample_returns_field_value_noiseless(self):
        node = make_node()
        r = node.sample(UniformField(42.0), 3.0)
        assert r is not None
        assert r.value == pytest.approx(42.0)
        assert r.time == 3.0
        assert r.sensor_id == 0
        assert node.samples_taken == 1

    def test_sample_noise_has_spread(self):
        node = make_node(noise=1.0)
        values = [node.sample(UniformField(0.0), 0.0).value for _ in range(200)]
        assert np.std(values) > 0.5

    def test_sampling_drains_battery(self):
        node = make_node(battery_j=1.0)
        node.sample(UniformField(0.0), 0.0)
        assert node.battery.consumed == pytest.approx(RadioEnergyModel().e_sense)

    def test_dead_node_returns_none(self):
        node = make_node(battery_j=0.0)
        assert node.sample(UniformField(0.0), 0.0) is None

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            make_node(noise=-1.0)

    def test_reading_size_constant(self):
        assert Reading.SIZE_BITS == 64.0


class TestSensorDeployment:
    def make(self, n=9, **kw):
        return SensorDeployment(n, 30.0, UniformField(25.0), streams=RandomStreams(1), **kw)

    def test_id_layout(self):
        dep = self.make(n=9, n_handhelds=2)
        assert dep.sensor_ids == list(range(9))
        assert dep.base_station_id == 9
        assert dep.handheld_ids == [10, 11]
        assert dep.topology.n_nodes == 12

    def test_topology_connected(self):
        dep = self.make()
        assert dep.topology.is_connected(among=dep.sensor_ids + [dep.base_station_id])

    def test_sample_sensor_returns_one_per_sensor(self):
        dep = self.make()
        readings = sample_every_sensor(dep)
        assert [r.sensor_id for r in readings] == dep.sensor_ids
        assert all(r.value == pytest.approx(25.0, abs=3.0) for r in readings)

    def test_sample_sensor_skips_dead(self):
        dep = self.make()
        dep.topology.kill(3)
        assert dep.sample_sensor(3) is None
        assert len(sample_every_sensor(dep)) == 8

    def test_sample_sensor(self):
        dep = self.make()
        r = dep.sample_sensor(4)
        assert r.sensor_id == 4
        dep.topology.kill(4)
        assert dep.sample_sensor(4) is None

    def test_true_values_free_and_noiseless(self):
        dep = self.make()
        before = dep.total_sensor_energy_consumed()
        vals = dep.true_values()
        assert dep.total_sensor_energy_consumed() == before
        assert np.allclose(vals, 25.0)

    def test_sensor_batteries_finite_base_infinite(self):
        dep = self.make()
        assert dep.network.nodes[0].battery.capacity == 1.0
        assert dep.network.nodes[dep.base_station_id].battery.capacity == float("inf")

    def test_battery_depletion_kills_node_on_sample(self):
        dep = SensorDeployment(
            4, 10.0, UniformField(0.0), streams=RandomStreams(0), battery_j=1e-9, n_handhelds=0
        )
        sample_every_sensor(dep)
        assert sample_every_sensor(dep) == []
        assert dep.dead_sensor_count() == 4
        assert dep.alive_sensor_ids() == []

    def test_sensing_deaths_are_counted(self):
        """A sensor that sensing drains keeps its last reading and counts
        under ``net.node_deaths``, like a radio-drained node."""
        dep = SensorDeployment(
            4, 10.0, UniformField(0.0), streams=RandomStreams(0), battery_j=1e-9, n_handhelds=0
        )
        readings = sample_every_sensor(dep)
        assert [r.sensor_id for r in readings] == [0, 1, 2, 3]
        assert dep.monitor.counter("net.node_deaths").value == 4
        sample_every_sensor(dep)  # the dead are not counted twice
        assert dep.monitor.counter("net.node_deaths").value == 4

    def test_energy_accounting(self):
        dep = self.make()
        readings = sample_every_sensor(dep)
        assert len(readings) == 9
        assert all(r.value == pytest.approx(25.0, abs=3.0) for r in readings)
        expected = 9 * RadioEnergyModel().e_sense
        assert dep.total_sensor_energy_consumed() == pytest.approx(expected)
        assert dep.min_sensor_fraction_remaining() == pytest.approx(1.0 - expected / 9)

    def test_random_placement_reproducible(self):
        a = SensorDeployment(5, 20.0, streams=RandomStreams(3), placement="random")
        b = SensorDeployment(5, 20.0, streams=RandomStreams(3), placement="random")
        assert np.array_equal(a.topology.positions, b.topology.positions)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            self.make(placement="ring")

    def test_needs_a_sensor(self):
        with pytest.raises(ValueError):
            SensorDeployment(0, 10.0)

    def test_fire_field_integration(self):
        streams = RandomStreams(5)
        field = FireField(30.0, streams.get("fire"))
        dep = SensorDeployment(9, 30.0, field, streams=streams)
        dep.sim.run(until=300.0)
        readings = sample_every_sensor(dep)
        # at t=300 the fire has grown: some sensor must read well above ambient
        assert max(r.value for r in readings) > 50.0

    def test_shared_simulator(self):
        sim = Simulator()
        dep = SensorDeployment(4, 10.0, sim=sim, streams=RandomStreams(0))
        assert dep.sim is sim
