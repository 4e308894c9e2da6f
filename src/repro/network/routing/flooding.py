"""Flooding dissemination.

Every node that hears the message for the first time rebroadcasts it once.
Reliable and topology-oblivious, but every node transmits -- the energy
baseline that gossip and trees improve on.
"""

from __future__ import annotations

import numpy as np

from repro.network.energy import RadioEnergyModel
from repro.network.radio import RadioModel
from repro.network.routing.base import DisseminationResult
from repro.network.topology import Topology


class Flooding:
    """Analytic flooding model over a snapshot of the topology.

    The analytic form is exact for lossless radios: flooding reaches the
    whole connected component of the root, every reached node broadcasts
    once, and the last reception happens after ``eccentricity`` hop times.
    """

    def __init__(self, topology: Topology, radio: RadioModel, energy_model: RadioEnergyModel) -> None:
        self.topology = topology
        self.radio = radio
        self.energy_model = energy_model

    def disseminate(self, root: int, bits: float) -> DisseminationResult:
        """Flood ``bits`` from ``root``; return exact lossless-cost result.

        Every reached node broadcasts once (``tx``) and each of its living
        neighbors overhears it (``rx``).  The charges are laid out in one
        array -- per reached node, its own ``tx`` then an ``rx`` for each
        ascending neighbor -- and applied with :func:`numpy.add.at`, which
        adds sequentially, so every node's total is summed in the same
        order as a per-edge loop over ``reached``.
        """
        topo = self.topology
        per_node = np.zeros(topo.n_nodes)
        hops = topo.hop_counts_from(root)
        reached = set(hops)

        tx = self.energy_model.tx_cost(bits, self.radio.range_m)
        rx = self.energy_model.rx_cost(bits)
        csr = topo.csr
        nodes = np.fromiter(reached, dtype=np.intp, count=len(reached))
        starts = csr.indptr[nodes]
        degree = csr.indptr[nodes + 1] - starts
        segment = degree + 1
        # index of each reached node's own tx entry in the charge array
        heads = np.cumsum(segment) - segment
        total = int(segment.sum())
        targets = np.empty(total, dtype=np.intp)
        joules = np.full(total, rx)
        targets[heads] = nodes
        joules[heads] = tx
        overhears = np.ones(total, dtype=bool)
        overhears[heads] = False
        targets[overhears] = csr.indices[
            np.flatnonzero(overhears) + np.repeat(starts - heads - 1, degree)]
        np.add.at(per_node, targets, joules)

        eccentricity = max(hops.values()) if hops else 0
        latency = eccentricity * self.radio.hop_time(bits)
        return DisseminationResult(
            reached=reached,
            messages=len(reached),
            energy_j=float(per_node.sum()),
            per_node_energy=per_node,
            latency_s=latency,
        )
