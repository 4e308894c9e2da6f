"""Node batteries and the first-order radio energy model.

The paper's §4 makes sensor energy the first-class cost ("preserving the
energy of the sensors is of prime importance").  We use the standard
first-order radio model from the sensor-network literature the paper
builds on (TAG, LEACH, Kalpakis et al.):

* transmitting ``k`` bits over distance ``d`` costs
  ``E_elec * k + eps_amp * k * d**2`` joules,
* receiving ``k`` bits costs ``E_elec * k`` joules,
* each CPU operation costs ``e_cpu`` joules (orders of magnitude below a
  transmitted bit, which is what makes in-network aggregation pay off).

Defaults follow Heinzelman et al.: ``E_elec = 50 nJ/bit``,
``eps_amp = 100 pJ/bit/m^2``, ``e_cpu = 5 pJ/op``.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class RadioEnergyModel:
    """Energy cost parameters for radio and CPU activity.

    Attributes
    ----------
    e_elec:
        Electronics energy per bit, J/bit (both tx and rx paths).
    eps_amp:
        Transmit-amplifier energy per bit per square metre, J/bit/m^2.
    e_cpu_op:
        Energy per CPU operation, J/op.
    e_sense:
        Energy per sensor sample, J/sample.
    """

    e_elec: float = 50e-9
    eps_amp: float = 100e-12
    e_cpu_op: float = 5e-12
    e_sense: float = 50e-9

    def tx_cost(self, bits: float, dist: float) -> float:
        """Joules to transmit ``bits`` over ``dist`` metres."""
        if bits < 0 or dist < 0:
            raise ValueError("bits and dist must be non-negative")
        return self.e_elec * bits + self.eps_amp * bits * dist * dist

    def rx_cost(self, bits: float) -> float:
        """Joules to receive ``bits``."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        return self.e_elec * bits

    def cpu_cost(self, ops: float) -> float:
        """Joules to execute ``ops`` CPU operations."""
        if ops < 0:
            raise ValueError("ops must be non-negative")
        return self.e_cpu_op * ops

    def sense_cost(self, samples: float = 1.0) -> float:
        """Joules to take ``samples`` sensor readings."""
        return self.e_sense * samples


class Battery:
    """A finite (or infinite) energy reserve attached to a node.

    Draws are accepted even when they overdraw the remaining charge -- the
    battery clamps at zero and flips :attr:`depleted`, which is how node
    death is detected.  Base stations and grid resources use
    ``Battery(float("inf"))``.
    """

    __slots__ = ("capacity", "_remaining", "consumed", "draws")

    def __init__(self, capacity_joules: float = 1.0) -> None:
        if capacity_joules < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = float(capacity_joules)
        self._remaining = float(capacity_joules)
        #: Total joules actually drawn (capped at capacity for finite cells).
        self.consumed = 0.0
        #: Number of draw() calls, for instrumentation.
        self.draws = 0

    @property
    def remaining(self) -> float:
        """Joules left (0 when depleted; inf for mains-powered nodes)."""
        return self._remaining

    @property
    def depleted(self) -> bool:
        """True once the battery has hit zero."""
        return self._remaining <= 0.0

    @property
    def fraction_remaining(self) -> float:
        """Remaining charge as a fraction of capacity (1.0 for infinite)."""
        if self.capacity == float("inf"):
            return 1.0
        if self.capacity == 0.0:
            return 0.0
        return self._remaining / self.capacity

    def draw(self, joules: float) -> bool:
        """Consume ``joules``; return True if the node is still alive.

        A draw that exceeds the remaining charge consumes whatever is left
        and leaves the battery depleted.
        """
        if joules < 0:
            raise ValueError("cannot draw negative energy")
        self.draws += 1
        taken = min(joules, self._remaining)
        self.consumed += taken
        self._remaining -= taken
        return not self.depleted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Battery(remaining={self._remaining:.4g}/{self.capacity:.4g} J)"


class BatteryView:
    """Battery-API view over one slot of a :class:`BatteryBank`.

    Implements the full :class:`Battery` surface (``draw``, ``remaining``,
    ``depleted``, ``consumed``, ...), so network code that charges one
    node at a time works unchanged; the state lives in the bank's arrays,
    where fleet-wide accounting reads it without a Python loop.
    """

    __slots__ = ("_bank", "_i")

    def __init__(self, bank: "BatteryBank", index: int) -> None:
        self._bank = bank
        self._i = index

    @property
    def capacity(self) -> float:
        return float(self._bank.capacity[self._i])

    @property
    def remaining(self) -> float:
        """Joules left (0 when depleted; inf for mains-powered nodes)."""
        return float(self._bank._remaining[self._i])

    @property
    def consumed(self) -> float:
        return float(self._bank.consumed[self._i])

    @property
    def draws(self) -> int:
        return int(self._bank.draws[self._i])

    @property
    def depleted(self) -> bool:
        """True once the battery has hit zero."""
        return bool(self._bank._remaining[self._i] <= 0.0)

    @property
    def fraction_remaining(self) -> float:
        """Remaining charge as a fraction of capacity (1.0 for infinite)."""
        cap = self._bank.capacity[self._i]
        if cap == np.inf:
            return 1.0
        if cap == 0.0:
            return 0.0
        return float(self._bank._remaining[self._i] / cap)

    def draw(self, joules: float) -> bool:
        """Consume ``joules``; return True if the node is still alive.

        Bit-identical to :meth:`Battery.draw`: the slot holds float64 and
        the scalar min/add/sub here are the same IEEE754 operations.
        """
        if joules < 0:
            raise ValueError("cannot draw negative energy")
        bank = self._bank
        i = self._i
        bank.draws[i] += 1
        remaining = float(bank._remaining[i])
        taken = joules if joules < remaining else remaining
        bank.consumed[i] += taken
        bank._remaining[i] = remaining - taken
        return bank._remaining[i] > 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatteryView(remaining={self.remaining:.4g}/{self.capacity:.4g} J)"


class BatteryBank:
    """Array-backed battery fleet for large populations.

    Per-node state (capacity, remaining, consumed, draw count) lives in
    flat float64/int64 arrays, so fleet-wide accounting -- total energy
    consumed, min remaining, alive mask -- is one numpy reduction instead
    of a Python loop over 100k :class:`Battery` objects.  Individual
    nodes charge through :meth:`battery` views that implement the scalar
    :class:`Battery` API bit-identically.
    """

    __slots__ = ("capacity", "_remaining", "consumed", "draws")

    def __init__(self, capacities_joules: np.ndarray | list[float]) -> None:
        cap = np.asarray(capacities_joules, dtype=np.float64).copy()
        if cap.ndim != 1:
            raise ValueError("capacities must be a 1-D array")
        if np.any(cap < 0):
            raise ValueError("capacity must be non-negative")
        self.capacity = cap
        self._remaining = cap.copy()
        self.consumed = np.zeros(len(cap), dtype=np.float64)
        self.draws = np.zeros(len(cap), dtype=np.int64)

    @classmethod
    def uniform(cls, n: int, capacity_joules: float = 1.0) -> "BatteryBank":
        """A bank of ``n`` identical cells."""
        return cls(np.full(n, float(capacity_joules)))

    def __len__(self) -> int:
        return len(self.capacity)

    def battery(self, index: int) -> BatteryView:
        """Battery-compatible view of one slot."""
        return BatteryView(self, index)

    def batteries(self) -> list[BatteryView]:
        """Views for every slot (pass straight to ``WirelessNetwork``)."""
        return [BatteryView(self, i) for i in range(len(self.capacity))]

    # ------------------------------------------------------------------
    # vectorized accounting
    # ------------------------------------------------------------------
    @property
    def remaining(self) -> np.ndarray:
        """Joules left per node (read-only view)."""
        view = self._remaining.view()
        view.flags.writeable = False
        return view

    @property
    def alive_mask(self) -> np.ndarray:
        """Boolean mask of nodes with charge left."""
        return self._remaining > 0.0

    @property
    def depleted_count(self) -> int:
        """Number of dead cells."""
        return int(np.count_nonzero(self._remaining <= 0.0))

    @property
    def total_consumed(self) -> float:
        """Fleet-wide joules drawn (numpy pairwise-summed; accounting
        only -- never fed back into simulation state)."""
        return float(self.consumed.sum())

    def fraction_remaining(self) -> np.ndarray:
        """Per-node remaining fraction (1.0 for infinite, 0.0 for zero-cap)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = self._remaining / self.capacity
        frac = np.where(self.capacity == np.inf, 1.0, frac)
        frac = np.where(self.capacity == 0.0, 0.0, frac)
        return frac
