"""Each model builds its plan once per epoch, and outcomes stay fixed.

The golden digest pins every query outcome of the six execution models
(each forced by a ``StaticPolicy``) over a simple, an aggregate and a
DISTRIBUTION query on a lossy network, so the retransmission and jitter
draws are exercised.  Any change to plan building, the order of the
random draws or the association of a model's float sums moves it.
"""

import hashlib

import numpy as np
import pytest

from repro.core import PervasiveGridRuntime
from repro.core.decision import StaticPolicy
from repro.network.radio import RadioModel
from repro.queries.models import ALL_MODELS, CentralizedModel

QUERIES = (
    "SELECT value FROM sensors WHERE sensor_id = 7 EPOCH DURATION 1 FOR 3",
    "SELECT AVG(value) FROM sensors EPOCH DURATION 1 FOR 3",
    "SELECT DISTRIBUTION(value) FROM sensors EPOCH DURATION 1 FOR 3",
)

#: sha256 over every outcome of :func:`outcome_digest`, recorded before
#: ``execute`` took the Decision Maker's estimate as its plan.
GOLDEN_DIGEST = "0bb9dd67e22f0aa0630152c65f1001f644317d39619e09a259261d1a9a338b4d"


def make_runtime(model_name: str, seed: int = 3) -> PervasiveGridRuntime:
    return PervasiveGridRuntime(
        n_sensors=25, area_m=40.0, seed=seed, grid_resolution=12,
        radio=RadioModel(loss_prob=0.05, range_m=20.0),
        policy=StaticPolicy(model_name),
    )


def value_bytes(value) -> bytes:
    if value is None:
        return b""
    return np.asarray(value, dtype=float).tobytes()


def outcome_digest() -> str:
    h = hashlib.sha256()
    for cls in ALL_MODELS:
        rt = make_runtime(cls.name)
        for text in QUERIES:
            for o in rt.query(text):
                h.update(repr((o.model, o.time_s, o.energy_j, o.data_bits,
                               o.readings_used, o.error)).encode())
                h.update(value_bytes(o.value))
    return h.hexdigest()


def test_outcomes_match_golden_digest():
    assert outcome_digest() == GOLDEN_DIGEST


@pytest.mark.parametrize("text", QUERIES[:2])
def test_chosen_model_estimates_once_per_epoch(text, monkeypatch):
    calls = []
    original = CentralizedModel.estimate

    def counting(self, query, ctx, targets):
        calls.append(ctx.sim.now)
        return original(self, query, ctx, targets)

    monkeypatch.setattr(CentralizedModel, "estimate", counting)
    outcomes = make_runtime("centralized").query(text)
    assert [o.model for o in outcomes] == ["centralized"] * 3
    assert len(calls) == len(outcomes)
