"""``X60Link.measure`` memoises its noise-free part on the channel state.

A memo hit must be invisible: the same RNG stream gives the same bytes as
a measurement on a freshly traced state, any changed link input misses,
and callers writing into a returned measurement cannot reach the memo.
"""

import dataclasses

import numpy as np
import pytest

import repro.testbed.x60 as x60
from repro.env.geometry import Point
from repro.env.placement import RadioPose
from repro.env.rooms import make_lobby
from repro.phy.antenna import Codebook
from repro.phy.interference import Interferer
from repro.testbed.x60 import X60Link

RX = RadioPose(Point(10.0, 6.0), 180.0)
PAIR = (12, 12)


@pytest.fixture
def link() -> X60Link:
    return X60Link(make_lobby(), RadioPose(Point(2.0, 6.0), 0.0))


@pytest.fixture
def pdp_calls(monkeypatch) -> list:
    calls = []
    original = x60.power_delay_profile

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(x60, "power_delay_profile", counting)
    return calls


def fields(m) -> tuple:
    return (
        m.tx_beam, m.rx_beam, m.snr_db, m.true_snr_db, m.noise_dbm, m.tof_ns,
        m.pdp.tobytes(), m.cdr.tobytes(), m.throughput_mbps.tobytes(),
    )


def fresh(link, rx, pair, seed, **state_kwargs):
    """Measure on a newly traced state (empty memo)."""
    state = link.channel_state(rx, rng=np.random.default_rng(0), **state_kwargs)
    return link.measure(state, rx, *pair, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("interfered", [False, True])
def test_hit_is_byte_identical_to_a_fresh_state(link, pdp_calls, interfered):
    kwargs = {}
    if interfered:
        kwargs = dict(interferer=Interferer(Point(10.0, 2.0), level="medium"))
    expected = fields(fresh(link, RX, PAIR, seed=5, **kwargs))
    state = link.channel_state(RX, rng=np.random.default_rng(0), **kwargs)
    link.measure(state, RX, *PAIR, rng=np.random.default_rng(1))
    calls = len(pdp_calls)
    again = link.measure(state, RX, *PAIR, rng=np.random.default_rng(5))
    assert len(pdp_calls) == calls  # served from the memo
    assert fields(again) == expected


def test_changed_inputs_miss(link, pdp_calls):
    state = link.channel_state(RX, rng=np.random.default_rng(0))
    link.measure(state, RX, *PAIR, rng=np.random.default_rng(5))
    turned = RadioPose(RX.position, RX.orientation_deg + 30.0)
    louder = dataclasses.replace(link, tx_power_dbm=link.tx_power_dbm + 3.0)
    reversed_codebook = Codebook(link.codebook.beams[::-1])
    other_codebook = dataclasses.replace(link, codebook=reversed_codebook)
    cases = [
        (link, turned, PAIR),
        (link, RX, (12, 13)),
        (link, RX, (13, 12)),
        (louder, RX, PAIR),
        (other_codebook, RX, PAIR),
    ]
    for probe, rx, pair in cases:
        calls = len(pdp_calls)
        got = probe.measure(state, rx, *pair, rng=np.random.default_rng(5))
        assert len(pdp_calls) == calls + 1, (rx, pair, probe.tx_power_dbm)
        assert fields(got) == fields(fresh(probe, rx, pair, seed=5))


def test_writing_into_a_measurement_does_not_reach_the_memo(link):
    expected = fields(fresh(link, RX, PAIR, seed=5))
    state = link.channel_state(RX, rng=np.random.default_rng(0))
    first = link.measure(state, RX, *PAIR, rng=np.random.default_rng(5))
    for array in (first.pdp, first.cdr, first.throughput_mbps):
        array[:] = -1.0
    again = link.measure(state, RX, *PAIR, rng=np.random.default_rng(5))
    assert fields(again) == expected
