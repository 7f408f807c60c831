"""The vectorised, memoized tracer vs the frozen scalar image method in
``tests/reference/ray_tracer.py``: same rays and ``via``, values ≤1e-9."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.env.geometry import Point, Segment
from repro.env.rooms import make_conference_room, make_lobby
from repro.phy import tracing
from repro.phy.antenna import sibeam_codebook
from repro.phy.channel import (
    ChannelState,
    LinkGeometry,
    snr_db,
    snr_matrix_db,
)
from repro.phy.tracing import TraceEngine, engine_for, trace_rays
from tests.reference.ray_tracer import trace_rays as reference_trace_rays


@pytest.fixture(autouse=True)
def _fresh_caches():
    tracing.clear_caches()
    yield
    tracing.clear_caches()


def random_geometry(rng, room, with_blocker=False):
    tx = Point(rng.uniform(0.5, room.length - 0.5), rng.uniform(0.5, room.width - 0.5))
    rx = Point(rng.uniform(0.5, room.length - 0.5), rng.uniform(0.5, room.width - 0.5))
    blockers = ()
    if with_blocker:
        mid = Point((tx.x + rx.x) / 2.0, (tx.y + rx.y) / 2.0)
        blockers = (
            Segment(
                Point(mid.x - 0.2, mid.y - 0.2),
                Point(mid.x + 0.2, mid.y + 0.2),
                material_loss_db=15.0,
            ),
        )
    return LinkGeometry(room, tx, rx, blockers)


def assert_rays_match(scalar_rays, batch_rays):
    assert len(scalar_rays) == len(batch_rays)
    for a, b in zip(scalar_rays, batch_rays):
        assert a.via == b.via
        assert abs(a.loss_db - b.loss_db) <= 1e-9
        assert abs(a.delay_s - b.delay_s) <= 1e-15
        assert abs(a.aod_deg - b.aod_deg) <= 1e-9
        assert abs(a.aoa_deg - b.aoa_deg) <= 1e-9


class TestTracerParity:
    @pytest.mark.parametrize("make_room", [make_lobby, make_conference_room])
    @pytest.mark.parametrize("with_blocker", [False, True])
    def test_random_links_match_scalar(self, make_room, with_blocker):
        rng = np.random.default_rng(42)
        room = make_room()
        for _ in range(25):
            geometry = random_geometry(rng, room, with_blocker)
            assert_rays_match(
                reference_trace_rays(geometry), trace_rays(geometry)
            )

    def test_first_order_only(self):
        rng = np.random.default_rng(3)
        room = make_lobby()
        for _ in range(10):
            geometry = random_geometry(rng, room)
            assert_rays_match(
                reference_trace_rays(geometry, max_order=1),
                trace_rays(geometry, max_order=1),
            )

    def test_rays_sorted_by_loss(self):
        geometry = random_geometry(np.random.default_rng(0), make_lobby())
        rays = trace_rays(geometry)
        losses = [r.loss_db for r in rays]
        assert losses == sorted(losses)


ROOMS = {"lobby": make_lobby(), "conference": make_conference_room()}


@st.composite
def link_geometries(draw) -> LinkGeometry:
    """A random link in either room: Tx and Rx anywhere inside, or within
    5 cm of a clutter endpoint (where the clearance tests' 1 mm endpoint
    tolerance and the ±eps intersection slack decide), plus 0-3 blockers."""
    room = ROOMS[draw(st.sampled_from(sorted(ROOMS)))]
    endpoints = [p for s in room.obstacles() for p in (s.a, s.b)]
    inside = dict(allow_nan=False, allow_infinity=False)

    def point() -> Point:
        if draw(st.booleans()):
            anchor = draw(st.sampled_from(endpoints))
            dx = draw(st.floats(-0.05, 0.05, **inside))
            dy = draw(st.floats(-0.05, 0.05, **inside))
            return Point(anchor.x + dx, anchor.y + dy)
        return Point(
            draw(st.floats(0.1, room.length - 0.1, **inside)),
            draw(st.floats(0.1, room.width - 0.1, **inside)),
        )

    tx, rx = point(), point()
    blockers = tuple(
        Segment(point(), point(), material_loss_db=draw(st.floats(0.0, 40.0, **inside)))
        for _ in range(draw(st.integers(0, 3)))
    )
    return LinkGeometry(room, tx, rx, blockers)


def assert_rays_match_up_to_ties(reference_rays, rays):
    """Same rays by ``via`` with values ≤1e-9, sorted alike up to loss ties.

    The engine computes lengths and path losses with NumPy's ``hypot`` and
    ``log10``, the reference with :mod:`math`'s; the two can round
    differently, so two rays whose losses tie to within rounding (the
    mirror-image double bounces of a symmetric link) may sort either way
    round.
    """
    by_via = {ray.via: ray for ray in rays}
    assert len(by_via) == len(rays)
    assert sorted(by_via) == sorted(ray.via for ray in reference_rays)
    assert_rays_match(reference_rays, [by_via[ray.via] for ray in reference_rays])
    for a, b in zip(reference_rays, rays):
        assert abs(a.loss_db - b.loss_db) <= 1e-9


class TestTracerProperty:
    @given(link_geometries(), st.integers(0, 2))
    @example(
        # Tx and Rx on one horizontal line next to pillar-2: the two
        # wall-side/panel-side double bounces tie, and their losses differ
        # by 1.4e-14 dB between the tracers, so they sort in opposite order.
        LinkGeometry(
            ROOMS["lobby"],
            Point(13.001205287712787, 1.5036983392435244),
            Point(13.043770595875188, 1.5036983392435244),
        ),
        2,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, geometry, max_order):
        assert_rays_match_up_to_ties(
            reference_trace_rays(geometry, max_order),
            trace_rays(geometry, max_order),
        )


class TestTracerCaching:
    def test_engine_reused_per_tx(self):
        room = make_lobby()
        assert engine_for(room, Point(2.0, 3.0)) is engine_for(room, Point(2.0, 3.0))
        assert engine_for(room, Point(2.0, 3.0)) is not engine_for(room, Point(2.0, 4.0))

    def test_repeat_trace_hits_ray_cache(self):
        room = make_lobby()
        engine = TraceEngine(room, Point(2.0, 3.0))
        first = engine.trace(Point(8.0, 4.0))
        again = engine.trace(Point(8.0, 4.0))
        assert_rays_match(first, again)

    def test_cached_result_is_a_copy(self):
        """Mutating a returned list must not corrupt the cache."""
        geometry = random_geometry(np.random.default_rng(1), make_lobby())
        rays = trace_rays(geometry)
        rays.clear()
        assert len(trace_rays(geometry)) > 0

    def test_clear_caches_resets_engines(self):
        room = make_lobby()
        engine = engine_for(room, Point(2.0, 3.0))
        tracing.clear_caches()
        assert engine_for(room, Point(2.0, 3.0)) is not engine


class TestSnrMatrixParity:
    """snr_matrix_db[i, j] must equal the scalar snr_db of pair (i, j)."""

    @pytest.mark.parametrize("with_interference", [False, True])
    def test_matrix_matches_scalar(self, with_interference):
        from repro.phy.interference import InterferenceField

        rng = np.random.default_rng(7)
        room = make_lobby()
        codebook = sibeam_codebook()
        geometry = random_geometry(rng, room)
        rays = trace_rays(geometry)
        interference = None
        if with_interference:
            towards_rx = trace_rays(
                LinkGeometry(room, Point(5.0, 5.0), geometry.rx_position)
            )
            interference = InterferenceField(tuple(towards_rx), eirp_dbm=5.0)
        state = ChannelState(
            rays=rays, noise_dbm=-78.0, interference=interference, geometry=geometry
        )
        matrix = snr_matrix_db(state, codebook, 10.0, 190.0, 10.0)
        assert matrix.shape == (len(codebook), len(codebook))
        for i in range(0, len(codebook), 3):
            for j in range(0, len(codebook), 3):
                scalar = snr_db(state, codebook[i], codebook[j], 10.0, 190.0, 10.0)
                assert abs(matrix[i, j] - scalar) <= 1e-9
