"""The scalar image-method ray tracer that :class:`TraceEngine` replaced.

Per Rx it mirrored the Tx across every wall, ran the ``O(walls²)``
second-order segment intersections in Python, and rebuilt the obstacle
lists.  The LOS ray and the blocker loss are shared with the engine
(:mod:`repro.phy.tracing`).  :func:`repro.phy.tracing.trace_rays` must
return the same rays in the same order with the same ``via`` and values
within 1e-9 (``tests/phy/test_tracing_batch.py``).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.env.geometry import (
    Point,
    Segment,
    mirror_point,
    path_is_clear,
    segment_intersection,
)
from repro.phy.channel import LinkGeometry, Ray
from repro.phy.propagation import path_loss_db
from repro.phy.tracing import _MIN_RAY_GAIN_DB, _blockage_loss_db, _los_ray


def _first_order_ray(
    geometry: LinkGeometry, wall: Segment, room_obstacles: Optional[list[Segment]] = None
) -> Optional[Ray]:
    """Single-bounce ray off ``wall`` using the image method.

    ``room_obstacles`` lets :func:`trace_rays` hoist the
    ``room.obstacles()`` list out of the per-wall loop.
    """
    tx, rx = geometry.tx_position, geometry.rx_position
    image = mirror_point(tx, wall)
    hit = segment_intersection(image, rx, wall.a, wall.b)
    if hit is None:
        return None
    if room_obstacles is None:
        room_obstacles = geometry.room.obstacles()
    # Both sub-paths must be clear of other clutter.
    obstacles = [s for s in room_obstacles if s is not wall]
    if not path_is_clear(tx, hit, obstacles):
        return None
    if not path_is_clear(hit, rx, obstacles):
        return None
    length = tx.distance_to(hit) + hit.distance_to(rx)
    loss = path_loss_db(length) + wall.material_loss_db
    loss += _blockage_loss_db(tx, hit, geometry.blockers)
    loss += _blockage_loss_db(hit, rx, geometry.blockers)
    if -loss < _MIN_RAY_GAIN_DB:
        return None
    return Ray(
        aod_deg=math.degrees(tx.angle_to(hit)),
        aoa_deg=math.degrees(rx.angle_to(hit)),
        path_length_m=length,
        loss_db=loss,
        order=1,
        via=(wall.name,),
    )


def _second_order_ray(
    geometry: LinkGeometry,
    wall1: Segment,
    wall2: Segment,
    room_obstacles: Optional[list[Segment]] = None,
    image1: Optional[Point] = None,
) -> Optional[Ray]:
    """Double-bounce ray: Tx → wall1 → wall2 → Rx via nested images.

    ``room_obstacles`` and ``image1`` (the Tx mirrored across ``wall1``)
    let :func:`trace_rays` hoist per-wall-pair recomputation out of the
    O(walls²) loop.
    """
    tx, rx = geometry.tx_position, geometry.rx_position
    if image1 is None:
        image1 = mirror_point(tx, wall1)
    image2 = mirror_point(image1, wall2)
    hit2 = segment_intersection(image2, rx, wall2.a, wall2.b)
    if hit2 is None:
        return None
    hit1 = segment_intersection(image1, hit2, wall1.a, wall1.b)
    if hit1 is None:
        return None
    if room_obstacles is None:
        room_obstacles = geometry.room.obstacles()
    obstacles = [s for s in room_obstacles if s is not wall1 and s is not wall2]
    for p1, p2 in ((tx, hit1), (hit1, hit2), (hit2, rx)):
        if not path_is_clear(p1, p2, obstacles):
            return None
    length = tx.distance_to(hit1) + hit1.distance_to(hit2) + hit2.distance_to(rx)
    loss = path_loss_db(length) + wall1.material_loss_db + wall2.material_loss_db
    for p1, p2 in ((tx, hit1), (hit1, hit2), (hit2, rx)):
        loss += _blockage_loss_db(p1, p2, geometry.blockers)
    if -loss < _MIN_RAY_GAIN_DB:
        return None
    return Ray(
        aod_deg=math.degrees(tx.angle_to(hit1)),
        aoa_deg=math.degrees(rx.angle_to(hit2)),
        path_length_m=length,
        loss_db=loss,
        order=2,
        via=(wall1.name, wall2.name),
    )


def trace_rays(geometry: LinkGeometry, max_order: int = 2) -> list[Ray]:
    """Trace all rays up to ``max_order`` reflections, strongest first."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    rays: list[Ray] = []
    los = _los_ray(geometry)
    if los is not None:
        rays.append(los)
    reflectors = geometry.room.reflectors()
    room_obstacles = geometry.room.obstacles()
    if max_order >= 1:
        for wall in reflectors:
            ray = _first_order_ray(geometry, wall, room_obstacles)
            if ray is not None:
                rays.append(ray)
    if max_order >= 2:
        tx = geometry.tx_position
        images1 = [mirror_point(tx, wall) for wall in reflectors]
        for wall1, image1 in zip(reflectors, images1):
            for wall2 in reflectors:
                if wall1 is wall2:
                    continue
                ray = _second_order_ray(
                    geometry, wall1, wall2, room_obstacles, image1
                )
                if ray is not None:
                    rays.append(ray)
    rays.sort(key=lambda r: r.loss_db)
    return rays
