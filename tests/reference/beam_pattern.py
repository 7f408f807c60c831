"""The scalar beam pattern that :meth:`Beam.gain_dbi_array` vectorised.

``Beam.gain_dbi`` and its two helpers, one angle at a time in Python
floats, frozen as functions of the beam.  The vectorised kernels agree
with it to 1e-9 dB but not bit for bit (``tests/phy/test_antenna.py``).
"""

from __future__ import annotations

import math

from repro.phy.antenna import SIDE_LOBE_FLOOR_DBI, Beam, _wrap_deg


def _ripple_db(beam: Beam, angle_deg: float) -> float:
    if beam.ripple_amp_db == 0.0:
        return 0.0
    return beam.ripple_amp_db * math.sin(
        2.0 * math.pi * angle_deg / beam.ripple_period_deg + beam.ripple_phase_rad
    )


def gain_dbi(beam: Beam, angle_deg: float) -> float:
    """Directivity gain toward ``angle_deg`` (relative to array boresight)."""
    total = 10.0 ** (SIDE_LOBE_FLOOR_DBI / 10.0)
    total += _lobe_power(beam, angle_deg, beam.steering_deg, beam.beamwidth_deg, 0.0)
    for lobe in beam.side_lobes:
        total += _lobe_power(
            beam,
            angle_deg,
            beam.steering_deg + lobe.offset_deg,
            lobe.width_deg,
            lobe.level_db,
        )
    return 10.0 * math.log10(total) + _ripple_db(beam, angle_deg)


def _lobe_power(
    beam: Beam, angle_deg: float, centre_deg: float, width_deg: float, level_db: float
) -> float:
    """Linear power of one Gaussian lobe evaluated at ``angle_deg``."""
    delta = _wrap_deg(angle_deg - centre_deg)
    # Gaussian with the -3 dB point at width/2:  exp(-ln2 * (2d/w)^2)
    exponent = -math.log(2.0) * (2.0 * delta / width_deg) ** 2
    peak_db = beam.peak_gain_dbi + level_db
    return 10.0 ** (peak_db / 10.0) * math.exp(exponent)
