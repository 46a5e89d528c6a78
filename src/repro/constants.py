"""Physical constants and default RF parameters used across the library.

The defaults mirror the hardware configuration of the LION paper
(Sec. V-A): an ImpinJ Speedway R420 reader working at 920.625 MHz with a
transmission power of 32 dBm, a Laird S9028PCL directional antenna, and
ImpinJ E41-B / E51 tags moving at 10 cm/s on a 2.5 m sliding track while
being read at over 100 Hz.
"""

from __future__ import annotations

import math

#: Speed of light in vacuum, meters per second.
SPEED_OF_LIGHT = 299_792_458.0

#: Default carrier frequency of the reader, hertz (paper Sec. V-A).
DEFAULT_FREQUENCY_HZ = 920.625e6

#: Default carrier wavelength, meters (~32.6 cm at 920.625 MHz).
DEFAULT_WAVELENGTH_M = SPEED_OF_LIGHT / DEFAULT_FREQUENCY_HZ

#: Default tag read (sampling) rate, hertz. The paper reports that a single
#: tag can be sampled at over 100 Hz (Sec. IV-A1).
DEFAULT_READ_RATE_HZ = 120.0

#: Default tag movement speed on the sliding track, meters per second.
DEFAULT_TAG_SPEED_MPS = 0.10

#: Standard deviation of the Gaussian phase noise used in the paper's own
#: simulations (Sec. III-A), radians.
DEFAULT_PHASE_NOISE_STD_RAD = 0.10

#: Two pi, for readability of modulo-2*pi phase arithmetic.
TWO_PI = 2.0 * math.pi

#: FCC 902-928 MHz band: 50 hop channels of 500 kHz starting at 902.75 MHz.
#: Real Speedway readers frequency-hop across these; the simulator can too.
FCC_CHANNEL_COUNT = 50
FCC_FIRST_CHANNEL_HZ = 902.75e6
FCC_CHANNEL_STEP_HZ = 500e3


def wavelength_for_frequency(frequency_hz: float) -> float:
    """Return the free-space wavelength in meters for ``frequency_hz``.

    >>> round(wavelength_for_frequency(920.625e6), 4)
    0.3256
    """
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_hz!r}")
    return SPEED_OF_LIGHT / frequency_hz


def fcc_channel_frequency(channel_index: int) -> float:
    """Return the carrier frequency in hertz of FCC hop channel ``channel_index``.

    Channels are numbered 0..49 over the 902-928 MHz ISM band.
    """
    if not 0 <= channel_index < FCC_CHANNEL_COUNT:
        raise ValueError(
            f"channel index must be in [0, {FCC_CHANNEL_COUNT}), got {channel_index}"
        )
    return FCC_FIRST_CHANNEL_HZ + channel_index * FCC_CHANNEL_STEP_HZ
