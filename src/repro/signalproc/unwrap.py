"""Phase unwrapping and multi-trajectory profile stitching (Sec. IV-A1, IV-B).

A moving tag sampled at over 100 Hz displaces far less than half a
wavelength (~16 cm at 920.625 MHz) between consecutive reads, so any jump
of ``pi`` radians or more between neighbours must be a wrap artifact of the
modulo-2*pi report, not real motion. Unwrapping adds or subtracts multiples
of 2*pi until every jump is below ``pi``.

Separate trajectories (the three lines of the Fig. 11 scan) produce
unwrapped profiles whose *relative* offsets are unknown — phase differences
across trajectories would not match distance differences. ``stitch_profiles``
restores consistency by aligning each profile's endpoint phase to the
distance-predicted phase at a shared anchor, mirroring the paper's
"move the tag from the end of one trajectory to the start of the other"
adjustment.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.signalproc.wrapping import wrap_to_pi


def unwrap_phase(wrapped_rad: np.ndarray, jump_threshold_rad: float = np.pi) -> np.ndarray:
    """Unwrap a profile of consecutive wrapped phase values.

    When the jump between two consecutive values is at least
    ``jump_threshold_rad``, multiples of 2*pi are added or subtracted until
    the jump falls below the threshold (paper Sec. IV-A1).

    Args:
        wrapped_rad: 1-D array of wrapped phase values, radians.
        jump_threshold_rad: maximum believable physical jump; defaults to
            ``pi`` which is exact for displacements below a quarter
            wavelength per sample.

    Returns:
        The unwrapped profile; its first element equals the input's first
        element.

    Raises:
        ValueError: for empty input or a non-positive threshold.
    """
    phases = np.asarray(wrapped_rad, dtype=float)
    if phases.ndim != 1 or phases.size == 0:
        raise ValueError("expected a non-empty 1-D phase profile")
    if jump_threshold_rad <= 0.0:
        raise ValueError("jump threshold must be positive")
    # numpy's unwrap implements exactly the add/subtract-2*pi rule.
    return np.unwrap(phases, discont=jump_threshold_rad)


def count_wraps(wrapped_rad: np.ndarray, jump_threshold_rad: float = np.pi) -> int:
    """Number of 2*pi wrap events detected in a wrapped profile."""
    phases = np.asarray(wrapped_rad, dtype=float)
    if phases.size < 2:
        return 0
    jumps = np.abs(np.diff(phases))
    return int(np.count_nonzero(jumps >= jump_threshold_rad))


def unwrap_segments(
    segments: Sequence[np.ndarray], jump_threshold_rad: float = np.pi
) -> list[np.ndarray]:
    """Unwrap each segment independently.

    Returns a list of unwrapped profiles, one per input segment. Use
    :func:`stitch_profiles` afterwards to make them mutually consistent.
    """
    return [unwrap_phase(segment, jump_threshold_rad) for segment in segments]


def stitch_profiles(
    profiles: Sequence[np.ndarray],
    anchor_distances_m: Sequence[float],
    wavelength_m: float = DEFAULT_WAVELENGTH_M,
) -> list[np.ndarray]:
    """Shift independently-unwrapped profiles onto a common phase datum.

    Each profile keeps its internal shape; profile ``k`` is shifted by a
    constant so that its first sample equals the distance-predicted phase
    of its anchor, *relative to profile 0's anchor*. Concretely, profile
    ``k``'s first sample is moved to::

        profile_0[0] + (4*pi/lambda) * (anchor_k - anchor_0)

    where ``anchor_k`` is the true antenna distance at profile ``k``'s
    first sample. After stitching, phase differences between any two
    samples — same profile or not — match ``4*pi/lambda`` times their
    distance difference (up to noise), which is what the linear model
    needs (Sec. IV-B).

    In a real deployment the anchors come from the paper's trick of moving
    the tag continuously from the end of one trajectory to the start of the
    next; in simulation they are available from geometry. Either way only
    *differences* of anchor distances matter, so a global unknown offset in
    the anchors is harmless.

    Args:
        profiles: independently-unwrapped phase profiles.
        anchor_distances_m: antenna distance at the first sample of each
            profile (or any values with the correct pairwise differences).
        wavelength_m: carrier wavelength, meters.

    Raises:
        ValueError: if lengths disagree or no profiles are given.
    """
    if len(profiles) == 0:
        raise ValueError("no profiles to stitch")
    if len(profiles) != len(anchor_distances_m):
        raise ValueError(
            f"got {len(profiles)} profiles but {len(anchor_distances_m)} anchors"
        )
    if wavelength_m <= 0.0:
        raise ValueError("wavelength must be positive")

    base = np.asarray(profiles[0], dtype=float)
    stitched = [base.copy()]
    for profile, anchor in zip(profiles[1:], anchor_distances_m[1:]):
        arr = np.asarray(profile, dtype=float)
        expected_start = base[0] + (2.0 * TWO_PI / wavelength_m) * (
            anchor - anchor_distances_m[0]
        )
        # Preserve the sub-2*pi fractional phase the profile itself carries
        # (it already encodes noise/offset); only correct the integer-wrap
        # ambiguity plus the coarse alignment.
        shift = expected_start - arr[0]
        wraps = np.round(shift / TWO_PI)
        residual = shift - wraps * TWO_PI
        if abs(residual) > np.pi / 2.0:
            # The fractional parts disagree strongly; trust the distance
            # prediction entirely (equivalent to re-anchoring the profile).
            stitched.append(arr + shift)
        else:
            stitched.append(arr + wraps * TWO_PI)
    return stitched


def unwrap_error_estimate(
    wrapped_rad: np.ndarray,
    expected_rad: np.ndarray,
) -> float:
    """RMS deviation between an unwrapped profile and an expected profile.

    Both profiles are first reduced modulo a common constant offset (the
    unknown absolute phase), so only the *shape* is compared. Useful as a
    sanity metric in experiments.
    """
    got = np.asarray(wrapped_rad, dtype=float)
    want = np.asarray(expected_rad, dtype=float)
    if got.shape != want.shape:
        raise ValueError(f"shape mismatch: {got.shape} vs {want.shape}")
    delta = got - want
    delta = delta - np.mean(delta)
    return float(np.sqrt(np.mean(wrap_to_pi(delta) ** 2)))
