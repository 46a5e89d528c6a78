"""Append-aware incremental scan assembly for streaming sessions.

:meth:`LionLocalizer.prepare` is a batch operation: it unwraps the whole
phase profile, smooths it, and reduces the scan to its solve-ready
pieces. A streaming session (:mod:`repro.stream`) sees the same scan one
read at a time through a bounded sliding window, and re-solving the
window from scratch on every read would redo the unwrap O(w) times.

:class:`IncrementalScanAssembler` is the front half of ``prepare()``
restructured around appends:

* **Unwrap continuation** — ``np.unwrap``'s phase correction for read
  ``i`` depends only on the consecutive pair ``(phase[i-1], phase[i])``,
  so each correction is computed exactly once at append time (replicating
  numpy's arithmetic bit-for-bit) and kept alongside the read. A window
  re-solve reconstructs the unwrapped profile as
  ``phase[i] + cumsum(corrections)`` — the same values, the same
  accumulation order, and therefore the same bits ``np.unwrap`` would
  produce on the window's raw phases.
* **Window slides for free** — corrections are per-read, so evicting the
  oldest read invalidates nothing; the window's profile is always
  reconstructable in O(w) without touching evicted history.
* **Pairing-recipe reuse** — :meth:`resolve` routes pair selection and
  the phase-independent radical-row geometry through the cross-call
  cache of :mod:`repro.core.sweep` (:func:`cached_assembly_recipe`), so
  repeated re-solves of one window (settled tags, replay comparisons,
  Monte-Carlo re-noising) amortize pairing to a dict lookup.

The result: :meth:`resolve` on a window is **bit-identical** to
:meth:`LionLocalizer.locate` on the same window's raw reads —
``tests/test_core_incremental.py`` pins this property, and the streaming
bench asserts it end-to-end.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

import numpy as np

from repro.core.localizer import (
    LionLocalizer,
    LocalizationResult,
    PreparedScan,
    TooFewReadsError,
)
from repro.core.sweep import cached_assembly_recipe, content_digest

_TWO_PI = 2.0 * np.pi


def unwrap_correction(
    previous_phase_rad: float, phase_rad: float, jump_threshold_rad: float
) -> float:
    """The ``np.unwrap`` phase correction for one consecutive read pair.

    Replicates numpy's arithmetic exactly (same float64 operations in the
    same order), so accumulating these per-pair corrections reproduces
    ``np.unwrap`` over any contiguous read range bit-for-bit:
    ``unwrapped[i] == phase[i] + sum(corrections[1..i])`` with the sum
    taken left to right (``np.cumsum``).
    """
    dd = np.float64(phase_rad) - np.float64(previous_phase_rad)
    ddmod = np.mod(dd + np.pi, _TWO_PI) - np.pi
    if ddmod == -np.pi and dd > 0:
        ddmod = np.float64(np.pi)
    correction = ddmod - dd
    if np.abs(dd) < jump_threshold_rad:
        correction = np.float64(0.0)
    return float(correction)


class IncrementalScanAssembler:
    """Bounded sliding window of reads with O(1) appends and batch-identical re-solves.

    Args:
        localizer: the configured batch localizer whose preprocessing and
            solve settings the window mirrors.
        max_reads: window bound; appending past it evicts the oldest read.

    Raises:
        ValueError: on a non-positive window bound.
    """

    def __init__(self, localizer: LionLocalizer, max_reads: int = 512) -> None:
        if max_reads < 3:
            raise ValueError("window must hold at least three reads")
        self.localizer = localizer
        self.max_reads = int(max_reads)
        self._timestamps: Deque[float] = deque(maxlen=self.max_reads)
        self._positions: Deque[np.ndarray] = deque(maxlen=self.max_reads)
        self._phases: Deque[float] = deque(maxlen=self.max_reads)
        self._corrections: Deque[float] = deque(maxlen=self.max_reads)
        self._segments: Deque[int] = deque(maxlen=self.max_reads)
        self._has_segments = False
        self._appended = 0

    # ------------------------------------------------------------------
    def append(
        self,
        position: "np.ndarray | tuple[float, ...] | list[float]",
        wrapped_phase_rad: float,
        timestamp_s: float = 0.0,
        segment_id: int = 0,
    ) -> None:
        """Ingest one read; O(1), evicting the oldest past ``max_reads``.

        Reads must arrive in scan order (the unwrap-continuation
        condition, exactly as for the batch path's continuous profile).

        Raises:
            ValueError: on a non-finite phase or position.
        """
        point = np.asarray(position, dtype=float)
        if point.ndim != 1 or point.shape[0] not in (2, 3):
            raise ValueError(f"position must be a 2- or 3-vector, got {point.shape}")
        if not np.all(np.isfinite(point)):
            raise ValueError("position contains non-finite values")
        phase = float(wrapped_phase_rad)
        if not np.isfinite(phase):
            raise ValueError("phase is non-finite; filter failed reads upstream")

        if self._phases:
            correction = unwrap_correction(
                self._phases[-1], phase, self.localizer.preprocess.jump_threshold_rad
            )
        else:
            correction = 0.0
        if segment_id != 0:
            self._has_segments = True
        self._timestamps.append(float(timestamp_s))
        self._positions.append(point.copy())
        self._phases.append(phase)
        self._corrections.append(correction)
        self._segments.append(int(segment_id))
        self._appended += 1

    def __len__(self) -> int:
        return len(self._phases)

    @property
    def appended(self) -> int:
        """Total reads ever appended (including evicted ones)."""
        return self._appended

    @property
    def latest_timestamp_s(self) -> float:
        """Timestamp of the newest read in the window (0.0 when empty)."""
        return self._timestamps[-1] if self._timestamps else 0.0

    # ------------------------------------------------------------------
    def window_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The window as ``(timestamps, positions, wrapped_phases)`` arrays.

        These are the raw reads — feed them to a one-shot
        :meth:`LionLocalizer.locate` (or an :class:`EstimationRequest`)
        to reproduce exactly what :meth:`resolve` solves.
        """
        timestamps = np.array(self._timestamps, dtype=float)
        positions = (
            np.array(self._positions, dtype=float)
            if self._positions
            else np.empty((0, 2))
        )
        phases = np.array(self._phases, dtype=float)
        return timestamps, positions, phases

    def window_segments(self) -> np.ndarray | None:
        """Segment ids of the window, or ``None`` when single-segment."""
        if not self._has_segments:
            return None
        return np.array(self._segments, dtype=int)

    def window_profile(self) -> np.ndarray:
        """Preprocessed profile of the window, bit-identical to the batch path.

        Reconstructs the unwrap from the per-read corrections (same
        values and accumulation order as ``np.unwrap`` on the window's
        raw phases) and applies the localizer's per-segment smoothing.
        """
        phases = np.array(self._phases, dtype=float)
        if phases.size == 0:
            return phases
        corrections = np.array(self._corrections, dtype=float)
        profile = phases.copy()
        if phases.size > 1:
            profile[1:] = phases[1:] + np.cumsum(corrections[1:])
        return self.localizer.smooth_profile(profile, self.window_segments())

    # ------------------------------------------------------------------
    def prepare(self, reference_index: int | None = None) -> PreparedScan:
        """Reduce the current window to its solve-ready pieces.

        Equivalent to :meth:`LionLocalizer.prepare` on the window's raw
        reads, with the unwrap taken from the incremental continuation.

        Raises:
            TooFewReadsError: with fewer than three reads in the window.
            DegenerateGeometryError / ValueError: as on the batch path.
        """
        if len(self._phases) < 3:
            raise TooFewReadsError("need at least three reads to localize")
        template = self.localizer.scan_template(
            np.array(self._positions, dtype=float),
            self.window_segments(),
            reference_index=reference_index,
        )
        return self.localizer.complete_scan(template, self.window_profile())

    def resolve(self, interval_m: float | None = None) -> LocalizationResult:
        """Windowed re-solve, bit-identical to ``locate`` on the same window.

        Pairs and phase-independent radical-row geometry come from the
        cross-call recipe cache (:func:`cached_assembly_recipe`) keyed on
        window content, exactly like the serving engine's fused batch
        path; the solve and lower-dimension recovery are
        :meth:`LionLocalizer._solve_prepared` on that recipe.
        """
        prepared = self.prepare()
        positions = np.array(self._positions, dtype=float)
        scan_key = (content_digest(positions), content_digest(self.window_segments()))
        recipe = cached_assembly_recipe(
            self.localizer,
            prepared,
            interval_m or self.localizer.interval_m,
            scan_key,
            content_digest(None),
        )
        return self.localizer._solve_prepared(prepared, recipe=recipe)

    def reset(self) -> None:
        """Drop the whole window (new target / new session)."""
        self._timestamps.clear()
        self._positions.clear()
        self._phases.clear()
        self._corrections.clear()
        self._segments.clear()
        self._has_segments = False
        self._appended = 0
