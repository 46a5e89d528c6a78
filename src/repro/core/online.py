"""Online (streaming) LION: recursive least squares over radical rows.

The batch localizer re-solves from scratch per scan — cheap, but an edge
node tracking a conveyor wants an estimate that *updates per read* in
O(1). Because LION's model is linear, recursive least squares applies
directly: each incoming read is unwrapped against its predecessor, paired
with the read one lag behind it, converted to a radical row, and folded
into the running normal equations

``N += w · aᵀa``,  ``b += w · a·k``,  estimate ``= N⁻¹ b``

with an optional exponential forgetting factor for slowly drifting
geometry and a robust gate that down-weights rows whose innovation
(pre-fit residual) is an outlier — the streaming counterpart of the
paper's Gaussian residual weighting.

The estimator solves the same unknowns as the batch model
(``[x, y, (z,) d_r]``); lower-dimension recovery is applied on demand in
:meth:`OnlineLionLocalizer.estimate` using the reference read, so a
straight conveyor works out of the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Deque, Optional
from collections import deque

import numpy as np

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.lowerdim import recover_coordinate_from_reference
from repro.core.radical import _coincident, radical_row


@dataclass(frozen=True)
class OnlineEstimate:
    """A point-in-time estimate from the streaming localizer.

    Attributes:
        position: estimated target position, shape ``(dim,)``.
        reference_distance_m: estimated ``d_r``.
        reads: reads consumed so far.
        rows: radical rows folded in so far.
        recovered_axis: coordinate recovered via the lower-dimension path,
            or ``None``.
    """

    position: np.ndarray
    reference_distance_m: float
    reads: int
    rows: int
    recovered_axis: Optional[int]


@dataclass
class OnlineLionLocalizer:
    """Streaming LION estimator.

    Attributes:
        dim: answer dimension, 2 or 3.
        wavelength_m: carrier wavelength.
        pair_lag: each read is paired with the read ``pair_lag`` positions
            earlier; at a fixed read rate and speed this is a fixed
            scanning interval.
        forgetting: exponential forgetting factor in ``(0, 1]``; 1 keeps
            all history (static target), lower values track drift.
        gate_threshold: robust gate — rows whose |innovation| exceeds
            ``gate_threshold`` times the running innovation scale get the
            corresponding Gaussian down-weight. 0 disables gating.
        positive_side: deployment prior for lower-dimension recovery.
        min_rows: rows required before :meth:`estimate` returns a value.
    """

    dim: int = 2
    wavelength_m: float = DEFAULT_WAVELENGTH_M
    pair_lag: int = 150
    forgetting: float = 1.0
    gate_threshold: float = 4.0
    positive_side: bool = True
    min_rows: int = 10

    _normal: np.ndarray = field(init=False, repr=False)
    _moment: np.ndarray = field(init=False, repr=False)
    _window: Deque[tuple[np.ndarray, float]] = field(init=False, repr=False)
    _last_phase: float | None = field(init=False, repr=False, default=None)
    _unwrapped: float = field(init=False, repr=False, default=0.0)
    _reference: tuple[np.ndarray, float] | None = field(init=False, repr=False, default=None)
    _reads: int = field(init=False, repr=False, default=0)
    _rows: int = field(init=False, repr=False, default=0)
    _innovation_scale: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.wavelength_m <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.pair_lag < 1:
            raise ValueError("pair lag must be at least 1")
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError("forgetting factor must be in (0, 1]")
        size = self.dim + 1
        self._normal = np.zeros((size, size))
        self._moment = np.zeros(size)
        self._window = deque(maxlen=self.pair_lag + 1)

    # ------------------------------------------------------------------
    def add_read(self, position: "np.ndarray | tuple", wrapped_phase_rad: float) -> None:
        """Ingest one read (known position + reported wrapped phase).

        Reads must arrive in scan order with sub-half-wavelength spacing
        (the usual unwrapping condition).

        Raises:
            ValueError: on a position of the wrong dimensionality.
        """
        point = np.asarray(position, dtype=float)[: self.dim]
        if point.shape[0] != self.dim:
            raise ValueError(f"position must have at least {self.dim} axes")
        phase = float(wrapped_phase_rad)

        # Incremental unwrap against the previous read.
        if self._last_phase is None:
            self._unwrapped = phase
        else:
            jump = phase - self._last_phase
            jump = (jump + np.pi) % TWO_PI - np.pi
            self._unwrapped += jump
        self._last_phase = phase
        self._reads += 1

        if self._reference is None:
            self._reference = (point.copy(), self._unwrapped)
        ref_point, ref_phase = self._reference
        delta = (self.wavelength_m / (2.0 * TWO_PI)) * (self._unwrapped - ref_phase)

        self._window.append((point.copy(), delta))
        if len(self._window) <= self.pair_lag:
            return
        old_point, old_delta = self._window[0]
        if _coincident(old_point, point):
            return
        coefficients, kappa = radical_row(old_point, old_delta, point, delta)
        self._fold(coefficients, kappa)

    def _fold(self, coefficients: np.ndarray, kappa: float) -> None:
        weight = 1.0
        if self.gate_threshold > 0.0 and self._rows >= self.min_rows:
            estimate = self._solve()
            if estimate is not None:
                innovation = float(coefficients @ estimate - kappa)
                magnitude = abs(innovation)
                # Running exponential estimate of the innovation scale.
                self._innovation_scale = (
                    0.98 * self._innovation_scale + 0.02 * magnitude
                    if self._innovation_scale > 0.0
                    else magnitude
                )
                scale = max(self._innovation_scale, 1e-12)
                if magnitude > self.gate_threshold * scale:
                    weight = float(
                        np.exp(-((magnitude / scale - self.gate_threshold) ** 2) / 2.0)
                    )
        if self.forgetting < 1.0:
            self._normal *= self.forgetting
            self._moment *= self.forgetting
        self._normal += weight * np.outer(coefficients, coefficients)
        self._moment += weight * coefficients * kappa
        self._rows += 1

    def _solve(self) -> np.ndarray | None:
        try:
            return np.linalg.lstsq(self._normal, self._moment, rcond=None)[0]
        except np.linalg.LinAlgError:
            return None

    # ------------------------------------------------------------------
    @property
    def reads(self) -> int:
        """Reads ingested so far."""
        return self._reads

    @property
    def rows(self) -> int:
        """Radical rows folded in so far."""
        return self._rows

    def ready(self) -> bool:
        """Whether enough rows have accumulated for an estimate."""
        return self._rows >= self.min_rows

    def estimate(self) -> OnlineEstimate:
        """Current estimate, with lower-dimension recovery if needed.

        Raises:
            ValueError: before :meth:`ready` or if the normal equations
                are degenerate.
        """
        if not self.ready():
            raise ValueError(
                f"need at least {self.min_rows} rows, have {self._rows}"
            )
        solution = self._solve()
        if solution is None:
            raise ValueError("normal equations are degenerate")
        position = solution[: self.dim].copy()
        d_r = float(solution[self.dim])
        recovered: Optional[int] = None

        # Detect coordinates the stream never excited (zero diagonal).
        diagonal = np.diag(self._normal)[: self.dim]
        scale = max(float(diagonal.max()), 1.0)
        dead = np.flatnonzero(diagonal < 1e-12 * scale)
        if dead.size == 1 and self._reference is not None:
            recovered = int(dead[0])
            ref_point, _ = self._reference
            result = recover_coordinate_from_reference(
                position,
                recovered,
                max(d_r, 0.0),
                ref_point,
                positive_side=self.positive_side,
            )
            position = result.position
        elif dead.size > 1:
            raise ValueError("stream geometry is degenerate along multiple axes")
        return OnlineEstimate(
            position=position,
            reference_distance_m=d_r,
            reads=self._reads,
            rows=self._rows,
            recovered_axis=recovered,
        )

    def reset(self) -> None:
        """Clear all state (new scan / new target)."""
        size = self.dim + 1
        self._normal = np.zeros((size, size))
        self._moment = np.zeros(size)
        self._window.clear()
        self._last_phase = None
        self._unwrapped = 0.0
        self._reference = None
        self._reads = 0
        self._rows = 0
        self._innovation_scale = 0.0
