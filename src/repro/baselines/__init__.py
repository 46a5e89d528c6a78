"""Baseline localization methods the paper compares against.

* :mod:`repro.baselines.hologram` — Tagoram's Differential Augmented
  Hologram (DAH) [2], the paper's principal accuracy/time comparator:
  grid search over a likelihood image built from phase differences.
* :mod:`repro.baselines.hyperbola` — hyperbola/TDoA model solved by
  nonlinear least squares [6, 14-19]: accurate but requires iterating on
  quadratic equations.
* :mod:`repro.baselines.parabola` — the parabola-fit method [8]: 2D only,
  linear scanning only.
* :mod:`repro.baselines.angle` — a Tagspin-style [7] rotating-tag AoA
  method: circular scanning only.

Each baseline is served by name through the :mod:`repro.pipeline`
registry (``hologram``, ``hyperbola``, ``parabola``, ``angle``) on the
same :class:`~repro.pipeline.EstimationRequest` LION consumes, so
experiment runners can swap methods freely.
"""

from repro.baselines.hologram import (
    DifferentialHologram,
    HologramResult,
    hologram_likelihood,
)
from repro.baselines.hyperbola import HyperbolaResult
from repro.baselines.parabola import ParabolaResult
from repro.baselines.angle import RotatingTagResult

__all__ = [
    "DifferentialHologram",
    "HologramResult",
    "hologram_likelihood",
    "HyperbolaResult",
    "ParabolaResult",
    "RotatingTagResult",
]
