"""Fused vs per-cell throughput of the adaptive (range, interval) sweep.

Runs the paper's default 6x6 sweep grid over a Monte-Carlo-style sequence
of re-noised scans, once as the per-cell reference (a plain loop of
``LionLocalizer.locate`` over the grid cells) and once through the fused
engine (shared preparation, cached pairing, batch IRLS), asserts every
cell's answer is bit-identical per repeat, and records cells/second, the
fused speedup, and the pairing-cache hit rate as JSON
(``BENCH_adaptive_sweep.json``). CI runs the quick sizing on every PR,
uploads the JSON, and fails if fused cells/second regresses more than
20% against ``benchmarks/baselines/BENCH_adaptive_sweep.json``.

Run directly for the JSON report::

    PYTHONPATH=src python benchmarks/bench_adaptive_sweep.py --out BENCH_adaptive_sweep.json
    PYTHONPATH=src python benchmarks/bench_adaptive_sweep.py --quick   # CI smoke sizing

or under pytest-benchmark along with the other benches::

    PYTHONPATH=src pytest benchmarks/bench_adaptive_sweep.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List

import numpy as np

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.adaptive import ParameterGrid, _adaptive_localize_impl
from repro.core.localizer import LionLocalizer
from repro.core.sweep import clear_pair_cache, pair_cache_info
from repro.obs import collect_manifest

#: Reads per scan; the paper-scale line scan the sweep masks down.
READS = 400

_TARGET = np.array([0.08, 0.85])
_X = np.linspace(-0.6, 0.6, READS)
_POSITIONS = np.stack([_X, np.zeros_like(_X)], axis=1)
_DISTANCES = np.linalg.norm(_POSITIONS - _TARGET, axis=1)


def _phases(seed: int) -> np.ndarray:
    """One re-noised wrapped profile of the fixed trajectory."""
    rng = np.random.default_rng(seed)
    return np.mod(
        2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * _DISTANCES
        + 0.4
        + rng.normal(0.0, 0.05, READS),
        TWO_PI,
    )


def _per_cell_sweep(localizer, phases, grid):
    """The reference: one ``locate()`` per grid cell; each solved cell's position."""
    profile = localizer.preprocess_phase(phases)
    offsets = np.abs(_POSITIONS[:, grid.axis] - grid.center)
    positions = []
    for range_m in grid.ranges_m:
        exclude = offsets > range_m / 2.0
        for interval_m in grid.intervals_m:
            if interval_m >= range_m:
                continue
            try:
                result = localizer.locate(
                    _POSITIONS,
                    profile,
                    exclude_mask=exclude,
                    interval_m=interval_m,
                    assume_preprocessed=True,
                )
            except ValueError:
                continue
            positions.append(result.position)
    return positions


def _fused_sweep(localizer, phases, grid):
    """The adaptive sweep; each solved cell's position."""
    result = _adaptive_localize_impl(localizer, _POSITIONS, phases, grid=grid)
    return [outcome.result.position for outcome in result.outcomes]


def run_study(repeats: int) -> Dict[str, object]:
    """Time both sweep paths over ``repeats`` re-noised scans."""
    grid = ParameterGrid()
    cells = sum(
        1
        for range_m in grid.ranges_m
        for interval_m in grid.intervals_m
        if interval_m < range_m
    )
    localizer = LionLocalizer(dim=2)
    profiles = [_phases(seed) for seed in range(repeats)]

    timings: Dict[str, float] = {}
    positions: Dict[str, List[List[np.ndarray]]] = {}
    clear_pair_cache()
    for mode, sweep in (("per_cell", _per_cell_sweep), ("fused", _fused_sweep)):
        start = time.perf_counter()
        positions[mode] = [sweep(localizer, phases, grid) for phases in profiles]
        timings[mode] = time.perf_counter() - start
    cache = pair_cache_info()

    # The fused engine must not change the answer, only the wall clock.
    for ours, theirs in zip(positions["fused"], positions["per_cell"]):
        assert len(ours) == len(theirs), "fused sweep changed the result"
        for mine, ref in zip(ours, theirs):
            assert np.array_equal(mine, ref), "fused sweep changed the result"

    cells_per_sec = {
        mode: cells * repeats / seconds for mode, seconds in timings.items()
    }
    lookups = cache["hits"] + cache["misses"]
    return {
        "benchmark": "adaptive_sweep_fused",
        "repeats": repeats,
        "reads": READS,
        "grid_cells": cells,
        "cpu_count": os.cpu_count(),
        "seconds": {mode: round(seconds, 4) for mode, seconds in timings.items()},
        "cells_per_sec": {
            mode: round(rate, 2) for mode, rate in cells_per_sec.items()
        },
        "speedup_fused": round(cells_per_sec["fused"] / cells_per_sec["per_cell"], 3),
        "pair_cache": {
            "hits": cache["hits"],
            "misses": cache["misses"],
            "hit_rate": round(cache["hits"] / lookups, 4) if lookups else 0.0,
        },
        "manifest": collect_manifest(
            seed=0, config={"repeats": repeats, "reads": READS, "grid_cells": cells}
        ).to_dict(),
    }


def test_bench_adaptive_sweep_fused_matches(benchmark):
    """Smoke-sized study: fused path is bit-identical and faster."""
    payload = benchmark.pedantic(run_study, kwargs={"repeats": 4}, iterations=1, rounds=1)
    print()
    print("== adaptive sweep, cells/second ==")
    for mode, rate in payload["cells_per_sec"].items():
        print(f"  {mode:>9}: {rate:9.1f}")
    print(f"  fused speedup: {payload['speedup_fused']:.2f}x")
    print(f"  pair-cache hit rate: {payload['pair_cache']['hit_rate']:.0%}")
    assert payload["speedup_fused"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats",
        type=int,
        default=30,
        help="re-noised sweeps per mode (default: 30)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizing (8 repeats)"
    )
    parser.add_argument(
        "--out", default="BENCH_adaptive_sweep.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    repeats = 8 if args.quick else args.repeats
    payload = run_study(repeats)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
