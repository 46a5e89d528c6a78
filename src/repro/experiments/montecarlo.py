"""Generic Monte-Carlo evaluation harness.

Every figure runner repeats a scenario over random draws and aggregates
errors; this module factors that pattern into a reusable, testable
utility with confidence intervals, so new studies (and downstream users'
own evaluations) don't re-implement the loop. Trials run
deterministically: trial ``k`` receives ``default_rng(seed + k)``, so the
draw a trial sees depends only on ``(seed, k)`` — never on which worker
ran it. Fanning trials out over the executor backends of
:mod:`repro.parallel` therefore yields bit-identical results to the
serial loop.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.obs import (
    collect_manifest,
    get_registry,
    metrics_enabled,
    span,
    tracing_enabled,
)
from repro.parallel import Executor, get_executor

#: A trial returns one or more named scalar outcomes (e.g. per-method errors).
TrialFunction = Callable[[np.random.Generator], Dict[str, float]]


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregated outcomes of one named metric.

    Attributes:
        name: the metric key.
        samples: raw per-trial values (NaNs from failed trials removed).
        mean / std / median: the usual statistics.
        ci_low / ci_high: bootstrap confidence interval on the mean.
        failures: trials that raised or returned NaN for this metric.
    """

    name: str
    samples: np.ndarray
    mean: float
    std: float
    median: float
    ci_low: float
    ci_high: float
    failures: int


@dataclass(frozen=True)
class MonteCarloResult:
    """All metrics of a study, keyed by name.

    Attributes:
        summaries: per-metric aggregates, keyed by metric name.
        trials: requested trial count.
        manifest: :class:`repro.obs.RunManifest` provenance of the run
            (git SHA, seed, jobs, config hash, package versions) as a
            plain dict — benchmarks embed it into their ``BENCH_*.json``.
        timing: wall-clock summary: ``wall_seconds``, ``trials``, and
            ``trials_per_second``.
    """

    summaries: Dict[str, MonteCarloSummary]
    trials: int
    manifest: Dict[str, object] | None = None
    timing: Dict[str, float] | None = None

    def __getitem__(self, name: str) -> MonteCarloSummary:
        return self.summaries[name]

    def format_table(self) -> str:
        """Aligned text table of all metrics."""
        header = f"{'metric':<24} {'mean':>10} {'std':>10} {'median':>10} {'95% CI':>23} {'n':>5}"
        lines = [header, "-" * len(header)]
        for summary in self.summaries.values():
            ci = f"[{summary.ci_low:.4g}, {summary.ci_high:.4g}]"
            lines.append(
                f"{summary.name:<24} {summary.mean:>10.4g} {summary.std:>10.4g} "
                f"{summary.median:>10.4g} {ci:>23} {summary.samples.size:>5}"
            )
        return "\n".join(lines)


def _bootstrap_ci(
    samples: np.ndarray,
    rng: np.random.Generator,
    confidence: float,
    resamples: int,
) -> tuple[float, float]:
    if samples.size == 1:
        return float(samples[0]), float(samples[0])
    means = np.empty(resamples)
    for index in range(resamples):
        draw = rng.choice(samples, size=samples.size, replace=True)
        means[index] = float(np.mean(draw))
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.percentile(means, alpha * 100.0)),
        float(np.percentile(means, (1.0 - alpha) * 100.0)),
    )


def _execute_trial(
    trial: TrialFunction, seed: int, k: int
) -> Tuple[str, Dict[str, float] | BaseException]:
    """Run trial ``k`` with its own generator; never raises.

    Module-level (and dispatched via :func:`functools.partial`) so the
    process backend can pickle it. Exceptions are captured and returned
    so failure accounting stays in the coordinating process regardless of
    backend.
    """
    rng = np.random.default_rng(seed + k)
    if tracing_enabled():
        with span("trial", index=k):
            try:
                return ("ok", trial(rng))
            except Exception as error:
                return ("error", error)
    try:
        return ("ok", trial(rng))
    except Exception as error:
        return ("error", error)


def run_monte_carlo(
    trial: TrialFunction,
    trials: int,
    seed: int = 0,
    confidence: float = 0.95,
    bootstrap_resamples: int = 500,
    tolerate_failures: bool = True,
    bootstrap_seed: int | None = None,
    executor: str | Executor | None = "serial",
    jobs: int | None = None,
) -> MonteCarloResult:
    """Run ``trial`` repeatedly and aggregate its named outcomes.

    Args:
        trial: callable receiving a per-trial generator and returning a
            dict of scalar outcomes. Raising marks the trial failed.
        trials: number of repetitions.
        seed: base seed; trial ``k`` uses ``default_rng(seed + k)``.
        confidence: bootstrap CI level for the mean.
        bootstrap_resamples: bootstrap resampling count.
        tolerate_failures: when False, a raising trial propagates (the
            earliest failed trial's exception, on every backend).
        bootstrap_seed: explicit seed for the bootstrap-CI resampling;
            defaults to a value derived from ``seed``. Fix it to get
            identical CIs for identical samples across studies.
        executor: backend for fanning trials out — ``"serial"``,
            ``"thread"``, ``"process"``, or a prebuilt
            :class:`repro.parallel.Executor`. Results are bit-identical
            across backends; the process backend needs a picklable
            (module-level) ``trial``.
        jobs: worker count for pool backends; defaults to the CLI
            ``--jobs`` value, ``LION_JOBS``, or the CPU count.

    Raises:
        ValueError: for a non-positive trial count, a bad confidence
            level, or when every trial failed.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")

    runner = get_executor(executor, jobs=jobs)
    start = time.perf_counter()
    with span("monte_carlo", trials=trials, seed=seed, backend=runner.name):
        raw = runner.map(functools.partial(_execute_trial, trial, seed), range(trials))
    wall_seconds = time.perf_counter() - start

    collected: Dict[str, List[float]] = {}
    failures: Dict[str, int] = {}
    failed_trials = 0
    for status, payload in raw:
        if status == "error":
            if not tolerate_failures:
                raise payload
            failed_trials += 1
            continue
        for name, value in payload.items():
            collected.setdefault(name, [])
            failures.setdefault(name, 0)
            if np.isfinite(value):
                collected[name].append(float(value))
            else:
                failures[name] += 1
    if metrics_enabled():
        registry = get_registry()
        registry.counter("monte_carlo.trials_total", status="ok").inc(
            trials - failed_trials
        )
        registry.counter("monte_carlo.trials_total", status="failed").inc(failed_trials)
    if not collected or all(len(v) == 0 for v in collected.values()):
        raise ValueError("every trial failed; nothing to aggregate")

    if bootstrap_seed is None:
        bootstrap_seed = seed ^ 0x5EED
    ci_rng = np.random.default_rng(bootstrap_seed)
    summaries: Dict[str, MonteCarloSummary] = {}
    for name, values in collected.items():
        samples = np.asarray(values, dtype=float)
        if samples.size == 0:
            continue
        low, high = _bootstrap_ci(samples, ci_rng, confidence, bootstrap_resamples)
        summaries[name] = MonteCarloSummary(
            name=name,
            samples=samples,
            mean=float(np.mean(samples)),
            std=float(np.std(samples)),
            median=float(np.median(samples)),
            ci_low=low,
            ci_high=high,
            failures=failures.get(name, 0) + failed_trials,
        )
    manifest = collect_manifest(
        seed=seed,
        jobs=getattr(runner, "jobs", 1),
        config={
            "trials": trials,
            "confidence": confidence,
            "bootstrap_resamples": bootstrap_resamples,
            "bootstrap_seed": bootstrap_seed,
            "executor": runner.name,
        },
    )
    timing = {
        "wall_seconds": wall_seconds,
        "trials": float(trials),
        "trials_per_second": trials / wall_seconds if wall_seconds > 0 else 0.0,
    }
    return MonteCarloResult(
        summaries=summaries, trials=trials, manifest=manifest.to_dict(), timing=timing
    )


def compare_methods(
    result: MonteCarloResult, method_a: str, method_b: str
) -> float:
    """Fraction of paired trials where ``method_a`` beat ``method_b``.

    Both metrics must have the same sample count (paired trials).

    Raises:
        KeyError: for unknown metric names.
        ValueError: for unpaired sample counts.
    """
    a = result[method_a].samples
    b = result[method_b].samples
    if a.size != b.size:
        raise ValueError(
            f"unpaired samples: {method_a} has {a.size}, {method_b} has {b.size}"
        )
    return float(np.mean(a < b))
