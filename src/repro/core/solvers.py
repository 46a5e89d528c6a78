"""Least-squares solvers for the radical-equation system (Eq. 13-16).

``solve_least_squares`` is the plain normal-equation solution Eq. (13);
``solve_weighted_least_squares`` is the paper's iteratively re-weighted
variant: solve, compute residuals, weight each equation by
:func:`repro.core.weights.gaussian_residual_weights`, re-solve the
weighted normal equations ``(AᵀWA) X = AᵀWK`` (Eq. 16), and repeat until
the estimate stops moving. Every float64 entry point runs one batched
kernel, :func:`_irls`: each round forms ``[AᵀWA | AᵀWK]`` per member in
one stacked GEMM and solves ``AᵀWA [X | C] = [AᵀWK | I]``, so the
inverse ``C`` — and with it the estimate's covariance ``s² C`` — comes
with every round for free. The scalar solvers are a batch of one, and
the batch solvers stack members that share a shape, so each member's
Gram comes from its own unpadded rows and its answer is bit-identical
whatever its batchmates.

The paper re-weights until the estimate moves "less than the given
threshold". Here that threshold is the larger of ``tolerance_m`` and
:data:`STOP_FRACTION` times the estimate's own standard error
``sqrt(s² tr C)``, so the stop scales with what the data can resolve;
the floor stops noiseless data, whose standard error is 0. Members the
normal equations cannot solve reliably (underdetermined, singular,
ill-conditioned or non-finite) restart on a factored solve of the
sqrt-weighted rows, never a wrong answer.

The *mean weighted residual* of the final solve is retained on the
returned :class:`Solution` — it is the signal the adaptive parameter
selection scheme (Sec. IV-C1) thresholds on: estimates whose mean residual
sits near zero were produced from cleaner data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.system import LinearSystem
from repro.core.weights import gaussian_residual_weights
from repro.obs import (
    ITERATION_BUCKETS,
    RESIDUAL_BUCKETS_M,
    UNIT_BUCKETS,
    get_registry,
    metrics_enabled,
    obs_enabled,
    span,
    tracing_enabled,
)
from repro.obs.trace import NULL_SPAN

WeightFunction = Callable[[np.ndarray], np.ndarray]

#: A member stops re-weighting once a round moves its estimate by less
#: than this fraction of the estimate's standard error ``sqrt(s² tr C)``.
#: The estimate is a maximum-likelihood answer whose own spread is that
#: standard error; the IRLS steps shrink geometrically (by a factor ``ρ``
#: of 0.3-0.75 per round on portal and survey scans), so after a step
#: below ``f σ`` the rest of the trajectory can move the answer by at most
#: ``f σ ρ / (1 - ρ)``: 0.1 σ at ``ρ = 0.5`` and 0.3 σ at ``ρ = 0.75``.
#: A move of 0.3 σ, uncorrelated with the answer's error, adds at most
#: ``sqrt(1 + 0.3²) - 1 = 4.4%`` to its RMS error; the iterations below
#: that cannot change the answer measurably against its own spread.
STOP_FRACTION = 0.1

#: A member whose Jacobi-scaled Gram ``D AᵀWA D`` (unit diagonal) has an
#: inverse trace above this is ejected to the factored solve. The trace
#: bounds the scaled condition number within a factor of the column
#: count, so the normal equations keep about 8 significant digits on
#: every member they answer; the radical systems read at most ~400.
CONDITION_LIMIT = 1e8


def _weight_entropy(weights: np.ndarray) -> float:
    """Normalized Shannon entropy of the weight distribution, in [0, 1].

    1.0 means uniform weights (no equation dominates); values near 0 mean
    the solve concentrated on a few equations — a robustness red flag.
    """
    total = float(np.sum(weights))
    if total <= 0.0 or weights.size <= 1:
        return 1.0
    p = weights / total
    nonzero = p[p > 0.0]
    return float(-np.sum(nonzero * np.log(nonzero)) / np.log(weights.size))


def _record_solve_metrics(kind: str, solution: "Solution") -> None:
    """Fold one IRLS solve's convergence summary into the global registry.

    Both the scalar and the batched solver call this per system with the
    same field meanings, so their emitted metrics are directly comparable
    (``tests/test_obs.py`` asserts identical iteration histograms).
    """
    registry = get_registry()
    registry.counter("solver.solves_total", solver=kind).inc()
    registry.counter(
        "solver.converged_total" if solution.converged else "solver.unconverged_total",
        solver=kind,
    ).inc()
    if solution.converged:
        # A "freeze": the member stopped iterating before the cap.
        registry.counter("solver.convergence_freezes_total", solver=kind).inc()
    registry.histogram(
        "solver.irls_iterations", buckets=ITERATION_BUCKETS, solver=kind
    ).observe(solution.iterations)
    registry.histogram(
        "solver.final_residual_norm", buckets=RESIDUAL_BUCKETS_M, solver=kind
    ).observe(float(np.linalg.norm(solution.residuals)))
    registry.histogram(
        "solver.weight_entropy", buckets=UNIT_BUCKETS, solver=kind
    ).observe(_weight_entropy(solution.weights))
    if solution.position_std_m is not None:
        registry.histogram(
            "solver.position_std_m", buckets=RESIDUAL_BUCKETS_M, solver=kind
        ).observe(float(np.linalg.norm(solution.position_std_m)))


@dataclass(frozen=True)
class Solution:
    """Result of a (weighted) least-squares solve.

    Attributes:
        estimate: solved unknowns ``[x, y, (z,) d_r]``, shape ``(dim + 1,)``.
        residuals: final per-equation residuals ``A X - K``.
        normalized_residuals: residuals divided by each row's coefficient
            norm — a distance-like (meters) measure of how far the
            estimate sits from each radical line/plane, comparable across
            scanning ranges and intervals.
        weights: final per-equation weights (all ones for plain LS).
        iterations: number of weighted re-solves performed (0 for plain LS).
        converged: whether the iteration met its stop rule before the
            round cap (True for LS).
        position_std_m: per-axis formal standard error of the position
            part of ``estimate``, ``sqrt(diag(s² (AᵀWA)⁻¹))`` with
            ``s² = Σ w r² / (Σ w - live columns)``; 0 on a pinned dead
            axis. It treats the radical rows as independent, while
            neighbouring rows share reads, so it is optimistic: on portal
            scans it reads 0.4-1.6 mm against actual errors of 2-8 mm.
            ``None`` on the float32 kernel's answers.
    """

    estimate: np.ndarray
    residuals: np.ndarray
    normalized_residuals: np.ndarray
    weights: np.ndarray
    iterations: int
    converged: bool
    position_std_m: np.ndarray | None = None

    @property
    def position(self) -> np.ndarray:
        """The spatial part of the estimate (without ``d_r``)."""
        return self.estimate[:-1]

    @property
    def reference_distance(self) -> float:
        """The estimated reference distance ``d_r``, meters."""
        return float(self.estimate[-1])

    @property
    def mean_residual(self) -> float:
        """Weighted mean of the normalized residuals, meters.

        This is the adaptive-selection signal (Sec. IV-C1): the cleaner
        the data the closer it sits to zero. Residuals are normalized by
        their rows' coefficient norms first — raw residuals are in m^2
        with a scale that depends on the scanning interval, and for a
        linear scan the raw *weighted mean* is structurally pinned to ~0
        (the constant sweep-axis column makes the all-ones vector lie in
        the weighted column span), carrying no information.
        """
        total = float(np.sum(self.weights))
        if total == 0.0:
            return float(np.mean(self.normalized_residuals))
        return float(np.sum(self.weights * self.normalized_residuals) / total)

    @property
    def mean_abs_residual(self) -> float:
        """Unweighted mean |normalized residual|, meters — data dirtiness."""
        return float(np.mean(np.abs(self.normalized_residuals)))

    @property
    def rms_residual(self) -> float:
        """Unweighted RMS of the raw residuals (m^2 units)."""
        return float(np.sqrt(np.mean(self.residuals**2)))


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    return np.where(norms > 0.0, norms, 1.0)


def residual_variance(
    weights: np.ndarray, residuals: np.ndarray, unknowns: np.ndarray | int
) -> np.ndarray:
    """``s² = Σ w r² / (Σ w - unknowns)`` per row of ``(k, n)`` stacks.

    The variance factor of the covariance ``s² (AᵀWA)⁻¹``, shared by the
    IRLS kernel and :mod:`repro.core.uncertainty`. Members without
    redundancy (``Σ w <= unknowns``) read 0, which leaves the IRLS stop
    rule on its ``tolerance_m`` floor.
    """
    dof = weights.sum(axis=1) - unknowns
    spread = (weights * residuals * residuals).sum(axis=1)
    return np.divide(spread, dof, out=np.zeros_like(spread), where=dof > 0.0)


class _Group:
    """The members of one shape in an :func:`_irls` run, and their state.

    Everything computed from a member's rows — the Gram, the residuals,
    the weights and their sums — runs over this stack of its own unpadded
    rows, so no member sees another's row count.
    """

    def __init__(self, ids: np.ndarray, matrices: np.ndarray, rhs: np.ndarray):
        self.ids = ids
        self.matrices = matrices
        self.augmented = np.concatenate([matrices, rhs[:, :, np.newaxis]], axis=2)
        self.extended = np.full((len(ids), matrices.shape[2] + 1, 1), -1.0)
        self.weights = np.ones(matrices.shape[:2])
        self.residuals = self.weights

    def residual(self, estimates: np.ndarray) -> np.ndarray:
        """``A X - K`` per member, as ``[A | K] @ [X, -1]``."""
        self.extended[:, :-1, 0] = estimates
        self.residuals = (self.augmented @ self.extended)[:, :, 0]
        return self.residuals

    def keep(self, mask: np.ndarray) -> None:
        for name in ("ids", "matrices", "augmented", "extended", "weights", "residuals"):
            setattr(self, name, getattr(self, name)[mask])


def _normal_round(
    groups: Sequence[_Group], dead: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One weighted normal-equation solve for every running member.

    Forms ``[AᵀWA | AᵀWK]`` in one stacked GEMM per group and solves
    ``AᵀWA [X | C] = [AᵀWK | I]`` (``right`` holds the identity block) in
    one LAPACK call. A dead (exactly zero) column has an exactly zero Gram
    row and column, so a unit diagonal pins its coefficient to the
    minimum-norm value 0 and leaves the live sub-problem unchanged.
    Returns the estimates, the diagonal of ``C``, and the conditioning
    measure ``Σ_i G_ii C_ii`` — the trace of the inverse Jacobi-scaled
    Gram, NaN or huge where the solve is singular or ill-conditioned.
    """
    cols = dead.shape[1]
    normal = np.concatenate(
        [
            (group.matrices.transpose(0, 2, 1) * group.weights[:, np.newaxis, :])
            @ group.augmented
            for group in groups
        ]
    )
    gram = normal[:, :, :cols]
    diagonal = np.einsum("kii->ki", gram)
    diagonal += dead
    right[:, :, 0] = normal[:, :, cols]
    try:
        solved = np.linalg.solve(gram, right)
    except np.linalg.LinAlgError:
        # An exactly singular member fails the whole stacked call; solve
        # member by member (the same LAPACK call per matrix) to find it.
        solved = np.full_like(right, np.nan)
        for member in range(len(gram)):
            try:
                solved[member] = np.linalg.solve(gram[member], right[member])
            except np.linalg.LinAlgError:
                pass
    inverse_diagonal = np.einsum("kii->ki", solved[:, :, 1:])
    conditioning = np.abs(diagonal * inverse_diagonal).sum(axis=1)
    return solved[:, :, 0], inverse_diagonal, conditioning


def _factored_round(
    groups: Sequence[_Group], dead: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The minimum-norm weighted solve of one member through an SVD.

    The fallback for a member :func:`_normal_round` rejects: an SVD of the
    sqrt-weighted live columns gives what ``np.linalg.lstsq`` computes
    (same rank cutoff), plus the diagonal of the pseudo-inverse
    ``(AᵀWA)⁺`` that the stop rule and the standard errors need. Dead
    columns are pinned to 0 as on the normal-equation path.
    """
    (group,) = groups
    (matrix,), (augmented,), (weights,) = group.matrices, group.augmented, group.weights
    keep = dead[0] == 0.0
    root = np.sqrt(weights)
    u, singular, vt = np.linalg.svd(
        matrix[:, keep] * root[:, np.newaxis], full_matrices=False
    )
    cutoff = np.finfo(float).eps * max(matrix.shape[0], int(keep.sum()))
    rank = int(np.sum(singular > cutoff * singular[0]))
    scaled_v = vt[:rank] / singular[:rank, np.newaxis]
    estimates = np.zeros(dead.shape)
    inverse_diagonal = np.zeros(dead.shape)
    estimates[0, keep] = scaled_v.T @ (u[:, :rank].T @ (augmented[:, -1] * root))
    inverse_diagonal[0, keep] = np.sum(scaled_v * scaled_v, axis=0)
    return estimates, inverse_diagonal, np.zeros(len(dead))


def _irls(
    groups: List[_Group],
    weight_function: WeightFunction,
    max_iterations: int,
    tolerance_m: float,
    round_solver=_normal_round,
    observe=None,
) -> List[Solution | None]:
    """The IRLS loop over every member of ``groups`` at once.

    Round 0 solves with unit weights (plain LS, Eq. 13). Each later round
    re-weights every member still running from its own residuals,
    re-solves, and stops the member once its step falls below
    ``max(tolerance_m, STOP_FRACTION * sqrt(s² tr C))``. Two data-only
    rules end a member early:

    * the LS guard — when round 1's standard error exceeds the plain-LS
      answer's, re-weighting discards information rather than outliers,
      and the member returns its round-0 answer with unit weights;
    * ejection — a member whose Gram fails the conditioning test (or
      whose answer is non-finite) comes back as ``None``, for the caller
      to restart on :func:`_factored_round`.

    Every operation is per member on the member's own rows, so a
    member's trajectory does not depend on its batchmates. Returns one
    entry per member, indexed by the groups' ``ids``.
    """
    count = sum(len(group.ids) for group in groups)
    cols = groups[0].matrices.shape[2]
    solutions: List[Solution | None] = [None] * count
    # Per-member operands in group order, subset together as members finish.
    live = np.concatenate([np.any(group.matrices != 0.0, axis=1) for group in groups])
    unknowns, dead = live.sum(axis=1), (~live).astype(float)
    right = np.zeros((count, cols, cols + 1))
    right[:, :, 1:] = np.eye(cols)
    tolerance_sq = tolerance_m * tolerance_m
    fraction_sq = STOP_FRACTION * STOP_FRACTION

    def solve():
        estimates, inverse_diagonal, conditioning = round_solver(groups, dead, right)
        inverse_diagonal = inverse_diagonal * live
        variance = np.empty(len(estimates))
        start = 0
        for group in groups:
            stop = start + len(group.ids)
            residuals = group.residual(estimates[start:stop])
            variance[start:stop] = residual_variance(
                group.weights, residuals, unknowns[start:stop]
            )
            start = stop
        error_sq = variance * inverse_diagonal.sum(axis=1)
        ok = (conditioning <= CONDITION_LIMIT) & np.isfinite(error_sq)
        return estimates, variance, inverse_diagonal, error_sq, ok

    estimates, variance, inverse_diagonal, error_sq, ok = solve()
    ls = (estimates, variance, inverse_diagonal, error_sq)
    met = np.full(count, max_iterations == 0)
    round_index = 0
    while True:
        done = ~ok | met | (round_index >= max_iterations)
        if observe is not None and round_index:
            observe(round_index, groups, steps_sq, int(done.sum()))
        if done.any():
            start = 0
            for group in groups:
                stop = start + len(group.ids)
                for position in np.flatnonzero(done[start:stop] & ok[start:stop]):
                    slot, residuals = start + position, group.residuals[position].copy()
                    norms = _row_norms(group.matrices[position])
                    solutions[group.ids[position]] = Solution(
                        estimate=estimates[slot].copy(),
                        residuals=residuals,
                        normalized_residuals=residuals / norms,
                        weights=group.weights[position].copy(),
                        iterations=round_index,
                        converged=bool(met[slot]),
                        position_std_m=np.sqrt(variance[slot] * inverse_diagonal[slot, :-1]),
                    )
                group.keep(~done[start:stop])
                start = stop
            if done.all():
                return solutions
            groups = [group for group in groups if len(group.ids)]
            keep = ~done
            estimates, live, unknowns, dead, right = (
                item[keep] for item in (estimates, live, unknowns, dead, right)
            )
            if round_index == 0:
                ls = tuple(item[keep] for item in ls)
        round_index += 1
        for group in groups:
            group.weights = np.stack([weight_function(row) for row in group.residuals])
        previous = estimates
        estimates, variance, inverse_diagonal, error_sq, ok = solve()
        steps_sq = np.square(estimates - previous).sum(axis=1)
        met = steps_sq < np.maximum(tolerance_sq, fraction_sq * error_sq)
        if round_index == 1:
            guard = ok & (error_sq > ls[3])
            if guard.any():
                for current, plain in zip((estimates, variance, inverse_diagonal), ls):
                    current[guard] = plain[guard]
                start = 0
                for group in groups:
                    stop = start + len(group.ids)
                    revert = guard[start:stop]
                    group.weights[revert] = 1.0
                    group.residual(estimates[start:stop])
                    start = stop
                met |= guard


def _solve_members(
    members: Sequence[Tuple[np.ndarray, np.ndarray]],
    weight_function: WeightFunction,
    max_iterations: int,
    tolerance_m: float,
    solver: str | None,
) -> List[Solution]:
    """Solve compact ``(matrix, rhs)`` members; one :class:`Solution` each.

    Members with the same column count run through one :func:`_irls`
    loop, stacked by row count; a member the normal equations eject
    restarts alone on :func:`_factored_round`. ``solver`` labels the
    telemetry (``"scalar"`` or ``"batch"``); plain LS passes ``None`` and
    records none.
    """
    if any(matrix.shape[0] == 0 for matrix, _ in members):
        raise ValueError("cannot solve an empty system")
    observing = solver is not None and obs_enabled()
    solve_span = (
        span(
            "solve",
            solver=solver,
            systems=len(members),
            equations=max(matrix.shape[0] for matrix, _ in members),
        )
        if observing and tracing_enabled()
        else NULL_SPAN
    )
    shapes: Dict[int, Dict[int, List[int]]] = {}
    for index, (matrix, _) in enumerate(members):
        rows, cols = matrix.shape
        shapes.setdefault(cols, {}).setdefault(rows, []).append(index)
    solutions: List[Solution] = [None] * len(members)  # type: ignore[list-item]
    with solve_span as sp:
        observe = None
        if observing:
            histogram = (
                get_registry().histogram(
                    "solver.iteration_residual_norm",
                    buckets=RESIDUAL_BUCKETS_M,
                    solver=solver,
                )
                if metrics_enabled()
                else None
            )

            def observe(round_index, groups, steps_sq, frozen):
                norms = np.concatenate(
                    [np.sqrt(np.sum(g.residuals * g.residuals, axis=1)) for g in groups]
                )
                sp.add_event(
                    iteration=round_index,
                    active=int(norms.size),
                    frozen=frozen,
                    residual_norm=float(np.mean(norms)),
                    step_m=float(np.sqrt(np.max(steps_sq))),
                )
                if histogram is not None:
                    for norm in norms:
                        histogram.observe(float(norm))

        for by_rows in shapes.values():
            order: List[int] = []
            groups: List[_Group] = []
            for indices in by_rows.values():
                groups.append(
                    _Group(
                        np.arange(len(order), len(order) + len(indices)),
                        np.stack([members[index][0] for index in indices]),
                        np.stack([members[index][1] for index in indices]),
                    )
                )
                order.extend(indices)
            solved = _irls(
                groups, weight_function, max_iterations, tolerance_m, observe=observe
            )
            for slot, index in enumerate(order):
                if solved[slot] is None:
                    matrix, rhs = members[index]
                    restart = _Group(np.zeros(1, dtype=int), matrix[None], rhs[None])
                    solved[slot] = _irls(
                        [restart],
                        weight_function,
                        max_iterations,
                        tolerance_m,
                        round_solver=_factored_round,
                    )[0]
                solutions[index] = solved[slot]
    if observing and metrics_enabled():
        for solution in solutions:
            _record_solve_metrics(solver, solution)
    return solutions


def _validate_iteration(max_iterations: int, tolerance_m: float) -> None:
    if max_iterations <= 0:
        raise ValueError(f"max_iterations must be positive, got {max_iterations}")
    if tolerance_m <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance_m}")


def _validate_stack(matrices: np.ndarray, rhs: np.ndarray, mask: np.ndarray) -> None:
    if matrices.ndim != 3:
        raise ValueError(f"matrices must be (b, max_rows, n), got {matrices.shape}")
    if rhs.shape != matrices.shape[:2]:
        raise ValueError(f"rhs must have shape {matrices.shape[:2]}, got {rhs.shape}")
    if mask.shape != rhs.shape:
        raise ValueError(f"row_mask must have shape {rhs.shape}, got {mask.shape}")


def solve_least_squares(system: LinearSystem) -> Solution:
    """Plain least squares (paper Eq. 13): round 0 of the IRLS kernel.

    Raises:
        ValueError: if the system has no equations.
    """
    (solution,) = _solve_members(
        [(system.matrix, system.rhs)], gaussian_residual_weights, 0, 1.0, None
    )
    return solution


def solve_weighted_least_squares(
    system: LinearSystem,
    weight_function: WeightFunction = gaussian_residual_weights,
    max_iterations: int = 20,
    tolerance_m: float = 1e-6,
) -> Solution:
    """Iteratively re-weighted least squares (paper Eq. 14-16).

    A batch of one through the kernel of
    :func:`solve_weighted_least_squares_batch`, so the two agree bit for
    bit.

    Args:
        system: the assembled radical-equation system.
        weight_function: residuals -> weights map; defaults to the paper's
            Gaussian-of-residual weights.
        max_iterations: cap on re-weighting rounds.
        tolerance_m: floor of the stop threshold: a round stops once the
            estimate moves less than the larger of this and
            :data:`STOP_FRACTION` times the estimate's standard error (the
            paper's "difference between the last estimation and the
            current estimation is less than the given threshold").

    Raises:
        ValueError: on an empty system or non-positive iteration/tolerance
            parameters.
    """
    _validate_iteration(max_iterations, tolerance_m)
    (solution,) = _solve_members(
        [(system.matrix, system.rhs)],
        weight_function,
        max_iterations,
        tolerance_m,
        "scalar",
    )
    return solution


def _gaussian_weights_rowwise(
    residuals: np.ndarray, mask: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Eq. (15) Gaussian weights per member of a padded residual stack.

    The vectorized twin of
    :func:`repro.core.weights.gaussian_residual_weights`: moment
    statistics run along axis 1 over each member's *valid* slice (padding
    rows are forced to zero residual and masked out of the mean/std), and
    the same degenerate-spread guard (``sigma <= 1e-12 * max(|r|, 1)`` ->
    uniform weights) applies per member. Runs in the input dtype — this
    is the float32 throughput path, which trades the scalar function's
    bit-for-bit float64 semantics for one ufunc pass over the batch.
    """
    dtype = residuals.dtype
    mu = residuals.sum(axis=1) / counts
    centered = (residuals - mu[:, np.newaxis]) * mask
    squared = centered * centered
    sigma = np.sqrt(squared.sum(axis=1) / counts)
    scale = np.maximum(np.abs(residuals).max(axis=1), dtype.type(1.0))
    degenerate = sigma <= dtype.type(1e-12) * scale
    safe_sigma = np.where(degenerate, dtype.type(1.0), sigma)
    weights = np.exp(-squared / (2.0 * safe_sigma * safe_sigma)[:, np.newaxis])
    weights[degenerate] = 1.0
    return weights * mask


def solve_weighted_least_squares_fast_batch(
    matrices: np.ndarray,
    rhs: np.ndarray,
    row_mask: np.ndarray,
    max_iterations: int = 20,
    tolerance_m: float = 5e-4,
) -> List[Solution]:
    """Approximate batched Gaussian-IRLS via normal equations, one GEMM per round.

    The float32 throughput kernel behind ``ServeConfig(dtype="float32")``.
    It solves the same Eq. (16) normal equations as the float64 kernel,
    but over the whole zero-padded batch in two batched GEMMs per round,
    with the vectorized Gaussian weights and a fixed ``tolerance_m``
    stop — faster, at the cost of exactness: run in float32 the
    estimates land within ~1e-4 m of the float64 scalar path on
    serving-scale systems (property-tested in
    ``tests/test_batch_prepare.py``), which is far below the phase-noise
    error floor of the physical setup.

    Exactly-zero coefficient columns (a line-frame scan never excites the
    cross axis) are pinned to the minimum-norm value 0 — their normal
    rows/columns are already exactly zero, so setting the diagonal to 1
    solves the live sub-problem unchanged, as the float64 kernel does.
    Members the kernel cannot solve reliably (singular or non-finite
    normal systems, underdetermined members) are ejected to the float64
    kernel individually, so results degrade to float64, never to garbage.
    Round 1 applies the float64 kernel's LS guard, so both kernels return
    the plain-LS answer on the same members.

    Args:
        matrices: coefficient stack, shape ``(b, max_rows, c)``, any float
            dtype (float32 is the intended use); valid rows must sit in a
            zero-padded prefix.
        rhs: right-hand sides, shape ``(b, max_rows)``, same dtype.
        row_mask: boolean validity mask, shape ``(b, max_rows)``, prefix
            form.
        max_iterations: cap on re-weighting rounds (per member).
        tolerance_m: per-member convergence threshold on estimate motion.
            The default 5e-4 trades ~1e-4 m of estimate motion for ~2x
            fewer IRLS rounds; float32 cannot resolve the scalar path's
            1e-6 either way.

    Raises:
        ValueError: on shape mismatches, an all-padding member, or
            non-positive iteration parameters.
    """
    _validate_iteration(max_iterations, tolerance_m)
    _validate_stack(matrices, rhs, row_mask)
    count, _, cols = matrices.shape
    if count == 0:
        return []
    dtype = matrices.dtype
    counts_int = row_mask.sum(axis=1)
    if np.any(counts_int == 0):
        raise ValueError("cannot solve an empty system")
    counts = counts_int.astype(dtype)
    mask = row_mask.astype(dtype)

    live = np.any(matrices != 0.0, axis=1)
    unknowns = live.sum(axis=1)
    fallback = counts_int < unknowns
    dead_member, dead_col = np.nonzero(~live)

    # Hoisted per-round operands: the transposed stack and the augmented
    # [A | K] block, so each round is exactly two batched GEMMs — scale
    # A^T by the weights, multiply into [A | K] to get [A^T W A | A^T W K].
    transposed = np.ascontiguousarray(matrices.transpose(0, 2, 1))
    augmented = np.concatenate([matrices, rhs[:, :, np.newaxis]], axis=2)

    estimates = np.zeros((count, cols), dtype=dtype)
    weights = mask.copy()
    frozen = np.zeros(count, dtype=bool)
    converged = np.zeros(count, dtype=bool)
    iterations = np.zeros(count, dtype=int)

    identity = np.broadcast_to(np.eye(cols, dtype=dtype), (count, cols, cols))

    def _normal_solve(round_weights: np.ndarray, inverse: bool = False):
        """One weighted normal-equation solve over the whole batch.

        With ``inverse``, also returns the diagonal of ``(AᵀWA)⁻¹`` from the
        same LAPACK call, for the LS guard's standard errors.
        """
        normal = (transposed * round_weights[:, np.newaxis, :]) @ augmented
        ata = normal[:, :, :cols]
        atb = normal[:, :, cols:]
        if dead_member.size:
            ata[dead_member, dead_col, dead_col] = 1.0
            atb[dead_member, dead_col] = 0.0
        right = np.concatenate([atb, identity], axis=2) if inverse else atb
        try:
            solved = np.linalg.solve(ata, right)
        except np.linalg.LinAlgError:
            # An exactly singular member poisons the whole batched solve;
            # find it by determinant, eject it, and patch its normal
            # system to the identity so the rest of the batch proceeds.
            determinants = np.linalg.det(ata)
            bad = ~np.isfinite(determinants) | (determinants == 0.0)
            fallback[bad] = True
            ata[bad] = np.eye(cols, dtype=dtype)
            right[bad] = 0.0
            solved = np.linalg.solve(ata, right)
        finite = np.all(np.isfinite(solved[:, :, 0]), axis=1)
        fallback[~finite] = True
        if inverse:
            return solved[:, :, 0], np.einsum("kii->ki", solved[:, :, 1:]) * live
        return solved[:, :, 0]

    def _error_sq(inverse_diagonal, residuals, round_weights):
        """``s² tr (AᵀWA)⁻¹`` per member, as the float64 kernel's."""
        variance = residual_variance(round_weights, residuals, unknowns)
        return variance * inverse_diagonal.sum(axis=1)

    def _residuals(solution: np.ndarray) -> np.ndarray:
        return ((matrices @ solution[:, :, np.newaxis])[:, :, 0] - rhs) * mask

    # Round 0 is plain LS; round 1 applies the float64 kernel's LS guard.
    estimates, ls_inverse = _normal_solve(weights, inverse=True)
    ls_estimates = estimates.copy()
    reverted = np.zeros(count, dtype=bool)
    tolerance_sq = dtype.type(tolerance_m) * dtype.type(tolerance_m)
    for round_index in range(1, max_iterations + 1):
        if np.all(frozen | fallback):
            break
        residuals = _residuals(estimates)
        if round_index == 1:
            ls_error_sq = _error_sq(ls_inverse, residuals, mask)
        weights = _gaussian_weights_rowwise(residuals, mask, counts)
        if round_index == 1:
            solved, inverse_diagonal = _normal_solve(weights, inverse=True)
        else:
            solved = _normal_solve(weights)
        update = ~frozen & ~fallback
        steps_sq = np.square(solved - estimates).sum(axis=1)
        estimates[update] = solved[update]
        iterations[update] = round_index
        done = update & (steps_sq < tolerance_sq)
        if round_index == 1:
            error_sq = _error_sq(inverse_diagonal, _residuals(solved), weights)
            reverted = update & (error_sq > ls_error_sq)
            estimates[reverted] = ls_estimates[reverted]
            done |= reverted
        converged[done] = True
        frozen |= done
    weights[reverted] = mask[reverted]

    final_residuals = (matrices @ estimates[:, :, np.newaxis])[:, :, 0] - rhs
    final_residuals *= mask
    row_norms = np.sqrt(np.square(matrices).sum(axis=2))
    row_norms[row_norms == 0.0] = 1.0

    solutions: List[Solution] = []
    for index in range(count):
        rows = int(counts_int[index])
        if fallback[index]:
            solutions.extend(
                _solve_members(
                    [
                        (
                            np.asarray(matrices[index, :rows], dtype=float),
                            np.asarray(rhs[index, :rows], dtype=float),
                        )
                    ],
                    gaussian_residual_weights,
                    max_iterations,
                    tolerance_m,
                    "scalar",
                )
            )
            continue
        member_residuals = final_residuals[index, :rows]
        solutions.append(
            Solution(
                estimate=estimates[index],
                residuals=member_residuals,
                normalized_residuals=member_residuals / row_norms[index, :rows],
                weights=weights[index, :rows],
                iterations=int(iterations[index]),
                converged=bool(converged[index]),
            )
        )
    return solutions


def solve_weighted_least_squares_batch(
    systems: Sequence[LinearSystem],
    weight_function: WeightFunction = gaussian_residual_weights,
    max_iterations: int = 20,
    tolerance_m: float = 1e-6,
) -> List[Solution]:
    """Solve many radical-equation systems in one stacked IRLS pass.

    The systems — one per Monte-Carlo trial, sweep cell or served
    request, ragged shapes welcome — are grouped by shape, and each group
    runs as one stack through the IRLS kernel: one GEMM and one LAPACK
    call per round instead of ``len(systems)``. Every returned solution
    is bit-identical to :func:`solve_weighted_least_squares` on the same
    system; members the normal equations cannot solve are ejected to the
    factored solve individually.

    Args:
        systems: the assembled systems, in any order; results come back
            in the same order.
        weight_function: residuals -> weights map, applied per system.
        max_iterations: cap on re-weighting rounds (per system).
        tolerance_m: per-system floor of the stop threshold.

    Raises:
        ValueError: if any system is empty or the iteration parameters
            are non-positive.
    """
    _validate_iteration(max_iterations, tolerance_m)
    members = [(system.matrix, system.rhs) for system in systems]
    if not members:
        return []
    return _solve_members(
        members,
        weight_function,
        max_iterations,
        tolerance_m,
        "batch",
    )
