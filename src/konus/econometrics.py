"""AR modelling of log price relatives, randomized-statistics power estimation,
and random-group probability curves.

Price counterfactuals keep the observed demands and redraw prices from
per-good autoregressions of log price relatives, so the power estimates
capture how often consistency would be rejected when prices carry no
information about demand.  Trial b of a power estimate draws from
``np.random.default_rng((seed, b))`` and group draw j of size k from
``default_rng((seed, k, j))``, bit for bit.  ``_mc.trial_streams`` derives
these a batch at a time and yields one reused generator, so each trial's
draws are made before the next trial's; the results are reproducible bit
for bit for any batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from ._mc import batch_size, count_trials, trial_streams
from .axioms import _verdicts
from .core import FloatArray, TradeStatistics, _cross_values, trade_statistics

VARIANCE_FLOOR = 1e-12
# Largest autoregression order that fit_ar compares.
MAX_AR_ORDER = 2
# Draws a group of goods may take to find a valid one.
RESAMPLE_CAP = 1000


@dataclass(frozen=True, eq=False)
class ARModel:
    """Autoregression of a log price relative series, order selected by AIC.

    ``beta`` holds the intercept first; ``sigma2`` is the floored maximum
    likelihood residual variance used when simulating.
    """

    order: int
    beta: FloatArray
    sigma2: float
    stderr: FloatArray
    good_id: str = ""


@dataclass(frozen=True)
class PowerReport:
    """Paired test-power estimates over randomized price panels."""

    trials: int
    garp_rejections: int
    harp_rejections: int
    seed: int

    @property
    def w_hat_g(self) -> float:
        return self.garp_rejections / self.trials

    @property
    def w_hat_h(self) -> float:
        return self.harp_rejections / self.trials


@dataclass(frozen=True)
class GroupProbabilityCurve:
    """Per-size fractions of random good groups passing each axiom at level one."""

    sizes: tuple[int, ...]
    samples: tuple[int, ...]
    p_garp: tuple[float, ...]
    p_harp: tuple[float, ...]
    skipped: tuple[int, ...]  # diagnostics: draws discarded for an all-zero demand row
    seed: int


def fit_ar(series: Sequence[float], *, good_id: str = "") -> ARModel:
    """OLS autoregressions of orders 0..MAX_AR_ORDER, compared by AIC on a common sample.

    All candidate orders are fitted on the effective sample that the largest
    order allows, so their likelihoods are comparable; AIC uses the maximum
    likelihood variance, ``n_eff * log(sigma2) + 2 * (r + 1)``, with ties going
    to the smaller order.  The variance is floored at ``1e-12`` so constant
    series cannot produce ``log(0)``.
    """
    z = np.asarray(series, dtype=float)
    if z.ndim != 1:
        raise ValueError("series must be one-dimensional")
    n = z.shape[0]
    if n < 2:
        raise ValueError(f"series of length {n} is too short for any autoregression")
    effective_max = min(MAX_AR_ORDER, n - 2)
    y = z[effective_max:]
    n_eff = y.shape[0]
    best: tuple[float, int, np.ndarray, float, np.ndarray] | None = None
    for order in range(effective_max + 1):
        design = np.ones((n_eff, order + 1))
        for lag in range(1, order + 1):
            design[:, lag] = z[effective_max - lag:n - lag]
        beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        residuals = y - design @ beta
        sigma2 = max(float(residuals @ residuals) / n_eff, VARIANCE_FLOOR)
        aic = n_eff * math.log(sigma2) + 2.0 * (order + 1)
        if best is None or aic < best[0]:
            dof = n_eff - (order + 1)
            if dof > 0:
                s2 = float(residuals @ residuals) / dof
                cov = s2 * np.linalg.pinv(design.T @ design)
                stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))
            else:
                stderr = np.full(order + 1, np.inf)
            best = (aic, order, beta, sigma2, stderr)
    assert best is not None
    _, order, beta, sigma2, stderr = best
    return ARModel(order=order, beta=beta, sigma2=sigma2, stderr=stderr, good_id=good_id)


def log_relatives(ts: TradeStatistics) -> FloatArray:
    """Per-good log price relatives, shape (T - 1, m)."""
    return np.log(ts.prices[1:] / ts.prices[:-1])


def fit_price_models(ts: TradeStatistics) -> list[ARModel]:
    """One autoregression per good, fitted to its log price relatives."""
    if ts.num_periods < 3:
        raise ValueError("need at least three periods to fit price models")
    rel = log_relatives(ts)
    return [fit_ar(rel[:, i], good_id=ts.good_ids[i]) for i in range(ts.num_goods)]


def _simulate_stack(ts: TradeStatistics, models: Sequence[ARModel],
                    rngs: Iterable[np.random.Generator], panels: int) -> FloatArray:
    """Simulated price panels ``[B, T, m]``, panel b drawn from the b-th of ``panels`` generators.

    The generators are consumed in order, each done with before the next
    is taken, so they may be the one reused generator of
    ``_mc.trial_streams``.  Each panel takes its noise for every good in
    one ``standard_normal`` call, in panel order of the goods, which gives
    the same numbers as one call per good.  The recursion then runs one
    period at a time on ``[B, goods]`` arrays for each group of goods that
    share an AR order, and the exponentials and running products run over
    the whole stack.  Every element goes through the same operations in the
    same order as in a per-good, per-period loop, so each panel is
    bit-identical to one simulated on its own.
    """
    T, m = ts.num_periods, ts.num_goods
    orders = np.array([model.order for model in models], dtype=int)
    drawn = np.arange(T - 1) >= orders[:, np.newaxis]  # [good, period]: relatives that take noise
    scales = np.repeat([math.sqrt(model.sigma2) for model in models], drawn.sum(axis=1))
    noise = np.empty((panels, scales.size))
    for row, rng in zip(noise, rngs):
        rng.standard_normal(out=row)
    noise *= scales
    relatives = np.empty((panels, m, T - 1))  # [b, good, period]
    relatives[:, drawn] = noise  # the row-major order of the drawn entries is the draw order
    del noise
    relatives[:, ~drawn] = log_relatives(ts).T[~drawn]
    for r in np.unique(orders):
        goods = np.flatnonzero(orders == r)
        beta = np.array([models[i].beta for i in goods]).T  # beta[lag, good]
        if r == 0:
            relatives[:, goods] = beta[0][:, np.newaxis] + relatives[:, goods]  # mean + noise
            continue
        group = relatives[:, goods]
        for j in range(r, T - 1):
            mean = beta[0]
            for lag in range(1, r + 1):
                mean = mean + beta[lag] * group[:, :, j - lag]
            group[:, :, j] = mean + group[:, :, j]
        relatives[:, goods] = group
    paths = np.empty((panels, m, T))
    paths[:, :, 0] = ts.prices[0]
    paths[:, :, 1:] = np.exp(relatives, out=relatives)
    del relatives
    np.multiply.accumulate(paths, axis=2, out=paths)
    return np.ascontiguousarray(paths.transpose(0, 2, 1))


def simulate_price_paths(ts: TradeStatistics, models: Sequence[ARModel],
                         rng: np.random.Generator) -> FloatArray:
    """Simulated price panel anchored at the observed first period.

    The first ``order`` log relatives of each good are copied from the data;
    later relatives follow the fitted recursion with independent Gaussian
    noise.  Prices are rebuilt multiplicatively, and the noise is drawn in
    one call, good after good in panel order, so the draw sequence is
    reproducible.
    """
    if len(models) != ts.num_goods:
        raise ValueError(f"expected {ts.num_goods} models, got {len(models)}")
    return _simulate_stack(ts, models, [rng], 1)[0]


def _power_batch(ts: TradeStatistics, models: Sequence[ARModel], seed: int, trials: range) -> np.ndarray:
    """``(garp_rejected, harp_rejected)`` rows of the power trials in ``trials``."""
    prices = _simulate_stack(ts, models, trial_streams((seed,), trials), len(trials))
    garp_ok, harp_ok = _verdicts(_cross_values(prices, ts.quantities))
    # an acyclicity failure is a homotheticity failure; enforce the
    # implication against rounding at the cycle-product boundary
    return np.column_stack([~garp_ok, ~(harp_ok & garp_ok)])


def power_estimate(ts: TradeStatistics, trials: int, seed: int) -> PowerReport:
    """Fraction of randomized panels whose irrationality index exceeds one.

    Prices are simulated from the fitted per-good autoregressions while
    demands stay fixed; a trial counts against an axiom when the panel fails
    it at level one, which for continuous price draws is the event that the
    corresponding irrationality index is above one.  Trials are paired, so
    the homothetic rejection count never falls below the acyclic one.
    """
    if trials < 1:
        raise ValueError("trial count must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    models = fit_price_models(ts)
    # per trial: its cross-value matrix, its prices and its noise
    garp_rejections, harp_rejections = count_trials(
        lambda batch: _power_batch(ts, models, seed, batch), trials,
        batch_size(ts.num_periods * (ts.num_periods + 2 * ts.num_goods)))
    return PowerReport(trials=trials, garp_rejections=garp_rejections,
                       harp_rejections=harp_rejections, seed=seed)


def _group_batch(ts: TradeStatistics, groups: Sequence[np.ndarray]) -> np.ndarray:
    """``(garp_ok, harp_ok)`` rows of the panel restricted to each group of goods."""
    garp_ok, harp_ok = _verdicts(_cross_values(np.stack([ts.prices[:, idx] for idx in groups]),
                                               np.stack([ts.quantities[:, idx] for idx in groups])))
    return np.column_stack([garp_ok | harp_ok, harp_ok])  # homotheticity implies acyclicity


def _group_valid(ts: TradeStatistics, idx: np.ndarray) -> bool:
    return bool(np.all(ts.quantities[:, idx].max(axis=1) > 0.0))


def _sampled_group(ts: TradeStatistics, size: int, rng: np.random.Generator) -> tuple[np.ndarray | None, int]:
    """One random group of the requested size from ``rng``, resampling past invalid draws."""
    rejected = 0
    for _ in range(RESAMPLE_CAP):
        idx = np.sort(rng.choice(ts.num_goods, size=size, replace=False))
        if _group_valid(ts, idx):
            return idx, rejected
        rejected += 1
    return None, rejected


def random_group_probability(
    ts: TradeStatistics,
    sizes: Sequence[int],
    samples_per_size: int,
    seed: int,
) -> GroupProbabilityCurve:
    """Fractions of random good groups passing each axiom, per group size.

    Sizes with fewer distinct groups than ``samples_per_size`` are enumerated
    exhaustively; otherwise groups are drawn uniformly without replacement
    within each draw.  Draws whose restricted demand panel has an all-zero
    row are resampled and counted in the ``skipped`` tally.  Single-good
    groups are rejected because they satisfy both axioms trivially.  A size
    with no valid group, or whose draws run past ``RESAMPLE_CAP``, raises
    ``ValueError``: both are conditions of the input panel.
    """
    if samples_per_size < 1:
        raise ValueError("samples_per_size must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    for size in sizes:
        if size < 2 or size > ts.num_goods:
            raise ValueError(
                f"group size {size} out of range [2, {ts.num_goods}]; "
                "single-good groups pass both axioms trivially"
            )
    out_sizes: list[int] = []
    out_samples: list[int] = []
    out_garp: list[float] = []
    out_harp: list[float] = []
    out_skipped: list[int] = []
    for size in sizes:
        if math.comb(ts.num_goods, size) <= samples_per_size:
            groups = [np.asarray(c, dtype=int) for c in combinations(range(ts.num_goods), size)]
            chosen = [g for g in groups if _group_valid(ts, g)]
            skipped = len(groups) - len(chosen)
            if not chosen:
                raise ValueError(f"no valid groups of size {size}")
        else:
            streams = trial_streams((seed, size), range(samples_per_size))
            draws = [_sampled_group(ts, size, rng) for rng in streams]
            skipped = sum(r for _, r in draws)
            chosen = [idx for idx, _ in draws if idx is not None]
            if len(chosen) < samples_per_size:
                raise ValueError(
                    f"could not draw enough valid groups of size {size} "
                    f"within the resample cap {RESAMPLE_CAP}"
                )
        total = len(chosen)
        # per group: its cross-value matrix and its restricted prices and quantities
        garp_hits, harp_hits = count_trials(
            lambda batch: _group_batch(ts, [chosen[j] for j in batch]), total,
            batch_size(ts.num_periods * (ts.num_periods + 2 * size)))
        out_sizes.append(size)
        out_samples.append(total)
        out_garp.append(garp_hits / total)
        out_harp.append(harp_hits / total)
        out_skipped.append(skipped)
    return GroupProbabilityCurve(
        sizes=tuple(out_sizes),
        samples=tuple(out_samples),
        p_garp=tuple(out_garp),
        p_harp=tuple(out_harp),
        skipped=tuple(out_skipped),
        seed=seed,
    )


def cobb_douglas_statistics(T: int, m: int, seed: int) -> TradeStatistics:
    """Synthetic panel from a fixed-share consumer: homothetic by construction.

    Log prices follow independent Gaussian walks with step deviation 0.3,
    log expenditure follows one with mean step 0.05 and deviation 0.1, and
    each period's demand spends a constant share of total expenditure on
    every good, so the panel passes the homotheticity test (and hence the
    acyclicity test) by construction.
    Useful as a rationalizable stand-in for the real panels the experiments
    were designed around.
    """
    rng = np.random.default_rng(seed)
    shares = rng.dirichlet(np.ones(m)) + 1e-3
    shares = shares / shares.sum()
    steps = rng.normal(0.0, 0.3, size=(T, m))
    prices = np.exp(np.cumsum(steps, axis=0))
    spend = np.exp(np.cumsum(rng.normal(0.05, 0.1, size=T)))
    quantities = shares[np.newaxis, :] * spend[:, np.newaxis] / prices
    return trade_statistics(prices, quantities)


def random_statistics(T: int, m: int, seed: int) -> TradeStatistics:
    """Unstructured panel: independent lognormal prices and quantities, log standard deviation 0.5."""
    rng = np.random.default_rng(seed)
    prices = np.exp(rng.normal(0.0, 0.5, size=(T, m)))
    quantities = np.exp(rng.normal(0.0, 0.5, size=(T, m)))
    return trade_statistics(prices, quantities)
