"""Trade statistics panels and the cross-value / Paasche matrices derived from them.

A trade statistics is a finite panel of ``T`` price vectors and ``T`` demand
vectors over ``m`` goods.  Everything downstream (axiom tests, index numbers,
forecasting cones) is a function of the cross-value matrix ``px[t, s] =
<P^t, X^s>``, so this module is the single place where input validation and
those dot products happen.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]


class TradeDataError(ValueError):
    """Invalid trade-statistics input, carrying the table location when known."""

    def __init__(self, message: str, *, row: str | int | None = None, column: str | int | None = None):
        loc = []
        if row is not None:
            loc.append(f"row {row!r}")
        if column is not None:
            loc.append(f"column {column!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.row = row
        self.column = column


def validate_level(omega: float = 1.0, tol: float = 0.0) -> None:
    """Raise ``ValueError`` unless omega is finite and positive and tol finite and nonnegative.

    Works on plain floats, so it costs next to nothing on per-call paths.
    """
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega must be finite and positive, got {omega!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class TradeStatistics:
    """Panel of ``T`` observations of prices and demands for ``m`` goods.

    Invariants enforced at construction: every price is strictly positive,
    every demand vector is nonnegative with at least one strictly positive
    coordinate, so all cross values ``<P^t, X^s>`` are strictly positive.
    Instances are immutable and safe to share between threads.
    """

    prices: FloatArray      # shape (T, m), entries > 0
    quantities: FloatArray  # shape (T, m), rows nonnegative and nonzero
    good_ids: tuple[str, ...]
    period_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        prices = np.asarray(self.prices, dtype=float)
        quantities = np.asarray(self.quantities, dtype=float)
        if prices.ndim != 2 or quantities.ndim != 2:
            raise TradeDataError("prices and quantities must be 2-dimensional tables")
        if prices.shape != quantities.shape:
            raise TradeDataError(
                f"price table shape {prices.shape} does not match quantity table shape {quantities.shape}"
            )
        T, m = prices.shape
        if T == 0 or m == 0:
            raise TradeDataError("statistics must contain at least one period and one good")
        good_ids = tuple(str(g) for g in self.good_ids)
        period_ids = tuple(str(p) for p in self.period_ids)
        if len(good_ids) != m:
            raise TradeDataError(f"expected {m} good ids, got {len(good_ids)}")
        if len(period_ids) != T:
            raise TradeDataError(f"expected {T} period ids, got {len(period_ids)}")
        if not np.all(np.isfinite(prices)) or not np.all(np.isfinite(quantities)):
            raise TradeDataError("prices and quantities must be finite")
        if not np.all(prices > 0.0):
            t, i = np.argwhere(prices <= 0.0)[0]
            raise TradeDataError("non-positive price", row=period_ids[t], column=good_ids[i])
        if np.any(quantities < 0.0):
            t, i = np.argwhere(quantities < 0.0)[0]
            raise TradeDataError("negative quantity", row=period_ids[t], column=good_ids[i])
        zero_rows = np.flatnonzero(quantities.max(axis=1) <= 0.0)
        if zero_rows.size:
            raise TradeDataError("all-zero quantity row", row=period_ids[zero_rows[0]])
        object.__setattr__(self, "prices", _frozen(prices))
        object.__setattr__(self, "quantities", _frozen(quantities))
        object.__setattr__(self, "good_ids", good_ids)
        object.__setattr__(self, "period_ids", period_ids)

    @property
    def num_periods(self) -> int:
        return self.prices.shape[0]

    @property
    def num_goods(self) -> int:
        return self.prices.shape[1]

    def expenditures(self) -> FloatArray:
        """Per-period expenditure ``<P^t, X^t>``."""
        return np.einsum("ti,ti->t", self.prices, self.quantities)

    def extended(self, price_new: Sequence[float], quantity_new: Sequence[float],
                 period_id: str = "new") -> "TradeStatistics":
        """Statistics with one extra observation appended after the last period."""
        return TradeStatistics(
            prices=np.vstack([self.prices, np.asarray(price_new, dtype=float)]),
            quantities=np.vstack([self.quantities, np.asarray(quantity_new, dtype=float)]),
            good_ids=self.good_ids,
            period_ids=self.period_ids + (period_id,),
        )


def trade_statistics(prices, quantities, good_ids=None, period_ids=None) -> TradeStatistics:
    """Build a :class:`TradeStatistics` from arrays, generating labels if omitted."""
    prices = np.atleast_2d(np.asarray(prices, dtype=float))
    quantities = np.atleast_2d(np.asarray(quantities, dtype=float))
    T, m = prices.shape
    if good_ids is None:
        good_ids = tuple(f"g{i + 1}" for i in range(m))
    if period_ids is None:
        period_ids = tuple(f"t{t + 1}" for t in range(T))
    return TradeStatistics(prices=prices, quantities=quantities,
                           good_ids=tuple(good_ids), period_ids=tuple(period_ids))


@dataclass(frozen=True, eq=False)
class CrossValueMatrix:
    """T x T matrix of cross values ``px[t, s] = <P^t, X^s>`` (currency units)."""

    px: FloatArray

    def __post_init__(self) -> None:
        px = np.asarray(self.px, dtype=float)
        if px.ndim != 2 or px.shape[0] != px.shape[1]:
            raise TradeDataError("cross-value matrix must be square")
        if not np.all(px > 0.0):
            raise TradeDataError("cross-value matrix must be strictly positive")
        object.__setattr__(self, "px", _frozen(px))

    @property
    def num_periods(self) -> int:
        return self.px.shape[0]


@dataclass(frozen=True, eq=False)
class PaascheMatrix:
    """T x T matrix of pairwise Paasche price indices, ``C[t, s] = px[s, s] / px[t, s]``.

    Dimensionless, strictly positive, with unit diagonal.  Invariant under any
    per-period rescaling of quantities, which is why every homotheticity test
    factors through it.
    """

    values: FloatArray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise TradeDataError("Paasche matrix must be square")
        if not np.all(values > 0.0):
            raise TradeDataError("Paasche matrix must be strictly positive")
        object.__setattr__(self, "values", _frozen(values))

    @property
    def num_periods(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class GroupSelection:
    """Strictly increasing positions of the goods kept by a group restriction."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        if not idx:
            raise TradeDataError("group selection must be non-empty")
        if any(i < 0 for i in idx):
            raise TradeDataError("group selection indices must be nonnegative")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise TradeDataError("group selection indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_ids(cls, ts: TradeStatistics, ids: Sequence[str]) -> "GroupSelection":
        positions = []
        for gid in ids:
            try:
                positions.append(ts.good_ids.index(str(gid)))
            except ValueError:
                raise TradeDataError(f"unknown good id {gid!r}") from None
        return cls(indices=tuple(sorted(set(positions))))

    def __len__(self) -> int:
        return len(self.indices)


def _read_table(source, what: str) -> tuple[list[str], list[str], FloatArray]:
    """Parse one CSV table: header of good ids, first column of period ids."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    else:
        text = source.read()
        rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise TradeDataError(f"{what} table is empty")
    header = rows[0]
    if len(header) < 2:
        raise TradeDataError(f"{what} table has no good columns", row=1)
    good_ids = [h.strip() for h in header[1:]]
    period_ids: list[str] = []
    values: list[list[float]] = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise TradeDataError(
                f"{what} table row has {len(row) - 1} value cells, expected {len(good_ids)}", row=r
            )
        period_ids.append(row[0].strip())
        parsed = []
        for gid, cell in zip(good_ids, row[1:]):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise TradeDataError(f"unparseable cell {cell!r} in {what} table",
                                     row=row[0].strip(), column=gid) from None
        values.append(parsed)
    return good_ids, period_ids, np.asarray(values, dtype=float)


def load_trade_statistics(prices_source, quantities_source) -> TradeStatistics:
    """Load a statistics from two CSV tables sharing headers and period labels.

    Each table has a header row of good ids, a first column of period ids, and
    decimal-point numbers.  Row order defines period order.  Raises
    :class:`TradeDataError` with the offending location on any mismatch,
    non-positive price, negative quantity, all-zero demand row, or
    unparseable cell.
    """
    p_goods, p_periods, prices = _read_table(prices_source, "price")
    q_goods, q_periods, quantities = _read_table(quantities_source, "quantity")
    if p_goods != q_goods:
        raise TradeDataError(
            f"good headers differ between tables: {p_goods} vs {q_goods}"
        )
    if p_periods != q_periods:
        raise TradeDataError(
            f"period labels differ between tables: {p_periods} vs {q_periods}"
        )
    return TradeStatistics(prices=prices, quantities=quantities,
                           good_ids=tuple(p_goods), period_ids=tuple(p_periods))


def cross_value_matrix(ts: TradeStatistics) -> CrossValueMatrix:
    """Exact dot products ``px[t, s] = <P^t, X^s>`` for all period pairs."""
    return CrossValueMatrix(px=ts.prices @ ts.quantities.T)


def paasche_matrix(px: CrossValueMatrix) -> PaascheMatrix:
    """Pairwise Paasche indices ``C[t, s] = px[s, s] / px[t, s]``."""
    diag = np.diagonal(px.px)
    return PaascheMatrix(values=diag[np.newaxis, :] / px.px)


def paasche_from_statistics(ts: TradeStatistics) -> PaascheMatrix:
    return paasche_matrix(cross_value_matrix(ts))


def restrict_to_group(ts: TradeStatistics, group: GroupSelection) -> TradeStatistics:
    """Statistics on the selected goods only; period count unchanged.

    Fails if some period's restricted demand vector is identically zero, since
    the restricted panel would leave the admissible demand space.
    """
    idx = np.asarray(group.indices, dtype=int)
    if idx[-1] >= ts.num_goods:
        raise TradeDataError(
            f"group selection index {int(idx[-1])} out of range for {ts.num_goods} goods"
        )
    quantities = ts.quantities[:, idx]
    zero_rows = np.flatnonzero(quantities.max(axis=1) <= 0.0)
    if zero_rows.size:
        raise TradeDataError("all-zero quantity row after group restriction",
                             row=ts.period_ids[zero_rows[0]])
    return TradeStatistics(
        prices=ts.prices[:, idx],
        quantities=quantities,
        good_ids=tuple(ts.good_ids[i] for i in group.indices),
        period_ids=ts.period_ids,
    )


def rescale_quantities(ts: TradeStatistics, mu: Sequence[float]) -> TradeStatistics:
    """Replace each demand vector ``X^t`` by ``mu[t] * X^t``; prices unchanged."""
    scale = np.asarray(mu, dtype=float)
    if scale.shape != (ts.num_periods,):
        raise TradeDataError(f"expected {ts.num_periods} scale factors, got {scale.shape}")
    if not np.all(scale > 0.0):
        t = int(np.flatnonzero(scale <= 0.0)[0])
        raise TradeDataError("non-positive quantity scale factor", row=ts.period_ids[t])
    return TradeStatistics(
        prices=ts.prices,
        quantities=ts.quantities * scale[:, np.newaxis],
        good_ids=ts.good_ids,
        period_ids=ts.period_ids,
    )
