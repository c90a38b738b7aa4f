"""Trade statistics panels and the cross-value / Paasche matrices derived from them.

A trade statistics is a finite panel of ``T`` price vectors and ``T`` demand
vectors over ``m`` goods.  Everything downstream (axiom tests, index numbers,
forecasting cones) is a function of the cross-value matrix ``px[t, s] =
<P^t, X^s>``, so this module is the single place where input validation,
those dot products and the Paasche matrix built from them happen.  Both
matrices are returned as plain ndarrays.
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


def _check_rows(prices: FloatArray, quantities: FloatArray,
                good_ids: tuple[str, ...], period_ids: tuple[str, ...]) -> None:
    """Raise :class:`TradeDataError` at the first invalid entry of some rows of a panel.

    ``period_ids`` labels the rows given.  Each check runs over all of them
    before the next: finiteness, then positive prices, then nonnegative
    quantities, then no all-zero quantity row.  On rows appended to a valid
    panel this raises exactly what checking the whole table would.
    """
    p_low, p_high = prices.min(), prices.max()
    q_low, q_high = quantities.min(), quantities.max()
    # a NaN makes both extrema NaN, and every comparison with NaN is False
    if not (-np.inf < p_low and p_high < np.inf and -np.inf < q_low and q_high < np.inf):
        raise TradeDataError("prices and quantities must be finite")
    if not p_low > 0.0:
        t, i = np.argwhere(prices <= 0.0)[0]
        raise TradeDataError("non-positive price", row=period_ids[t], column=good_ids[i])
    if q_low < 0.0:
        t, i = np.argwhere(quantities < 0.0)[0]
        raise TradeDataError("negative quantity", row=period_ids[t], column=good_ids[i])
    if q_low == 0.0:  # only then can a row be all zero
        zero_rows = np.flatnonzero(quantities.max(axis=1) <= 0.0)
        if zero_rows.size:
            raise TradeDataError("all-zero quantity row", row=period_ids[zero_rows[0]])


def _observation(values, m: int) -> FloatArray:
    """One new observation's ``m`` values: shape ``(m,)`` or ``(1, m)``, or a scalar when ``m`` is one.

    A block of ``k != 1`` rows of ``m`` values raises :class:`TradeDataError`,
    as a table with the wrong number of period ids does; any other shape
    raises a plain ``ValueError``.
    """
    row = np.asarray(values, dtype=float)
    if row.shape not in ((m,), (1, m)) and not (m == 1 and row.ndim == 0):
        error = TradeDataError if row.ndim == 2 and row.shape[1] == m else ValueError
        raise error(f"a new observation must be one row of {m} values, got shape {row.shape}")
    return row


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
        _check_rows(prices, quantities, good_ids, period_ids)
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

    def extended(self, price_new: Sequence[float], quantity_new: Sequence[float]) -> "TradeStatistics":
        """Statistics with one extra observation, period ``"new"``, appended after the last period.

        Trusts the invariants this panel was validated for and checks only
        the appended row: each :class:`TradeDataError` carries the message
        and location that validating the whole extended table would give.
        """
        T, m = self.prices.shape
        prices = np.empty((T + 1, m))
        quantities = np.empty((T + 1, m))
        prices[:T] = self.prices
        quantities[:T] = self.quantities
        prices[T] = _observation(price_new, m)
        quantities[T] = _observation(quantity_new, m)
        period_ids = self.period_ids + ("new",)
        _check_rows(prices[T:], quantities[T:], self.good_ids, period_ids[T:])
        prices.flags.writeable = False
        quantities.flags.writeable = False
        out = object.__new__(TradeStatistics)  # the whole-table checks of __post_init__ hold already
        for name, value in (("prices", prices), ("quantities", quantities),
                            ("good_ids", self.good_ids), ("period_ids", period_ids)):
            object.__setattr__(out, name, value)
        return out


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
    # blank records are skipped, but still counted in the row numbers of errors
    rows = [(r, row) for r, row in enumerate(rows, start=1) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise TradeDataError(f"{what} table is empty")
    header_row, header = rows[0]
    if len(header) < 2:
        raise TradeDataError(f"{what} table has no good columns", row=header_row)
    good_ids = [h.strip() for h in header[1:]]
    seen_goods: set[str] = set()
    for c, gid in enumerate(good_ids, start=2):
        if not gid or gid in seen_goods:
            problem = f"duplicate good id {gid!r}" if gid else "empty good id"
            raise TradeDataError(f"{problem} in {what} table header", row=header_row, column=c)
        seen_goods.add(gid)
    period_ids: list[str] = []
    seen_periods: set[str] = set()
    values: list[list[float]] = []
    for r, row in rows[1:]:
        if len(row) != len(header):
            raise TradeDataError(
                f"{what} table row has {len(row) - 1} value cells, expected {len(good_ids)}", row=r
            )
        period = row[0].strip()
        if period in seen_periods:
            raise TradeDataError(f"duplicate period id {period!r} in {what} table", row=r)
        seen_periods.add(period)
        period_ids.append(period)
        parsed = []
        for gid, cell in zip(good_ids, row[1:]):
            try:
                if "_" in cell:  # float() reads "1_0" as 10
                    raise ValueError(cell)
                parsed.append(float(cell))
            except ValueError:
                raise TradeDataError(f"unparseable cell {cell!r} in {what} table",
                                     row=row[0].strip(), column=gid) from None
        values.append(parsed)
    return good_ids, period_ids, np.asarray(values, dtype=float)


def load_trade_statistics(prices_source, quantities_source) -> TradeStatistics:
    """Load a statistics from two CSV tables sharing headers and period labels.

    Each table has a header row of distinct, non-empty good ids, a first
    column of distinct period ids, and decimal-point numbers (no ``_``
    digit separators).  Row order defines period order.  Raises
    :class:`TradeDataError` with the offending location on any mismatch,
    empty or duplicate id, non-positive price, negative quantity, all-zero
    demand row, or unparseable cell.
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


def _finite_cross_values(px: FloatArray) -> FloatArray:
    """``px``, a cross-value matrix or a stack of them, unless a cross value overflowed.

    Raises :class:`TradeDataError` otherwise.  Cross values of a valid panel
    are positive, so the largest is the only one to scan.
    """
    if not px.max() < np.inf:
        raise TradeDataError("cross-value matrix must be finite")
    return px


def cross_value_matrix(ts: TradeStatistics) -> FloatArray:
    """Exact dot products ``px[t, s] = <P^t, X^s>`` for all period pairs (currency units).

    Raises :class:`TradeDataError` if a cross value overflows (after numpy's
    own overflow warning).
    """
    return _finite_cross_values(ts.prices @ ts.quantities.T)


def paasche_matrix(px) -> FloatArray:
    """Pairwise Paasche indices ``C[t, s] = px[s, s] / px[t, s]`` of a cross-value matrix.

    Dimensionless, strictly positive, with unit diagonal.  Invariant under any
    per-period rescaling of quantities, which is why every homotheticity test
    factors through it.  The cross values must form a square, strictly
    positive matrix; a Paasche entry that overflows to infinity or
    underflows to a non-positive value is rejected too.  A stack
    ``[..., T, T]`` of cross-value matrices gives the stack of their
    Paasche matrices, under the same checks.
    """
    px = np.asarray(px, dtype=float)
    if px.ndim < 2 or px.shape[-1] != px.shape[-2]:
        raise TradeDataError("cross-value matrix must be square")
    # a NaN entry makes an extremum NaN, and every comparison with NaN is False
    if not px.min(initial=np.inf) > 0.0:
        raise TradeDataError("cross-value matrix must be strictly positive")
    paasche = px.diagonal(0, -2, -1)[..., np.newaxis, :] / px
    if not paasche.min(initial=np.inf) > 0.0:
        raise TradeDataError("Paasche matrix must be strictly positive")
    if not paasche.max(initial=-np.inf) < np.inf:
        raise TradeDataError("Paasche matrix must be finite")
    return paasche


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
