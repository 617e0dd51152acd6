"""Panel container for multiple weekly count series and their season map."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

N_MONTHS = 12


@dataclass(frozen=True)
class CountPanel:
    """L count series observed over T weeks, plus a week-to-month map.

    Parameters
    ----------
    counts : ndarray of shape (L, T)
        Nonnegative integer observations, one row per series.
    season_of : ndarray of shape (T,)
        Month label in 1..12 for each week.
    exposure : ndarray of shape (L,), optional
        Strictly positive per-series exposure (e.g. population), used by the
        covariate-adjusted model.
    series_ids : list of str, optional
        Labels for the rows; generated as ``s000, s001, ...`` when omitted.
    week_starts : list of datetime.date, optional
        Start date of each week; carried along when the panel came from (or
        goes to) a dated file, and used to extend the season map past T.

    ``month_weeks`` (int64, 12 entries) is computed from ``season_of``:
    entry m-1 counts the weeks in month m, so it sums to T and
    ``month_weeks @ theta`` is the seasonal mass sum_t theta_{s(t)}.
    """

    counts: np.ndarray
    season_of: np.ndarray
    exposure: np.ndarray | None = None
    series_ids: list[str] = field(default_factory=list)
    week_starts: list | None = None
    month_weeks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise ValueError("counts must be a 2-D (series x weeks) array")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(counts == np.floor(counts)):
                raise ValueError("counts must be integers")
            counts = counts.astype(np.int64)
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts.astype(np.int64))

        season = np.asarray(self.season_of, dtype=np.int64)
        if season.shape != (counts.shape[1],):
            raise ValueError("season_of must give a month for every week")
        if np.any((season < 1) | (season > N_MONTHS)):
            raise ValueError("season_of values must lie in 1..12")
        object.__setattr__(self, "season_of", season)
        object.__setattr__(self, "month_weeks", np.bincount(season, minlength=N_MONTHS + 1)[1:])

        if self.exposure is not None:
            expo = np.asarray(self.exposure, dtype=float)
            if expo.shape != (counts.shape[0],):
                raise ValueError("exposure must have one entry per series")
            if np.any(expo <= 0) or not np.all(np.isfinite(expo)):
                raise ValueError("exposure must be strictly positive and finite")
            object.__setattr__(self, "exposure", expo)

        if not self.series_ids:
            object.__setattr__(
                self, "series_ids", [f"s{i:03d}" for i in range(counts.shape[0])]
            )
        elif len(self.series_ids) != counts.shape[0]:
            raise ValueError("series_ids must have one entry per series")

        if self.week_starts is not None and len(self.week_starts) != counts.shape[1]:
            raise ValueError("week_starts must have one entry per week")

    @property
    def n_series(self) -> int:
        return self.counts.shape[0]

    @property
    def n_weeks(self) -> int:
        return self.counts.shape[1]


def innovation_bounds(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The support ``(lo, hi)`` of every innovation count, both shaped like
    ``counts``: eps_1 = y_1, and max(0, y_t - y_{t-1}) <= eps_t <= y_t."""
    hi = np.asarray(counts)
    lo = hi.copy()
    lo[:, 1:] = np.maximum(hi[:, 1:] - hi[:, :-1], 0)
    return lo, hi

