"""The exact innovation step of a sweep: each latent innovation count of
weeks 2..T drawn from its full conditional, enumerated over its support."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .model import refuse_over_memory, series_name
from .panel import innovation_bounds

# (1 - alpha) / alpha is undefined at the endpoints; the Beta posterior puts
# zero mass there, so clamping is numerically safe.
_ALPHA_EPS = 1e-12


class InnovationKernel:
    """Vectorized innovation update for weeks 2..T of one panel.

    Enumerating the support for every (series, week) cell at once is the
    sampler's hot loop. The exact cells are grouped into buckets by support
    width: a bucket holds the cells whose width lies in one half of an
    octave, [2^j, 1.5 * 2^j) or [1.5 * 2^j, 2^(j+1)), and pads them only to
    its own widest support, so the grid holds at most 1.5 times the useful
    support however wide the widest cell is. A bucket keeps one float64 per
    grid cell across sweeps, its log-factorial terms laid out support point
    by cell, and draws through work grids shared by all buckets. Every
    cell is enumerated, so a draw reads nothing of the previous
    innovations; a tall bucket stops at the last support point that can
    change a draw, so a call's time follows the support up to there, past
    each cell's mode, while its memory follows the whole support.

    Cells are addressed by flat indices computed once: ``at`` into the
    row-major (L, T-1) ``rates`` and ``at_eps = at + row + 1`` into the
    (L, T) innovation matrix. A call gathers with ``take``, which reads
    ``rates`` in row-major order whatever its memory layout, and scatters
    into a flat view of the new matrix, which is allocated C-ordered
    whatever the layout of ``counts``; no (L, T-1) temporary is built.

    Before anything sized by the counts themselves is allocated, the
    buckets' grid cells are counted from the support widths, and the
    log-factorial table's entries from the largest count next to an
    exactly enumerated week; if their bytes, with the cells' index arrays
    and a call's temporaries, would exceed the machine's physical memory,
    the build raises ``ConfigurationError`` naming the series of the
    widest support or of that count (``series_ids``, row numbers when not
    given). The kernel keeps the bytes counted, ``held_bytes``, and
    ``chain_bytes``, the part of them a chain run in a forked worker writes
    and so copies, by which ``run_chains`` sizes its pool.
    """

    def __init__(self, counts: np.ndarray, series_ids: list[str] | None = None):
        # the build reads counts and lower bounds as flat row-major arrays,
        # at ``at_eps`` (``at_eps - 1`` for the week before): ``take`` on a
        # strided (L, T-1) view would copy it whole first. The lower bounds
        # are C-ordered, pin week 1 to its count and hold every other cell's
        # lowest support point, so a call starts its draw from a copy.
        y = counts.reshape(-1)
        self._start, hi = innovation_bounds(counts)
        lo_flat = self._start.reshape(-1)
        width = hi[:, 1:] - self._start[:, 1:]

        # the active cells never change, so gather their geometry once
        at = np.flatnonzero(width > 0)
        rows = at // width.shape[1]
        at_eps = at + rows + 1
        w = width.take(at)
        del width
        # the uniforms are drawn in row-major order; cells are stored bucket
        # by bucket, and ``draw_order`` maps the one to the other. A one-byte
        # key makes the stable sort a radix sort.
        mantissa, octave = np.frexp(w)  # w = mantissa * 2^octave, 0.5 <= mantissa < 1
        level = (2 * octave + (mantissa >= 0.75)).astype(np.uint8)
        del mantissa, octave
        self.draw_order = np.argsort(level, kind="stable")
        self.rows, self.at, self.at_eps = (a.take(self.draw_order) for a in (rows, at, at_eps))
        del rows, at, at_eps
        self.base = lo_flat.take(self.at_eps)
        w, level = w.take(self.draw_order), level.take(self.draw_order)
        starts = np.unique(level, return_index=True)[1]
        sizes = np.diff(np.r_[starts, w.size])
        points = np.maximum.reduceat(w, starts) + 1
        grids = points * sizes
        fixed, per_cell, per_point = _COLUMN_SUM_NS
        row_wise = _ROW_SUM_NS * (points - 1) < fixed + per_cell * sizes + per_point * grids
        # a bucket reads the log-factorials of counts up to its cells' own
        # y_curr or y_prev, so the table stops at the largest of these
        top = np.maximum(y.take(self.at_eps), y.take(self.at_eps - 1))
        self.held_bytes, self.chain_bytes = _check_grid_memory(
            w, points, grids, row_wise, self.rows, top, counts.size, series_ids)
        lgam = gammaln(np.arange(int(top.max(initial=-1)) + 2, dtype=float))
        del level, top
        shared = (np.empty(grids.max(initial=0)), np.empty(grids.max(initial=0), dtype=bool),
                  np.arange(points.max(initial=0), dtype=float)[:, None])
        self.buckets = [
            _Bucket(slice(start, stop), self.base[start:stop], w[start:stop],
                    y.take(self.at_eps[start:stop]), y.take(self.at_eps[start:stop] - 1), lgam,
                    by_rows, *shared)
            for start, stop, by_rows in zip(starts, starts + sizes, row_wise)
        ]
        self._draws = np.empty(w.size, dtype=np.int64)

    def __call__(self, alpha: np.ndarray, rates: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
        """Draw a full innovation matrix given the current parameters.

        ``rates`` has shape (L, T-1): the innovation rate of series l at week
        t+1. The first-week column stays pinned to the first observations;
        single-point supports resolve deterministically.
        """
        a = np.clip(alpha, _ALPHA_EPS, 1.0 - _ALPHA_EPS)
        log_odds = np.log1p(-a) - np.log(a)

        n = self.rows.size
        if n:
            log_c = np.log(rates.take(self.at))
            log_c += log_odds.take(self.rows)
            u = rng.random(n).take(self.draw_order)
            for bucket in self.buckets:
                bucket.draw(log_c, u, self._draws)
            del log_c, u
            self._draws += self.base

        # deterministic cells resolve to their support point; C order
        # whatever the layout of ``counts``, so ``flat`` is a view
        new = self._start.copy()
        flat = new.reshape(-1)
        flat[self.at_eps] = self._draws
        return new


# The kernel's bytes, rounded up from tracemalloc peaks of builds and first
# calls: per grid cell, logw0; per cell of the largest bucket, the shared
# work and comparison grids; per point of a row-wise bucket, its row view
# and list slots; per table entry, the table and its range; per cell and
# panel entry, the arrays kept and the temporaries of a build and of one call.
_GRID_BYTES, _SHARED_BYTES, _STEP_BYTES, _TABLE_BYTES = 8, 8 + 1, 128, 2 * 8
_CELL_BYTES, _ENTRY_BYTES = 96, 32


def _check_grid_memory(width: np.ndarray, points: np.ndarray, grids: np.ndarray,
                       row_wise: np.ndarray, rows: np.ndarray, top: np.ndarray,
                       n_entries: int, series_ids: list[str] | None) -> tuple[int, int]:
    """Raise ``ConfigurationError`` if the kernel would not fit in memory:
    buckets of ``points`` points and ``grids`` cells over the sorted widths
    ``width`` (of series ``rows``), the log-factorial table up to the count
    ``top``, and ``n_entries`` panel entries.

    Returns the bytes counted and the part of them a chain in a forked
    worker writes, and so copies: all but the log-weights, which it only
    reads, and the table, which only the build holds."""
    cell_bytes = _CELL_BYTES * width.size + _ENTRY_BYTES * n_entries
    if width.size == 0:
        return cell_bytes, cell_bytes
    log_weights = _GRID_BYTES * int(grids.sum())
    work_bytes = _SHARED_BYTES * int(grids.max()) + _STEP_BYTES * int(points[row_wise].sum())
    grid_bytes = log_weights + work_bytes
    largest = int(np.argmax(top))
    table_bytes = _TABLE_BYTES * (int(top[largest]) + 2)
    if grid_bytes >= table_bytes:
        widest = int(np.argmax(width))
        cause = (f"series {series_name(int(rows[widest]), series_ids)} has the widest "
                 f"support, {int(width[widest]) + 1} values")
    else:
        cause = (f"series {series_name(int(rows[largest]), series_ids)} has a count of "
                 f"{int(top[largest])} next to an exactly enumerated week")
    needed = grid_bytes + table_bytes + cell_bytes
    refuse_over_memory(needed, "the support grids and log-factorial table of the exact "
                       "innovation kernel", cause)
    return needed, work_bytes + cell_bytes


# Cost of one bucket's running sums on a (points, cells) grid, in ns,
# measured on a 2-core Xeon: numpy's cumsum along axis 0 pays a fixed cost
# and a strided loop per cell, adding whole rows pays a call per point.
_COLUMN_SUM_NS = (2500.0, 10.0, 4.0)  # fixed, per cell, per grid point
_ROW_SUM_NS = 600.0                   # per support point after the first
_BUILD_CHUNK = 2**14  # grid entries whose log-factorials a build gathers at once
# A tall bucket's draw builds its log-weights a block of rows at a time
# (``_Bucket``): at least this many rows first, then this many more, until
# every cell lies this far in log below its maximum
_FIRST_ROWS, _NEXT_ROWS = 24, 8
_NEGLIGIBLE = 54 * math.log(2)  # that far below its maximum, a weight is under 2^-54 of it


class _Bucket:
    """The exact cells ``cells`` (a slice) of an ``InnovationKernel``, on a
    grid of shape (support points, cells) padded to their widest support.
    Its log-weight and comparison grids are views of the kernel's shared
    ones, valid until the next draw.

    A cell draws the number of its running weight sums that lie below
    ``u`` times its total. Padded points sit after each cell's last point
    and hold NaN: ``fmax`` skips them in the column maximum, they stay NaN
    through exp and the running sums without reaching a real point, never
    compare below the threshold, and the total is read at the cell's last
    point. So each cell draws what it would on its own support. NaN rather
    than -inf (weight zero) because numpy's vectorized exp sends a whole
    vector down a slow path for a -inf lane, and NaN does not: exp runs
    2-3 times faster on these grids. A cell whose real points hold NaN (a
    rate of 0 or inf) has a NaN total and draws offset 0, as with -inf
    padding. The last point is never below the threshold, so it is not
    compared.

    The running sums run one of two ways, chosen from the grid's shape by
    the measured costs above: wide grids add whole contiguous rows in place
    (``logw[i] += logw[i - 1]``, through one view per row), tall narrow ones
    take ``np.cumsum`` along axis 0 into the grid itself, which numpy
    computes as if input and output did not overlap. Both add each cell's
    weights one at a time from the first point on, so they give
    bit-identical sums.

    A bucket of more than ``_FIRST_ROWS`` points builds its log-weights
    that many rows first, or ``_NEXT_ROWS`` fewer than its last draw built
    if that is more, then ``_NEXT_ROWS`` at a time, keeping each cell's
    running maximum. It stops once every cell's newest log-weight lies
    more than ``_NEGLIGIBLE`` = 54 ln 2 below its maximum (``fmax`` skips
    NaN, padded or degenerate cells). Parameters move little from sweep to
    sweep, so starting near the last draw's stop spares most checks,
    above all on a bucket that one cell with a high mode keeps from
    stopping; the draws do not depend on where the rows start. Everything
    after, from the maximum to the comparisons, runs on the rows built,
    and a cell reads its total at its last point or the last row built,
    whichever comes first. The draws are those of the full grid:

    - the conditional is log-concave (its weight ratio c (y_t - e) / ((e +
      1) (y_{t-1} - y_t + e + 1)) falls in e), so a point that far below
      its column's running maximum lies past the mode, and every later
      point lies further below it: the maximum is the full column's, and
      every weight not built is below 2^-54 once the maximum is subtracted;
    - the maximum's point weighs exp(0) = 1, so every running sum from
      there on is at least 1, and adding a weight below 2^-54 leaves it
      unchanged under round to nearest. So the running sums that can fall
      below u times the total, and the total itself, are the full grid's
      floats, and a sum past the last row built equals the total, which
      never compares below the threshold;
    - a degenerate cell (a rate of 0, inf or NaN) has a NaN total and
      draws offset 0 either way.
    """

    def __init__(self, cells, base, width, y_curr, y_prev, lgam, row_wise, work, below, k):
        self.cells, self.base, self.row_wise = cells, base, row_wise
        m = int(width.max()) + 1
        c = width.shape[0]
        self._k = k[:m]  # the support offsets, a float64 column
        self._logw = logw = work[: m * c].reshape(m, c)
        # log-factorial terms never change across sweeps; only the rate
        # term multiplies the support grid. They are summed over the
        # unmasked grid, the work grid holding the innovation as int64, then
        # the survivors, then the thinned-away counts, with indices off the
        # table clipped; only the padding reads clipped entries, and it is
        # overwritten once at the end. The last two terms are gathered a
        # chunk at a time, so no second grid is built.
        lgam = lgam[1:]  # lgam[x] is now log x!
        counts = np.add.outer(np.arange(m), base, out=logw.view(np.int64))
        self.logw0 = logw0 = lgam.take(counts, mode="clip")
        flat, indices = logw0.reshape(-1), counts.reshape(-1)
        for y in (y_curr, y_prev):
            np.subtract(y, counts, out=counts)
            for i in range(0, m * c, _BUILD_CHUNK):
                flat[i:i + _BUILD_CHUNK] += lgam.take(indices[i:i + _BUILD_CHUNK], mode="clip")
        np.negative(logw0, out=logw0)
        logw0[np.greater.outer(np.arange(m), width, out=below[: m * c].reshape(m, c))] = np.nan
        # flat index of each cell's last point
        self._last = width * c + np.arange(c)
        self._below = below[: (m - 1) * c].reshape(m - 1, c)
        # the smallest unsigned type that holds an offset: summing bools
        # into it skips numpy's buffered cast to int64
        self._offsets = np.empty(c, dtype=np.min_scalar_type(m - 1))
        self._rows = list(logw) if row_wise else []
        self._built = 0  # the rows the last draw built

    def draw(self, log_c: np.ndarray, u: np.ndarray, out: np.ndarray):
        """Write each cell's offset into its support to ``out``, from the
        log rate-odds ``log_c`` and uniforms ``u`` of all the kernel's cells."""
        cells, k, base, logw0, grid = self.cells, self._k, self.base, self.logw0, self._logw
        m, c = grid.shape
        log_c = log_c[cells]
        start, stop = 0, max(min(m, _FIRST_ROWS), self._built - _NEXT_ROWS)
        while True:
            # the rate multiplier k + base is an integer below 2^53, exact in
            # float64, so the product has the bits of a stored multiplier grid's
            logw = grid[start:stop]
            np.add(k[start:stop], base, out=logw)
            logw *= log_c
            logw += logw0[start:stop]
            if start == 0:
                top = np.fmax.reduce(logw, axis=0)
            else:
                np.fmax(top, np.fmax.reduce(logw, axis=0), out=top)
            if stop == m or np.fmax.reduce(logw[-1] - top) < -_NEGLIGIBLE:
                break
            start, stop = stop, min(m, stop + _NEXT_ROWS)
        self._built = stop
        logw = grid[:stop]
        np.subtract(logw, top, out=logw)
        del log_c, top  # freed before the comparisons' temporaries, each a float per cell
        np.exp(logw, out=logw)
        if self.row_wise:
            rows = self._rows
            for prev, row in zip(rows, rows[1:stop]):
                row += prev
        else:
            np.cumsum(logw, axis=0, out=logw)
        last = self._last
        if stop < m:  # a cell wider than the rows built reads its total at the last one
            last = np.arange((stop - 1) * c, stop * c)
            np.minimum(self._last, last, out=last)
        total = logw.take(last)
        below = self._below[:stop - 1]
        np.less(logw[:-1], u[cells] * total, out=below)
        np.add.reduce(below, axis=0, dtype=self._offsets.dtype, out=self._offsets)
        out[cells] = self._offsets

