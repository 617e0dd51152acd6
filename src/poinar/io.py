"""File formats and run manifests.

Counts travel as CSV with one row per series: a ``series_id`` column followed
by one column per week, headed by the ISO week-start date. The season map is
the calendar month of each week's start date. Exposure is a two-column CSV
joined strictly on ``series_id``. Posterior draws persist as line-delimited
JSON with a version header.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .panel import N_MONTHS, CountPanel, innovation_bounds
from .sampler import SEED_DERIVATION, PosteriorDraws

DRAWS_FORMAT = "poinar-draws"
DRAWS_VERSION = 4
_RECORD_FIELDS = ("chain", "iteration", "tau", "alpha", "z", "phi_star", "theta")


class ParseError(ValueError):
    """Raised when an input file exists but cannot be interpreted."""


class IntegrityError(ValueError):
    """Raised when a persisted artifact is incomplete or from another version."""


def week_starts_from(start: datetime.date, n_weeks: int) -> list[datetime.date]:
    """Start dates of ``n_weeks`` consecutive weeks."""
    return [start + datetime.timedelta(days=7 * i) for i in range(n_weeks)]


def months_of(dates) -> np.ndarray:
    """Calendar month (1..12) of each date; the week-to-month convention."""
    return np.array([d.month for d in dates], dtype=np.int64)


# A count cell as numpy's C reader accepts it for int64: optional
# whitespace, an optional sign, ASCII digits, optional whitespace.
_COUNT_CELL = re.compile(r"\s*[+-]?[0-9]+\s*")
_COUNT_MAX = int(np.iinfo(np.int64).max)
_FLOAT_MAX = sys.float_info.max
_BLANK_LINES = frozenset(("\n", "\r", "\r\n"))


def load_counts(path, exposure_path=None) -> CountPanel:
    """Read a counts CSV (and optionally an exposure CSV) into a panel.

    The header's dates must be consecutive weeks, each 7 days after the
    one before. The header goes through ``csv``; the body through numpy's C
    reader, which parses every cell and checks every row's length. Only a
    file it rejects, or one with a blank line or a negative count, is
    scanned again row by row to name the first bad cell.
    """
    path = Path(path)
    with path.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if not header or header[0] != "series_id":
            raise ParseError(f"{path}: first header column must be 'series_id'")
        dates = []
        for j, cell in enumerate(header[1:], start=2):
            try:
                dates.append(datetime.date.fromisoformat(cell.strip()))
            except ValueError:
                raise ParseError(
                    f"{path}: header column {j} is not an ISO week-start date: {cell!r}"
                ) from None
        if not dates:
            raise ParseError(f"{path}: no week columns")
        for j in range(1, len(dates)):  # the sampler reads adjacent columns as one week apart
            if dates[j] - dates[j - 1] != datetime.timedelta(days=7):
                raise ParseError(f"{path}: header column {j + 2} ({dates[j]}) is not 7 days "
                                 f"after column {j + 1} ({dates[j - 1]})")

        blank_lines = []
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    _noting_blank_lines(fh, blank_lines),
                    dtype=[("series_id", object), ("counts", np.int64, (len(dates),))],
                    delimiter=",", quotechar='"', comments=None, ndmin=1,
                )
        except ValueError as exc:
            _raise_first_bad_row(path, len(dates))
            raise ParseError(f"{path}: {exc}") from None
    counts = table["counts"]
    if blank_lines or (counts < 0).any():
        _raise_first_bad_row(path, len(dates))  # a blank line may sit in a quoted id
    ids = table["series_id"].tolist()
    if not ids:
        raise ParseError(f"{path}: no series rows")
    if len(set(ids)) != len(ids):
        raise ParseError(f"{path}: duplicate series ids")

    exposure = None
    if exposure_path is not None:
        exposure = load_exposure(exposure_path, ids)
    return CountPanel(
        counts=np.ascontiguousarray(counts),
        season_of=months_of(dates),
        exposure=exposure,
        series_ids=ids,
        week_starts=dates,
    )


def _noting_blank_lines(lines, blank_lines: list):
    """Pass ``lines`` through, appending each empty one to ``blank_lines``;
    numpy's reader skips them, ``csv`` reads them as rows of no cells."""
    for line in lines:
        if line in _BLANK_LINES:
            blank_lines.append(line)
        yield line


def _raise_first_bad_row(path: Path, n_weeks: int):
    """Raise a ``ParseError`` naming the first row of the counts body that
    has the wrong cell count or a cell that is no count in [0, 2^63).

    A cell passes here exactly when numpy's C reader reads it as an int64,
    so a file this finds nothing in is one that reader accepts.
    """
    with path.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, row in enumerate(reader, start=2):
            if len(row) != n_weeks + 1:
                raise ParseError(f"{path}: row {i} has {len(row)} cells, expected {n_weeks + 1}")
            for j, cell in enumerate(row[1:], start=2):
                if not _COUNT_CELL.fullmatch(cell):
                    raise ParseError(
                        f"{path}: row {i}, column {j}: not an integer count: {cell!r}"
                    )
                value = int(cell)
                if value < 0:
                    raise ParseError(f"{path}: row {i}, column {j}: negative count {value}")
                if value > _COUNT_MAX:
                    raise ParseError(
                        f"{path}: row {i}, column {j}: count {value} is above 2^63 - 1"
                    )


def save_counts(panel: CountPanel, path):
    """Write a panel as a counts CSV under its own week dates."""
    dates = panel.week_starts
    if dates is None:
        raise ValueError("panel has no week dates")
    if np.any(months_of(dates) != panel.season_of):
        raise ValueError("the panel's week dates do not reproduce its season map")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id"] + [d.isoformat() for d in dates])
        for sid, row in zip(panel.series_ids, panel.counts.tolist()):
            writer.writerow([sid] + row)


def load_exposure(path, series_ids: list[str]) -> np.ndarray:
    """Read an exposure CSV and join it strictly against the panel ids."""
    path = Path(path)
    values: dict[str, float] = {}
    with path.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["series_id", "exposure"]:
            raise ParseError(f"{path}: header must be 'series_id,exposure'")
        for i, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ParseError(f"{path}: row {i} must have two cells")
            sid, cell = row
            if sid in values:
                raise ParseError(f"{path}: duplicate series id {sid!r}")
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"{path}: row {i}: not a number: {cell!r}") from None
            if not 0 < value < float("inf"):
                raise ParseError(f"{path}: row {i}: exposure must be positive and finite")
            values[sid] = value
    missing = [sid for sid in series_ids if sid not in values]
    known = set(series_ids)
    extra = [sid for sid in values if sid not in known]
    if missing or extra:
        raise ParseError(
            f"{path}: exposure ids do not match the panel "
            f"(missing {missing[:3]}, extra {extra[:3]})"
        )
    return np.array([values[sid] for sid in series_ids], dtype=float)


def panel_sha256(panel: CountPanel, n_weeks: int | None = None) -> str:
    """sha256 of the series ids and the first ``n_weeks`` weeks of counts."""
    digest = hashlib.sha256(json.dumps(panel.series_ids).encode())
    digest.update(np.ascontiguousarray(panel.counts[:, :n_weeks], dtype="<i8").tobytes())
    return digest.hexdigest()


def week_starts_sha256(panel: CountPanel, n_weeks: int | None = None) -> str | None:
    """sha256 of the first ``n_weeks`` ISO week-start dates; ``None`` for a
    panel without dates."""
    if panel.week_starts is None:
        return None
    dates = ",".join(d.isoformat() for d in panel.week_starts[:n_weeks])
    return hashlib.sha256(dates.encode()).hexdigest()


def save_draws(draws: PosteriorDraws, path, panel: CountPanel):
    """Persist draws as JSON lines with a version header.

    The header records the training ``panel``'s size, ``panel_sha256`` and
    ``week_starts_sha256``, so the draws can be checked against a panel
    later; the panel needs its week dates. It also records the draws'
    ``exposure``, or ``null`` for unit exposure. A record is one draw;
    floats are at full round-trip precision, ``phi_star`` cut to its
    ``n_clusters``; it holds ``innovations`` exactly when the draws keep
    them.
    """
    if panel.week_starts is None:
        raise ValueError("panel has no week dates for the draws header to bind")
    path = Path(path)
    header = {
        "format": DRAWS_FORMAT,
        "version": DRAWS_VERSION,
        "n_draws": len(draws),
        "n_series": panel.n_series,
        "n_weeks": panel.n_weeks,
        "panel_sha256": panel_sha256(panel),
        "week_starts_sha256": week_starts_sha256(panel),
        "exposure": None if draws.exposure is None else draws.exposure.tolist(),
    }
    innovations = draws.innovations if draws.innovations is not None else [None] * len(draws)
    rows = zip(draws.chain_index.tolist(), draws.iteration.tolist(), draws.tau.tolist(),
               draws.alpha.tolist(), draws.z.tolist(), draws.phi_star.tolist(),
               draws.n_clusters.tolist(), draws.theta.tolist(), innovations)
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for chain, iteration, tau, alpha, z, phi_star, k, theta, eps in rows:
            record = {"chain": chain, "iteration": iteration, "tau": tau, "alpha": alpha,
                      "z": z, "phi_star": phi_star[:k], "theta": theta}
            if eps is not None:
                record["innovations"] = eps.tolist()
            fh.write(json.dumps(record) + "\n")


def fitted_panel_mismatch(draws: PosteriorDraws, panel: CountPanel) -> str | None:
    """Why ``draws`` do not fit ``panel``, or ``None``: the first of a
    series count other than the panel's; for draws read from a file, a
    hash that differs from that of the panel's first ``n_weeks`` weeks; and
    a stored innovation outside its support under the panel's counts (see
    ``innovation_bounds``), with its file line for draws read from a file."""
    width = draws.alpha.shape[1]
    if width != panel.n_series:
        return f"the draws cover {width} series, but the panel holds {panel.n_series}"
    if draws.fitted_to is not None:
        n_weeks, counts_sha256, dates_sha256 = draws.fitted_to
        if n_weeks > panel.n_weeks:
            return f"the draws were fitted to {n_weeks} weeks, the counts hold {panel.n_weeks}"
        if counts_sha256 != panel_sha256(panel, n_weeks):
            return f"the series ids or counts of the first {n_weeks} weeks differ"
        if dates_sha256 != week_starts_sha256(panel, n_weeks):
            return f"the week-start dates of the first {n_weeks} weeks differ"
    eps = draws.innovations
    if eps is None:
        return None
    n_weeks = eps.shape[2]
    if n_weeks > panel.n_weeks:
        return f"the innovations cover {n_weeks} weeks, the counts hold {panel.n_weeks}"
    lo, hi = innovation_bounds(panel.counts[:, :n_weeks])
    outside = (eps < lo) | (eps > hi)
    if not outside.any():
        return None
    d, l, t = np.argwhere(outside)[0].tolist()
    line = f" (line {d + 2})" if draws.fitted_to is not None else ""
    return (f"draw {d + 1}{line} puts innovation {eps[d, l, t]} at series "
            f"{panel.series_ids[l]!r}, week {t + 1}, outside [{lo[l, t]}, {hi[l, t]}]")


def load_draws(path) -> PosteriorDraws:
    """Read draws written by ``save_draws``.

    The header must be of version ``DRAWS_VERSION``, with positive
    ``n_series``, ``n_weeks`` and ``n_draws``, both hashes of the training
    panel, and an ``exposure`` of ``null`` or ``n_series`` positive finite
    floats; draws of older versions must be refit.

    Every record is checked before use: ``chain``, ``iteration`` and ``z``
    hold JSON integers and the other fields JSON floats, each in range and
    of its width. A failed check raises an ``IntegrityError`` naming the
    line and the field."""
    path = Path(path)
    with path.open() as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise IntegrityError(f"{path}: empty draws file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        raise IntegrityError(f"{path}: unreadable header line") from None
    if not isinstance(header, dict) or header.get("format") != DRAWS_FORMAT:
        raise IntegrityError(f"{path}: not a draws file")
    if header.get("version") != DRAWS_VERSION:
        raise IntegrityError(
            f"{path}: draws version {header.get('version')} unsupported "
            f"(expected {DRAWS_VERSION}); refit them with 'poinar fit'"
        )
    for key in ("n_series", "n_weeks"):
        value = header.get(key)
        if type(value) is not int or value < 1:  # JSON true is no count
            raise IntegrityError(f"{path}: header field {key!r} is not a positive count")
    for key in ("panel_sha256", "week_starts_sha256"):
        if not isinstance(header.get(key), str):
            raise IntegrityError(f"{path}: header lacks the {key!r} string")
    if "exposure" not in header:
        raise IntegrityError(f"{path}: header lacks the 'exposure' field")
    exposure = header["exposure"]
    if exposure is not None:
        _check_list(f"{path}: header field 'exposure'", exposure, header["n_series"], np.inf,
                    positive=True)
        exposure = np.array(exposure, dtype=float)
    n_draws = header.get("n_draws")
    if type(n_draws) is not int:  # nor are JSON true and 6.0
        raise IntegrityError(f"{path}: header field 'n_draws' is not a count")
    if n_draws == 0:
        raise IntegrityError(f"{path}: holds no draws")
    records = lines[1:]
    if len(records) != n_draws:
        raise IntegrityError(
            f"{path}: expected {n_draws} draws, found {len(records)} (truncated or padded file)"
        )
    rows = []
    width, n_weeks, innovations = header["n_series"], header["n_weeks"], None
    for i, line in enumerate(records, start=2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            rec = None
        if not isinstance(rec, dict):
            raise IntegrityError(f"{path}: unreadable record on line {i}")
        missing = [key for key in _RECORD_FIELDS if key not in rec]
        if missing:
            raise IntegrityError(f"{path}: line {i}: record lacks field {missing[0]!r}")
        field = f"{path}: line {i}: field"
        for name in ("chain", "iteration"):
            if type(rec[name]) is not int or not 0 <= rec[name] <= _COUNT_MAX:
                raise IntegrityError(
                    f"{field} {name!r} holds {rec[name]!r}, not an integer in [0, 2^63)"
                )
        if type(rec["tau"]) is not float or not 0.0 <= rec["tau"] <= _FLOAT_MAX:
            raise IntegrityError(f"{field} 'tau' holds {rec['tau']!r}, not a finite value >= 0")
        for name, size, hi in (("alpha", width, 1.0), ("z", width, None),
                               ("phi_star", width, np.inf), ("theta", N_MONTHS, np.inf)):
            _check_list(f"{field} {name!r}", rec[name], size, hi, at_most=name == "phi_star")
        if rec["z"] and not 0 <= min(rec["z"]) <= max(rec["z"]) < len(rec["phi_star"]):
            raise IntegrityError(
                f"{field} 'z' names a cluster missing from "
                f"'phi_star' ({len(rec['phi_star'])} entries)"
            )
        if i == 2:
            keeps_innovations = "innovations" in rec
        if ("innovations" in rec) != keeps_innovations:
            raise IntegrityError(f"{field} 'innovations' is on some records but not on all")
        if keeps_innovations:
            value = rec.pop("innovations")  # kept only as an array
            try:
                eps = np.array(value)
            except ValueError:  # ragged rows
                eps = np.empty(0)
            if eps.dtype != np.int64 or eps.shape != (width, n_weeks):
                raise IntegrityError(
                    f"{field} 'innovations' is not a ({width}, {n_weeks}) matrix of "
                    f"integers: shape {_shape(value)}"
                )
            # numpy reads [true, 1] as [1, 1]; no other field may hold a
            # bool, so the text shows whether to look
            if "true" in line or "false" in line:
                flags = [[type(v) is bool for v in row] for row in value]
                if any(map(any, flags)):
                    l, t = np.argwhere(flags)[0].tolist()
                    raise IntegrityError(
                        f"{field} 'innovations' holds {json.dumps(value[l][t])} at series "
                        f"{l + 1}, week {t + 1}, not an integer"
                    )
            if eps.min(initial=0) < 0:
                l, t = np.argwhere(eps < 0)[0].tolist()
                raise IntegrityError(
                    f"{field} 'innovations' holds {eps[l, t]} at series {l + 1}, "
                    f"week {t + 1}, not a count"
                )
            if innovations is None:
                innovations = np.empty((n_draws, width, n_weeks), dtype=np.int64)
            innovations[i - 2] = eps
        rows.append(rec)

    n_clusters = np.array([len(rec["phi_star"]) for rec in rows], dtype=np.int64)
    filled = np.arange(width) < n_clusters[:, None]
    phi_star = np.full(filled.shape, np.nan)
    phi_star[filled] = [p for rec in rows for p in rec["phi_star"]]
    return PosteriorDraws(
        alpha=np.array([rec["alpha"] for rec in rows], dtype=float),
        z=np.array([rec["z"] for rec in rows], dtype=np.int64),
        phi_star=phi_star,
        n_clusters=n_clusters,
        theta=np.array([rec["theta"] for rec in rows], dtype=float),
        tau=np.array([rec["tau"] for rec in rows], dtype=float),
        chain_index=np.array([rec["chain"] for rec in rows], dtype=np.int64),
        iteration=np.array([rec["iteration"] for rec in rows], dtype=np.int64),
        innovations=innovations,
        exposure=exposure,
        fitted_to=(n_weeks, header["panel_sha256"], header["week_starts_sha256"]),
    )


def _check_list(field: str, value, size: int, hi: float | None, at_most: bool = False,
                positive: bool = False):
    """Raise an ``IntegrityError`` on ``field`` unless ``value`` is a flat
    list of ``size`` JSON values (at most ``size`` with ``at_most``):
    integers (no bools) if ``hi`` is ``None``, else finite floats in [0, hi],
    or in (0, hi] when ``positive``."""
    kinds = set(map(type, value)) if type(value) is list else {list}
    if list in kinds:
        raise IntegrityError(f"{field} has shape {_shape(value)}, expected {size} entries")
    if len(value) > size if at_most else len(value) != size:
        bound = "at most " if at_most else ""
        raise IntegrityError(f"{field} has {len(value)} entries, expected {bound}{size}")
    kind = int if hi is None else float
    if kinds - {kind}:
        bad = next(v for v in value if type(v) is not kind)
        raise IntegrityError(f"{field} holds {bad!r}, not {'an integer' if hi is None else 'a float'}")
    if hi is None or not value:
        return
    top = min(hi, _FLOAT_MAX)  # inf is no finite value
    low = min(value)
    # min and max can pass over a NaN, but the sum of a list holding one is NaN
    if (not (low > 0.0 if positive else low >= 0.0) or max(value) > top
            or math.isnan(sum(value))):
        bad = next(v for v in value if not (0.0 < v if positive else 0.0 <= v) or not v <= top)
        raise IntegrityError(f"{field} holds {bad!r}, not a finite value in "
                             f"{'(' if positive else '['}0, {hi}]")


def _shape(value) -> str:
    """The shape numpy reads off a JSON value, or "ragged"."""
    try:
        return str(np.shape(value))
    except ValueError:
        return "ragged"


def write_json(path, doc: dict):
    """Write ``doc`` as JSON indented by 2, keys sorted, ending in a newline.
    JSON has no NaN or infinity, so a float that is not finite, such as an
    undefined metric, is written as ``null``."""
    with Path(path).open("w") as fh:
        json.dump(_finite_or_null(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _finite_or_null(value):
    """``value`` with each float in it that is not finite replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_manifest(out_dir, command: str, parameters: dict):
    """Record everything needed to reproduce a run: the command, its resolved
    parameters (seeds included) and the library versions. No timestamps, so
    identical runs produce identical manifests."""
    from . import __version__

    write_json(Path(out_dir) / "manifest.json", {
        "command": command,
        "parameters": parameters,
        "versions": {
            "poinar": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "python": sys.version.split()[0],
        },
        "seed_derivation": SEED_DERIVATION,
    })
