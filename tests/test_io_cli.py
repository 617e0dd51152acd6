"""File formats, persistence round trips and the command-line pipeline."""

import argparse
import csv
import datetime
import json
import os
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawrows import assert_same_draws
from oracles import draw_averaged_pmf, per_cell_load_counts, save_exposure
from poinar import cli, io
from poinar.cli import main
from poinar.forecast import posterior_conditional_means
from poinar.harness import Scenario, simulate_scenario
from poinar.panel import CountPanel
from poinar.sampler import PosteriorDraws, SamplerConfig, run_chain


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


GOOD_CSV = (
    "series_id,2001-01-01,2001-01-08,2001-01-15\n"
    "a,1,0,2\n"
    "b,3,1,0\n"
)
BOM = "\ufeff"  # the UTF-8 byte-order mark, which Excel's "CSV UTF-8" writes first


class TestLoadCounts:
    def test_valid_file(self, tmp_path):
        panel = io.load_counts(write(tmp_path / "c.csv", GOOD_CSV))
        assert panel.n_series == 2 and panel.n_weeks == 3
        assert np.array_equal(panel.counts, [[1, 0, 2], [3, 1, 0]])
        assert list(panel.season_of) == [1, 1, 1]  # all January
        assert panel.series_ids == ["a", "b"]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain = io.load_counts(write(tmp_path / "c.csv", GOOD_CSV))
        marked = io.load_counts(write(tmp_path / "bom.csv", BOM + GOOD_CSV))
        assert marked.series_ids == plain.series_ids and marked.week_starts == plain.week_starts
        assert np.array_equal(marked.counts, plain.counts)
        assert io.panel_sha256(marked) == io.panel_sha256(plain)
        # the row-by-row rescan of a bad file reads past the mark too
        with pytest.raises(io.ParseError, match="row 3, column 3: negative count -1"):
            io.load_counts(write(tmp_path / "bad.csv", BOM + GOOD_CSV.replace("3,1,0", "3,-1,0")))

    def test_files_are_written_as_utf8(self, tmp_path):
        # without a byte-order mark
        panel = replace(io.load_counts(write(tmp_path / "c.csv", GOOD_CSV)),
                        series_ids=["Zürich", "東京"])
        io.save_counts(panel, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == (
            "series_id,2001-01-01,2001-01-08,2001-01-15\r\nZürich,1,0,2\r\n東京,3,1,0\r\n").encode()
        cli._write_csv(tmp_path / "rows.csv", ["series_id", "mean"], [("東京", 0.5)])
        assert (tmp_path / "rows.csv").read_bytes() == "series_id,mean\r\n東京,0.5\r\n".encode()

    def test_negative_cell_names_position(self, tmp_path):
        bad = GOOD_CSV.replace("3,1,0", "3,-1,0")
        with pytest.raises(io.ParseError, match="row 3, column 3"):
            io.load_counts(write(tmp_path / "c.csv", bad))

    def test_non_integer_cell(self, tmp_path):
        bad = GOOD_CSV.replace("1,0,2", "1,x,2")
        with pytest.raises(io.ParseError, match="not an integer"):
            io.load_counts(write(tmp_path / "c.csv", bad))

    def test_ragged_row(self, tmp_path):
        bad = GOOD_CSV.replace("b,3,1,0", "b,3,1")
        with pytest.raises(io.ParseError, match="row 3"):
            io.load_counts(write(tmp_path / "c.csv", bad))

    def test_bad_date_header(self, tmp_path):
        bad = GOOD_CSV.replace("2001-01-08", "week2")
        with pytest.raises(io.ParseError, match="week-start date"):
            io.load_counts(write(tmp_path / "c.csv", bad))

    def test_duplicate_ids(self, tmp_path):
        bad = GOOD_CSV.replace("b,3,1,0", "a,3,1,0")
        with pytest.raises(io.ParseError, match="duplicate"):
            io.load_counts(write(tmp_path / "c.csv", bad))

    def test_season_spans_months(self, tmp_path):
        header = "series_id,2001-01-25,2001-02-01\n"
        panel = io.load_counts(write(tmp_path / "c.csv", header + "a,0,1\n"))
        assert list(panel.season_of) == [1, 2]

    @pytest.mark.parametrize("dates, message", [
        ("2001-01-22,2001-01-08,2001-03-01", r"column 3 \(2001-01-08\) is not 7 days after "
                                             r"column 2 \(2001-01-22\)"),
        ("2001-01-01,2001-01-08,2001-01-22", r"column 4 \(2001-01-22\) is not 7 days after "
                                             r"column 3 \(2001-01-08\)"),
        ("2001-01-01,2001-01-01,2001-01-08", r"column 3 \(2001-01-01\)"),
    ])
    def test_weeks_must_be_consecutive(self, tmp_path, dates, message):
        # the sampler would read two columns further apart as one weekly
        # transition, and forecast would date its weeks from the last
        text = GOOD_CSV.replace("2001-01-01,2001-01-08,2001-01-15", dates)
        with pytest.raises(io.ParseError, match=message):
            io.load_counts(write(tmp_path / "c.csv", text))

    def test_count_beyond_int64_names_position(self, tmp_path):
        bad = GOOD_CSV.replace("3,1,0", "3,99999999999999999999,0")
        with pytest.raises(io.ParseError, match=r"row 3, column 3: count 9+ is above 2\^63 - 1"):
            io.load_counts(write(tmp_path / "c.csv", bad))
        largest = GOOD_CSV.replace("3,1,0", "3,9223372036854775807,0")
        assert io.load_counts(write(tmp_path / "c.csv", largest)).counts[1, 1] == 2**63 - 1

    @pytest.mark.parametrize("text, message", [
        (GOOD_CSV + "\n", "row 4 has 0 cells"),
        (GOOD_CSV.replace("a,1,0,2\n", "a,1,0,2\n\r\n"), "row 3 has 0 cells"),
        ("series_id,2001-01-01\n", "no series rows"),
    ])
    def test_blank_lines_and_empty_body(self, tmp_path, text, message):
        with pytest.raises(io.ParseError, match=message):
            io.load_counts(write(tmp_path / "c.csv", text))

    def test_blank_line_inside_a_quoted_id_is_part_of_the_id(self, tmp_path):
        text = GOOD_CSV.replace("a,1,0,2", '"a\n\nz",1,0,2')
        assert io.load_counts(write(tmp_path / "c.csv", text)).series_ids == ["a\n\nz", "b"]

    @pytest.mark.parametrize("cell, value", [("1_000", 1000), ("٣", 3)])
    def test_only_int_accepts_underscores_and_non_ascii_digits(self, tmp_path, cell, value):
        # the two spellings the per-cell parser took and numpy's reader does not
        path = write(tmp_path / "c.csv", GOOD_CSV.replace("3,1,0", f"3,{cell},0"))
        assert per_cell_load_counts(path).counts[1, 1] == value
        with pytest.raises(io.ParseError, match=f"row 3, column 3: not an integer count: '{cell}'"):
            io.load_counts(path)


# Pieces of generated counts files: ids with commas, doubled quotes, a
# leading '#', a quoted blank line or an unclosed quote, and cells on both
# sides of the grammar. ``1_000`` and non-ASCII digits are left out:
# ``int()`` takes them and numpy's reader does not (see the test above).
_IDS = ["a", "b", "#c", '"d,e"', '"f""g"', '"h"', '""', " i ", '"j\n\nk"', '"l']
_INTEGER_CELLS = ["0", "3", "12", "007", "+3", " 3 ", "\t7\t", '"4"', "-1", "-0",
                  "9223372036854775807", "9223372036854775808",
                  "99999999999999999999", "-99999999999999999999"]
_CELLS = _INTEGER_CELLS + ['5"', "1.0", '""', "", "0x10", "x", "3 4", "+-3"]


@st.composite
def counts_files(draw):
    n_weeks = draw(st.integers(1, 3))
    header = ",".join(["series_id"] + [f"2001-01-{1 + 7 * i:02d}" for i in range(n_weeks)])
    lines = [header]
    cells_from = draw(st.sampled_from([_CELLS, _INTEGER_CELLS]))  # half the files read as integers
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 6)) == 0:
            lines.append("")  # a blank line
            continue
        width = draw(st.sampled_from([n_weeks, n_weeks, n_weeks, n_weeks - 1, n_weeks + 1]))
        cells = draw(st.lists(st.sampled_from(cells_from), min_size=width, max_size=width))
        lines.append(",".join([draw(st.sampled_from(_IDS))] + cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def _parse_outcome(load, path):
    try:
        panel = load(path)
    except io.ParseError as exc:
        return "error", str(exc)
    except OverflowError:
        return "overflow", None
    return "panel", (panel.series_ids, panel.counts.tolist(), panel.counts.dtype,
                     panel.week_starts, panel.season_of.tolist())


def _position(message: str) -> tuple:
    """(row, column) a ParseError names; a row's cell count is checked
    before its cells, and whole-file errors come after every row."""
    found = re.search(r"row (\d+)(?:, column (\d+))?", message)
    if found is None:
        return (float("inf"), 0)
    return (int(found[1]), int(found[2] or 0))


class TestCountsParserAgainstPerCellOracle:
    @given(text=counts_files())
    @settings(max_examples=400, deadline=None)
    def test_same_panel_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "generated_counts.csv"
        path.write_bytes(text.encode())
        expected = _parse_outcome(per_cell_load_counts, path)
        got = _parse_outcome(io.load_counts, path)
        overflow = got[0] == "error" and re.search(
            r"row \d+, column \d+: count \d+ is above 2\^63 - 1$", got[1])
        if overflow:
            # The per-cell parser let counts beyond int64 through to np.array,
            # which raised OverflowError after every row was read; now the
            # first such cell is an error in its place in the file.
            assert expected[0] == "overflow" or (
                expected[0] == "error" and _position(expected[1]) > _position(got[1]))
        else:
            assert got == expected


class TestExposure:
    def test_strict_join(self, tmp_path):
        counts = write(tmp_path / "c.csv", GOOD_CSV)
        expo = write(tmp_path / "e.csv", "series_id,exposure\nb,2.5\na,1.5\n")
        panel = io.load_counts(counts, exposure_path=expo)
        assert np.allclose(panel.exposure, [1.5, 2.5])  # joined by id, not order

    def test_missing_series(self, tmp_path):
        counts = write(tmp_path / "c.csv", GOOD_CSV)
        expo = write(tmp_path / "e.csv", "series_id,exposure\na,1.5\n")
        with pytest.raises(io.ParseError, match="do not match"):
            io.load_counts(counts, exposure_path=expo)

    def test_nonpositive_exposure(self, tmp_path):
        counts = write(tmp_path / "c.csv", GOOD_CSV)
        expo = write(tmp_path / "e.csv", "series_id,exposure\na,1.5\nb,0\n")
        with pytest.raises(io.ParseError, match="positive"):
            io.load_counts(counts, exposure_path=expo)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        counts = write(tmp_path / "c.csv", GOOD_CSV)
        expo = "series_id,exposure\nb,2.5\na,1.5\n"
        plain = io.load_counts(counts, exposure_path=write(tmp_path / "e.csv", expo))
        marked = io.load_counts(counts, exposure_path=write(tmp_path / "bom.csv", BOM + expo))
        assert np.array_equal(marked.exposure, plain.exposure)

    def test_round_trip(self, tmp_path):
        values = np.array([1.23456789012345678, 2.5])
        save_exposure(["a", "b"], values, tmp_path / "e.csv")
        loaded = io.load_exposure(tmp_path / "e.csv", ["a", "b"])
        assert np.array_equal(loaded, values)


class TestCountsRoundTrip:
    def test_simulated_panel_round_trips_exactly(self, tmp_path):
        sc = Scenario(name="rt", cluster_rates=(1.0, 4.0), thinning=0.4, L=6, T=100)
        panel, _, _ = simulate_scenario(sc, np.random.default_rng(3))
        io.save_counts(panel, tmp_path / "c.csv")
        loaded = io.load_counts(tmp_path / "c.csv")
        assert np.array_equal(loaded.counts, panel.counts)
        assert np.array_equal(loaded.season_of, panel.season_of)
        assert loaded.series_ids == panel.series_ids
        assert loaded.week_starts == panel.week_starts

    def test_dates_must_match_season(self, tmp_path):
        dates = [datetime.date(2001, 1, 1), datetime.date(2001, 1, 8)]
        panel = CountPanel(counts=np.array([[1, 2]]), season_of=np.array([1, 3]),
                           week_starts=dates)
        with pytest.raises(ValueError, match="season"):
            io.save_counts(panel, tmp_path / "c.csv")


def _tiny_panel():
    """The panel ``tiny_draws`` are fitted to."""
    sc = Scenario(name="d", cluster_rates=(1.0, 3.0), thinning=0.4, L=6, T=72)
    return simulate_scenario(sc, np.random.default_rng(5))[0]


@pytest.fixture(scope="module")
def tiny_draws():
    config = SamplerConfig(n_iterations=40, burn_in=10, thin_interval=3, seed=1,
                           keep_innovations=True)
    return run_chain(_tiny_panel(), config)


def _edit_header(path, edit):
    """Apply ``edit`` to the header of the draws file at ``path``."""
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    edit(header)
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")


class TestDrawsPersistence:
    def test_round_trip_identity(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, _tiny_panel())
        loaded = io.load_draws(path)
        assert tiny_draws.innovations is not None
        assert_same_draws(loaded, tiny_draws)  # bit-exact floats

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), keep_innovations=st.booleans())
    def test_round_trip_of_random_draws(self, tmp_path_factory, data, keep_innovations):
        panel = _tiny_panel()
        D, (L, T) = data.draw(st.integers(1, 5)), panel.counts.shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ks = np.array(data.draw(st.lists(st.integers(1, L), min_size=D, max_size=D)))
        phi_star = np.where(np.arange(L) < ks[:, None], rng.gamma(1.0, 2.0, (D, L)), np.nan)
        draws = PosteriorDraws(
            alpha=rng.uniform(0.0, 1.0, (D, L)),
            z=(rng.integers(0, 2**62, (D, L)) % ks[:, None]),
            phi_star=phi_star,
            n_clusters=ks,
            theta=rng.gamma(1.0, 1.0, (D, 12)),
            tau=rng.gamma(2.0, 0.25, D),
            chain_index=rng.integers(0, 3, D),
            iteration=rng.integers(1, 10**6, D),
            innovations=rng.integers(0, 50, (D, L, T)) if keep_innovations else None,
            # exposures across decades, so that the digits repr writes vary
            exposure=10.0 ** rng.uniform(-3.0, 6.0, L) if data.draw(st.booleans()) else None,
        )
        path = tmp_path_factory.mktemp("draws") / "draws.jsonl"
        io.save_draws(draws, path, panel)
        loaded = io.load_draws(path)
        assert_same_draws(loaded, draws)  # the exposure bit for bit too
        again = path.with_name("again.jsonl")
        io.save_draws(loaded, again, panel)
        assert again.read_bytes() == path.read_bytes()

    def test_truncated_file_detected(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, _tiny_panel())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(io.IntegrityError, match="truncated"):
            io.load_draws(path)

    def test_version_mismatch_detected(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, _tiny_panel())
        _edit_header(path, lambda h: h.update(version=99))
        with pytest.raises(io.IntegrityError, match="version"):
            io.load_draws(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_versions_rejected(self, tmp_path, tiny_draws, version):
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, _tiny_panel())
        _edit_header(path, lambda h: h.update(version=version))
        with pytest.raises(io.IntegrityError,
                           match=f"draws version {version} unsupported .*; refit them"):
            io.load_draws(path)

    @pytest.mark.parametrize("value", [None, True, 0])
    @pytest.mark.parametrize("key", ["n_series", "n_weeks"])
    def test_header_needs_the_panel_size(self, tmp_path, tiny_draws, key, value):
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, _tiny_panel())
        _edit_header(path, lambda h: h.update({key: value}))
        with pytest.raises(io.IntegrityError, match=f"header field '{key}' is not a positive"):
            io.load_draws(path)

    def test_header_binds_the_training_panel(self, tmp_path, tiny_draws):
        panel = _tiny_panel()
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, panel)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["version"] == io.DRAWS_VERSION == 4
        assert header["exposure"] is None and "mode" not in header
        assert (header["n_series"], header["n_weeks"]) == (6, 72)
        assert header["panel_sha256"] == io.panel_sha256(panel)
        assert header["week_starts_sha256"] == io.week_starts_sha256(panel)
        loaded = io.load_draws(path)
        assert loaded.fitted_to == (72, io.panel_sha256(panel), io.week_starts_sha256(panel))
        assert io.fitted_panel_mismatch(loaded, panel) is None

    def test_header_carries_the_fitted_exposure(self, tmp_path, tiny_draws):
        exposure = np.array([0.1, 1.0, 2.5, 1 / 3, 1e-300, 1e300])
        path = tmp_path / "draws.jsonl"
        io.save_draws(replace(tiny_draws, exposure=exposure), path, _tiny_panel())
        assert json.loads(path.read_text().splitlines()[0])["exposure"] == exposure.tolist()
        loaded = io.load_draws(path)
        assert loaded.exposure.tobytes() == exposure.tobytes()
        lam = np.take_along_axis(loaded.phi_star, loaded.z, axis=1)
        assert np.array_equal(loaded.stacked()[1], lam * exposure)

    @pytest.mark.parametrize("exposure, error", [
        ([1.0] * 5, "has 5 entries, expected 6"),
        ([1.0] * 7, "has 7 entries, expected 6"),
        ([1.0] * 5 + [0.0], "holds 0.0, not a finite value in (0, inf]"),
        ([1.0] * 5 + [-2.0], "holds -2.0, not a finite value in (0, inf]"),
        ([1.0] * 5 + [float("nan")], "holds nan, not a finite value in (0, inf]"),
        ([1.0] * 5 + [float("inf")], "holds inf, not a finite value in (0, inf]"),
        ([1.0] * 5 + [True], "holds True, not a float"),
        ([1.0] * 5 + [[1.0]], "has shape ragged, expected 6 entries"),
        ([[1.0] * 6], "has shape (1, 6), expected 6 entries"),
        (2.0, "has shape (), expected 6 entries"),
        ("plain", "has shape (), expected 6 entries"),
    ], ids=["short", "long", "zero", "negative", "nan", "inf", "bool", "nested", "matrix",
            "scalar", "string"])
    def test_malformed_header_exposure_refused(self, tmp_path, tiny_draws, capsys, exposure,
                                               error):
        panel = _tiny_panel()
        io.save_counts(panel, tmp_path / "c.csv")
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, panel)
        _edit_header(path, lambda h: h.update(exposure=exposure))
        out = tmp_path / "fc"
        assert main(["forecast", "--counts", str(tmp_path / "c.csv"), "--draws", str(path),
                     "--out", str(out)]) == 1
        assert f"{path}: header field 'exposure' {error}" in capsys.readouterr().err
        assert not (out / "forecasts.csv").exists()

    def test_header_without_an_exposure_refused(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, _tiny_panel())
        _edit_header(path, lambda h: h.pop("exposure"))
        with pytest.raises(io.IntegrityError, match="header lacks the 'exposure' field"):
            io.load_draws(path)

    def test_version_three_header_refused(self, tmp_path, tiny_draws):
        # a version-3 file: a mode where the exposure now is
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, _tiny_panel())
        _edit_header(path, lambda h: (h.pop("exposure"), h.update(version=3, mode="plain")))
        with pytest.raises(io.IntegrityError, match="draws version 3 unsupported .expected 4."):
            io.load_draws(path)

    def test_version_three_header_needs_the_dates(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, _tiny_panel())
        _edit_header(path, lambda h: h.pop("week_starts_sha256"))
        with pytest.raises(io.IntegrityError, match="week_starts_sha256"):
            io.load_draws(path)

    def test_draws_need_a_panel_with_dates(self, tmp_path, tiny_draws):
        panel = replace(_tiny_panel(), week_starts=None)
        with pytest.raises(ValueError, match="no week dates"):
            io.save_draws(tiny_draws, tmp_path / "draws.jsonl", panel)

    def test_version_two_header_needs_the_panel(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, _tiny_panel())
        _edit_header(path, lambda h: h.pop("panel_sha256"))
        with pytest.raises(io.IntegrityError, match="panel_sha256"):
            io.load_draws(path)

    def test_header_width_binds_every_record(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, _tiny_panel())
        path.write_text(path.read_text().replace('"n_series": 6', '"n_series": 7', 1))
        with pytest.raises(io.IntegrityError, match="line 2: field 'alpha' has 6 entries, expected 7"):
            io.load_draws(path)

    def test_dates_hash_covers_the_first_weeks(self):
        panel = _tiny_panel()
        shifted = replace(panel, week_starts=[d + datetime.timedelta(days=140)
                                              for d in panel.week_starts])
        assert io.week_starts_sha256(shifted) != io.week_starts_sha256(panel)
        assert io.week_starts_sha256(panel, 50) == io.week_starts_sha256(
            replace(panel, counts=panel.counts[:, :50], season_of=panel.season_of[:50],
                    week_starts=panel.week_starts[:50])
        )

    def test_panel_hash_covers_ids_and_counts(self):
        panel = _tiny_panel()
        counts = panel.counts.copy()
        counts[3, 40] += 1
        assert io.panel_sha256(replace(panel, counts=counts)) != io.panel_sha256(panel)
        renamed = replace(panel, series_ids=[f"x{i}" for i in range(6)])
        assert io.panel_sha256(renamed) != io.panel_sha256(panel)
        # a panel extending the training weeks hashes equal on that prefix
        assert io.panel_sha256(panel, 50) == io.panel_sha256(
            replace(panel, counts=panel.counts[:, :50], season_of=panel.season_of[:50],
                    week_starts=panel.week_starts[:50])
        )

    def test_no_draws_rejected(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, _tiny_panel())
        _edit_header(path, lambda h: h.update(n_draws=0))
        path.write_text(path.read_text().splitlines()[0] + "\n")
        with pytest.raises(io.IntegrityError, match="holds no draws"):
            io.load_draws(path)

    @pytest.mark.parametrize("value", [6.0, True])
    def test_draw_count_must_be_a_json_integer(self, tmp_path, tiny_draws, capsys, value):
        panel = _tiny_panel()
        io.save_counts(panel, tmp_path / "c.csv")
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, panel)
        _edit_header(path, lambda h: h.update(n_draws=value))
        with pytest.raises(io.IntegrityError, match="header field 'n_draws' is not a count"):
            io.load_draws(path)
        out = tmp_path / "fc"
        assert main(["forecast", "--counts", str(tmp_path / "c.csv"), "--draws", str(path),
                     "--out", str(out)]) == 1
        assert "header field 'n_draws' is not a count" in capsys.readouterr().err
        assert not out.exists()

    def test_draws_of_a_chain_checked_for_width_and_support(self, tiny_draws):
        # draws ``run_chain`` returns record no panel hashes; the series
        # count and the innovations still bind them to a panel
        panel = _tiny_panel()
        assert tiny_draws.fitted_to is None
        assert io.fitted_panel_mismatch(tiny_draws, panel) is None
        narrow = replace(panel, counts=panel.counts[:4], series_ids=panel.series_ids[:4])
        assert io.fitted_panel_mismatch(tiny_draws, narrow) == (
            "the draws cover 6 series, but the panel holds 4")
        counts = panel.counts.copy()
        counts[0, 0] += 1  # eps_1 = y_1 in every draw
        y = int(counts[0, 0])
        assert io.fitted_panel_mismatch(tiny_draws, replace(panel, counts=counts)) == (
            f"draw 1 puts innovation {y - 1} at series 's000', week 1, "
            f"outside [{y}, {y}]")

    def test_loaded_draws_off_support_name_the_line(self, tmp_path, tiny_draws):
        # a record's innovation raised past its week's count, in a file
        # whose header still binds the draws to the panel
        panel = _tiny_panel()
        y = int(panel.counts[0, 0])  # eps_1 = y_1 in every draw
        path = tmp_path / "draws.jsonl"

        def raise_first(record):
            record["innovations"][0][0] += 1
        line = self._edit_record(path, tiny_draws, 2, raise_first)
        assert io.fitted_panel_mismatch(io.load_draws(path), panel) == (
            f"draw 3 (line {line}) puts innovation {y + 1} at series 's000', week 1, "
            f"outside [{y}, {y}]")

    def test_foreign_file_rejected(self, tmp_path):
        path = write(tmp_path / "x.jsonl", '{"something": "else"}\n')
        with pytest.raises(io.IntegrityError, match="not a draws file"):
            io.load_draws(path)

    @staticmethod
    def _edit_record(path, draws, index, edit):
        """Save ``draws``, apply ``edit`` to record ``index`` (0-based) and
        return the file line that record sits on."""
        io.save_draws(draws, path, _tiny_panel())
        lines = path.read_text().splitlines()
        record = json.loads(lines[index + 1])
        edit(record)
        lines[index + 1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        return index + 2

    def test_missing_field_names_line_and_field(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        line = self._edit_record(path, tiny_draws, 2, lambda r: r.pop("alpha"))
        with pytest.raises(io.IntegrityError, match=f"line {line}: .*'alpha'"):
            io.load_draws(path)

    def test_width_change_rejected(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        line = self._edit_record(path, tiny_draws, 1, lambda r: r["z"].pop())
        expected = f"line {line}: field 'z' has 5 entries, expected 6"
        with pytest.raises(io.IntegrityError, match=expected):
            io.load_draws(path)
        line = self._edit_record(path, tiny_draws, 3, lambda r: r["alpha"].append(0.5))
        with pytest.raises(io.IntegrityError, match=f"line {line}: field 'alpha' has 7"):
            io.load_draws(path)

    def test_theta_needs_twelve_months(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        line = self._edit_record(path, tiny_draws, 0, lambda r: r["theta"].pop())
        expected = f"line {line}: field 'theta' has 11 entries, expected 12"
        with pytest.raises(io.IntegrityError, match=expected):
            io.load_draws(path)

    @pytest.mark.parametrize("field, value", [
        ("alpha", 1.5), ("alpha", -0.1), ("alpha", float("nan")),
        ("phi_star", -1.0), ("phi_star", float("inf")), ("theta", float("nan")),
        ("chain", "a"), ("chain", 1.7), ("chain", True), ("iteration", None),
        ("z", 0.5), ("z", True), ("tau", -3.0), ("tau", float("nan")),
        pytest.param("alpha", [[0.5]] * 6, id="alpha-nested"),
    ])
    def test_out_of_range_value_names_line_and_field(self, tmp_path, tiny_draws, field, value):
        path = tmp_path / "draws.jsonl"

        def edit(record):
            if isinstance(record[field], list) and not isinstance(value, list):
                record[field][0] = value
            else:
                record[field] = value

        line = self._edit_record(path, tiny_draws, 2, edit)
        expected = f"line {line}: field '{field}' (holds|has shape \\(6, 1\\), expected 6)"
        with pytest.raises(io.IntegrityError, match=expected):
            io.load_draws(path)

    def test_more_cluster_rates_than_series_rejected(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        line = self._edit_record(path, tiny_draws, 1, lambda r: r["phi_star"].extend([1.0] * 6))
        with pytest.raises(io.IntegrityError,
                           match=f"line {line}: field 'phi_star' has .* expected at most 6"):
            io.load_draws(path)

    def test_innovations_on_some_records_only_rejected(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        expected = "field 'innovations' is on some records but not on all"
        line = self._edit_record(path, tiny_draws, 3, lambda r: r.pop("innovations"))
        with pytest.raises(io.IntegrityError, match=f"line {line}: {expected}"):
            io.load_draws(path)
        eps = tiny_draws.innovations[0].tolist()
        line = self._edit_record(path, replace(tiny_draws, innovations=None), 2,
                                 lambda r: r.update(innovations=eps))
        with pytest.raises(io.IntegrityError, match=f"line {line}: {expected}"):
            io.load_draws(path)

    @pytest.mark.parametrize("edit", [
        lambda r: r["innovations"].pop(),
        lambda r: r["innovations"][2].pop(),
        lambda r: r["innovations"][0].__setitem__(3, 0.5),
        lambda r: r["innovations"][0].__setitem__(3, "a"),
    ], ids=["rows", "ragged", "float", "string"])
    def test_innovations_of_another_shape_rejected(self, tmp_path, tiny_draws, edit):
        path = tmp_path / "draws.jsonl"
        line = self._edit_record(path, tiny_draws, 1, edit)
        expected = f"line {line}: field 'innovations' is not a \\(6, 72\\) matrix of integers"
        with pytest.raises(io.IntegrityError, match=expected):
            io.load_draws(path)

    @pytest.mark.parametrize("value", [True, False])
    def test_innovations_holding_a_bool_rejected(self, tmp_path, tiny_draws, value):
        # numpy would read [.., true, ..] among integers as 1
        path = tmp_path / "draws.jsonl"
        line = self._edit_record(path, tiny_draws, 1,
                                 lambda r: r["innovations"][2].__setitem__(5, value))
        expected = (f"line {line}: field 'innovations' holds {json.dumps(value)} at series 3, "
                    "week 6, not an integer")
        with pytest.raises(io.IntegrityError, match=expected):
            io.load_draws(path)

    def test_negative_innovation_rejected(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"
        line = self._edit_record(path, tiny_draws, 2,
                                 lambda r: r["innovations"][4].__setitem__(0, -2))
        expected = f"line {line}: field 'innovations' holds -2 at series 5, week 1, not a count"
        with pytest.raises(io.IntegrityError, match=expected):
            io.load_draws(path)

    def test_membership_beyond_cluster_rates_rejected(self, tmp_path, tiny_draws):
        path = tmp_path / "draws.jsonl"

        def edit(record):
            record["z"][0] = len(record["phi_star"])

        line = self._edit_record(path, tiny_draws, 1, edit)
        with pytest.raises(io.IntegrityError, match=f"line {line}: field 'z'"):
            io.load_draws(path)


class TestCli:
    def test_simulate_then_fit_then_forecast(self, tmp_path):
        sim_dir = tmp_path / "sim"
        assert main([
            "simulate", "--scenario", "hard-0.1", "--seed", "7",
            "--series", "8", "--out", str(sim_dir),
        ]) == 0
        assert (sim_dir / "counts.csv").exists()
        assert (sim_dir / "truth.json").exists()
        assert (sim_dir / "manifest.json").exists()
        truth = json.loads((sim_dir / "truth.json").read_text())
        assert len(truth["memberships"]) == 8

        fit_dir = tmp_path / "fit"
        assert main([
            "fit", "--counts", str(sim_dir / "counts.csv"), "--out", str(fit_dir),
            "--iterations", "60", "--burn-in", "10", "--thin", "5", "--seed", "3",
        ]) == 0
        draws = io.load_draws(fit_dir / "draws.jsonl")
        assert len(draws) == 10
        diag = json.loads((fit_dir / "diagnostics.json").read_text())
        assert "modal_clusters" in diag

        fc_dir = tmp_path / "fc"
        assert main([
            "forecast", "--counts", str(sim_dir / "counts.csv"),
            "--draws", str(fit_dir / "draws.jsonl"),
            "--quantiles", "0.5,0.95,0.99", "--horizon", "3", "--out", str(fc_dir),
        ]) == 0
        header = (fc_dir / "forecasts.csv").read_text().splitlines()[0]
        assert header.split(",")[:3] == ["series_id", "y_last", "mean"]
        assert header.count("q0.") == 3  # one column per requested quantile
        assert "mean_step2" in header and "mean_step3" in header

    def test_evaluation_json_is_strict_json(self, tmp_path):
        # hard-0.1 from weekly origins leaves one forecast with last value
        # 3, whose standard errors are undefined; an all-zero panel has no
        # positive truth to take an APE of. JSON has no NaN: each is null.
        def strict(path):
            return json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(
                f"{path} holds {name}, which is not JSON"))

        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "hard-0.1", "--series", "8",
                     "--out", str(sim)]) == 0
        zero = replace(io.load_counts(sim / "counts.csv"), counts=np.zeros((8, 208), np.int64))
        io.save_counts(zero, tmp_path / "zero.csv")
        sweeps = ["--iterations", "30", "--burn-in", "10", "--thin", "5"]
        for name, counts in (("sim", sim / "counts.csv"), ("zero", tmp_path / "zero.csv")):
            assert main(["fit", "--counts", str(counts), *sweeps,
                         "--out", str(tmp_path / name / "fit")]) == 0
            assert main(["evaluate", "--counts", str(counts), "--origins", "weekly",
                         "--draws", str(tmp_path / name / "fit" / "draws.jsonl"),
                         "--out", str(tmp_path / name / "ev")]) == 0
        doc = strict(sim / "ev" / "evaluation.json")
        assert doc["by_last_value"]["3"]["n"] == 1
        assert doc["by_last_value"]["3"]["rmse_se"] is None
        assert doc["by_last_value"]["3"]["bias_se"] is None
        assert isinstance(doc["ape"], float)
        doc = strict(tmp_path / "zero" / "ev" / "evaluation.json")
        assert doc["ape"] is None and doc["n_ape"] == 0

    def test_json_writer_writes_null_for_undefined_numbers(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        io.write_json(tmp_path / "doc.json", {"a": nan, "b": [1.5, inf, (-inf, 2)],
                                               "c": {"d": nan, "e": "NaN"}, "f": None})
        assert json.loads((tmp_path / "doc.json").read_text(), parse_constant=float) == {
            "a": None, "b": [1.5, None, [None, 2]], "c": {"d": None, "e": "NaN"}, "f": None}

    def test_fit_writes_innovations_only_when_asked(self, tmp_path):
        io.save_counts(_tiny_panel(), tmp_path / "c.csv")
        records = {}
        for flag in ([], ["--include-innovations"]):
            out = tmp_path / ("with" if flag else "without")
            assert main(["fit", "--counts", str(tmp_path / "c.csv"), "--out", str(out),
                         "--iterations", "20", "--burn-in", "10", "--thin", "5"] + flag) == 0
            lines = (out / "draws.jsonl").read_text().splitlines()[1:]
            records[bool(flag)] = [json.loads(line) for line in lines]
        assert not any("innovations" in r for r in records[False])
        for lean, full in zip(records[False], records[True]):
            eps = np.array(full.pop("innovations"))
            assert eps.shape == _tiny_panel().counts.shape
            assert lean == full  # the same draws either way

    def test_evaluate_pipeline(self, tmp_path):
        sc = Scenario(name="cli-eval", cluster_rates=(0.5, 2.0), thinning=0.3, L=6, T=160)
        panel, _, _ = simulate_scenario(sc, np.random.default_rng(11))
        train = replace(panel, counts=panel.counts[:, :120],
                        season_of=panel.season_of[:120],
                        week_starts=panel.week_starts[:120])
        io.save_counts(panel, tmp_path / "full.csv")
        io.save_counts(train, tmp_path / "train.csv")
        fit_dir = tmp_path / "fit"
        assert main([
            "fit", "--counts", str(tmp_path / "train.csv"), "--out", str(fit_dir),
            "--iterations", "80", "--burn-in", "20", "--thin", "5",
        ]) == 0
        ev_dir = tmp_path / "eval"
        assert main([
            "evaluate", "--counts", str(tmp_path / "full.csv"),
            "--draws", str(fit_dir / "draws.jsonl"),
            "--holdout", "40", "--out", str(ev_dir),
        ]) == 0
        doc = json.loads((ev_dir / "evaluation.json").read_text())
        assert doc["n_total"] > 0
        freq = sum(b["frequency"] for b in doc["by_last_value"].values())
        assert freq == pytest.approx(1.0, abs=1e-12)

    def test_covariate_pipeline(self, tmp_path, capsys):
        sim, fc, ev = tmp_path / "sim", tmp_path / "fc", tmp_path / "ev"
        assert main(["simulate", "--scenario", "hard-0.1", "--series", "8",
                     "--out", str(sim)]) == 0
        counts, exposure = str(sim / "counts.csv"), str(tmp_path / "exposure.csv")
        ids = io.load_counts(counts).series_ids
        save_exposure(ids, np.linspace(0.5, 4.0, len(ids)), exposure)
        draws = str(tmp_path / "fit" / "draws.jsonl")
        assert main(["fit", "--counts", counts, "--exposure", exposure,
                     "--chains", "2", "--iterations", "30", "--burn-in", "10", "--thin", "5",
                     "--out", str(tmp_path / "fit")]) == 0
        # the draws carry the exposure they were fitted with
        panel = io.load_counts(counts, exposure_path=exposure)
        loaded = io.load_draws(draws)
        assert np.array_equal(loaded.exposure, panel.exposure)
        inputs = ["--counts", counts, "--draws", draws]
        assert main(["forecast", *inputs, "--horizon", "2", "--out", str(fc)]) == 0
        assert main(["evaluate", *inputs, "--out", str(ev)]) == 0

        months = io.months_of(io.week_starts_from(
            panel.week_starts[-1] + datetime.timedelta(days=7), 2))
        expected = posterior_conditional_means(loaded, panel.counts[:, -1], months)
        with (fc / "forecasts.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["mean"] for r in rows] == [repr(float(m)) for m in expected[0]]
        assert [r["mean_step2"] for r in rows] == [repr(float(m)) for m in expected[1]]
        assert json.loads((ev / "evaluation.json").read_text())["n_total"] > 0

    def test_forecast_and_evaluate_take_no_exposure(self, tmp_path, capsys):
        # an exposure is given once, to the fit; a second one, even of the
        # same ids, is a usage error that writes nothing
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "hard-0.1", "--series", "8",
                     "--out", str(sim)]) == 0
        counts, exposure = str(sim / "counts.csv"), str(tmp_path / "exposure.csv")
        ids = io.load_counts(counts).series_ids
        save_exposure(ids, np.linspace(0.5, 4.0, 8), exposure)
        sweeps = ["--iterations", "30", "--burn-in", "10", "--thin", "5"]
        # a fit scales its rates exactly when given an exposure
        assert main(["fit", "--counts", counts, "--exposure", exposure, *sweeps,
                     "--out", str(tmp_path / "cfit")]) == 0
        cdraws = str(tmp_path / "cfit" / "draws.jsonl")
        assert io.load_draws(cdraws).exposure.tolist() == np.linspace(0.5, 4.0, 8).tolist()
        assert main(["fit", "--counts", counts, *sweeps, "--out", str(tmp_path / "fit")]) == 0
        draws = str(tmp_path / "fit" / "draws.jsonl")
        assert io.load_draws(draws).exposure is None
        other = str(tmp_path / "other.csv")
        save_exposure(ids, 100.0 * np.arange(1, 9), other)
        capsys.readouterr()
        for command in ("forecast", "evaluate"):
            for fitted in (draws, cdraws):
                out = tmp_path / command
                assert main([command, "--counts", counts, "--draws", fitted,
                             "--exposure", other, "--out", str(out)]) == 2
                assert "unrecognized arguments: --exposure" in capsys.readouterr().err
                assert not out.exists()

    def test_malformed_draws_record_exits_one(self, tmp_path, tiny_draws, capsys):
        sc = Scenario(name="d", cluster_rates=(1.0, 3.0), thinning=0.4, L=6, T=72)
        panel, _, _ = simulate_scenario(sc, np.random.default_rng(5))
        io.save_counts(panel, tmp_path / "c.csv")
        path = tmp_path / "draws.jsonl"
        line = TestDrawsPersistence._edit_record(path, tiny_draws, 0, lambda r: r.pop("alpha"))
        code = main(["forecast", "--counts", str(tmp_path / "c.csv"), "--draws", str(path),
                     "--out", str(tmp_path / "fc")])
        assert code == 1
        assert f"line {line}: record lacks field 'alpha'" in capsys.readouterr().err
        line = TestDrawsPersistence._edit_record(path, tiny_draws, 1,
                                                 lambda r: r.update(iteration=None))
        code = main(["forecast", "--counts", str(tmp_path / "c.csv"), "--draws", str(path),
                     "--out", str(tmp_path / "fc")])
        assert code == 1
        assert f"line {line}: field 'iteration' holds None" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["first week", "above", "below"])
    def test_innovations_off_their_support_exit_one(self, tmp_path, tiny_draws, capsys, where):
        panel = _tiny_panel()
        io.save_counts(panel, tmp_path / "c.csv")
        path = tmp_path / "draws.jsonl"
        y = panel.counts[3]
        lo = np.maximum(np.diff(y), 0)
        if where == "first week":  # eps_1 = y_1
            t, value, bounds = 0, y[0] + 1, (y[0], y[0])
        elif where == "above":
            t = 1 + int(np.argmax(y[1:] > 0))
            value, bounds = y[t] + 1, (lo[t - 1], y[t])
        else:
            t = 1 + int(np.argmax(lo > 0))
            value, bounds = lo[t - 1] - 1, (lo[t - 1], y[t])
        io.save_draws(tiny_draws, path, panel)
        assert main(["forecast", "--counts", str(tmp_path / "c.csv"), "--draws", str(path),
                     "--out", str(tmp_path / "ok")]) == 0
        TestDrawsPersistence._edit_record(
            path, tiny_draws, 2, lambda r: r["innovations"][3].__setitem__(t, int(value)))
        code = main(["forecast", "--counts", str(tmp_path / "c.csv"), "--draws", str(path),
                     "--out", str(tmp_path / "fc")])
        assert code == 1
        assert (f"draw 3 (line 4) puts innovation {value} at series 's003', week {t + 1}, "
                f"outside [{bounds[0]}, {bounds[1]}]") in capsys.readouterr().err
        assert not (tmp_path / "fc" / "forecasts.csv").exists()

    @pytest.fixture
    def mismatched(self, tmp_path):
        """An 8-series fit and a 4-series counts file."""
        wide, narrow = tmp_path / "wide", tmp_path / "narrow"
        assert main(["simulate", "--scenario", "hard-0.1", "--series", "8",
                     "--out", str(wide)]) == 0
        assert main(["simulate", "--scenario", "hard-0.1", "--series", "4",
                     "--out", str(narrow)]) == 0
        assert main(["fit", "--counts", str(wide / "counts.csv"), "--out", str(tmp_path / "fit"),
                     "--iterations", "20", "--burn-in", "10", "--thin", "5"]) == 0
        return narrow / "counts.csv", tmp_path / "fit" / "draws.jsonl"

    def test_forecast_rejects_draws_from_another_panel(self, tmp_path, mismatched, capsys):
        counts, draws = mismatched
        code = main(["forecast", "--counts", str(counts), "--draws", str(draws),
                     "--out", str(tmp_path / "fc")])
        assert code == 1
        assert "draws cover 8 series" in capsys.readouterr().err
        assert not (tmp_path / "fc" / "forecasts.csv").exists()

    def test_evaluate_rejects_draws_from_another_panel(self, tmp_path, mismatched, capsys):
        counts, draws = mismatched
        code = main(["evaluate", "--counts", str(counts), "--draws", str(draws),
                     "--holdout", "20", "--out", str(tmp_path / "ev")])
        assert code == 1
        err = capsys.readouterr().err
        assert "draws cover 8 series" in err and "holds 4" in err

    def test_draws_from_another_panel_of_the_same_width_rejected(self, tmp_path, capsys):
        # two simulated 8-series panels share their ids and dates
        easy, hard, fit = tmp_path / "easy", tmp_path / "hard", tmp_path / "fit"
        assert main(["simulate", "--scenario", "easy-0.5", "--series", "8",
                     "--out", str(easy)]) == 0
        assert main(["simulate", "--scenario", "hard-0.9", "--series", "8",
                     "--out", str(hard)]) == 0
        assert main(["fit", "--counts", str(easy / "counts.csv"), "--out", str(fit),
                     "--iterations", "20", "--burn-in", "10", "--thin", "5"]) == 0
        code = main(["forecast", "--counts", str(hard / "counts.csv"),
                     "--draws", str(fit / "draws.jsonl"), "--out", str(tmp_path / "fc")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(fit / "draws.jsonl") in err and str(hard / "counts.csv") in err
        assert "counts of the first 208 weeks differ" in err
        assert not (tmp_path / "fc" / "forecasts.csv").exists()

    @pytest.fixture
    def train_and_full(self, tmp_path):
        """A fit on the first 120 of 160 weeks, and both counts files."""
        sc = Scenario(name="bind", cluster_rates=(0.5, 2.0), thinning=0.3, L=4, T=160)
        panel, _, _ = simulate_scenario(sc, np.random.default_rng(13))
        train = replace(panel, counts=panel.counts[:, :120], season_of=panel.season_of[:120],
                        week_starts=panel.week_starts[:120])
        io.save_counts(panel, tmp_path / "full.csv")
        io.save_counts(train, tmp_path / "train.csv")
        assert main(["fit", "--counts", str(tmp_path / "train.csv"),
                     "--out", str(tmp_path / "fit"),
                     "--iterations", "20", "--burn-in", "10", "--thin", "5"]) == 0
        return panel, tmp_path / "fit" / "draws.jsonl"

    def test_evaluate_rejects_a_changed_training_week(self, tmp_path, train_and_full, capsys):
        panel, draws = train_and_full
        counts = panel.counts.copy()
        counts[2, 37] += 1
        io.save_counts(replace(panel, counts=counts), tmp_path / "edited.csv")
        code = main(["evaluate", "--counts", str(tmp_path / "edited.csv"), "--draws", str(draws),
                     "--holdout", "40", "--out", str(tmp_path / "ev")])
        assert code == 1
        assert "counts of the first 120 weeks differ" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["forecast", "evaluate"])
    def test_shifted_week_dates_rejected(self, tmp_path, train_and_full, capsys, command):
        # the same ids and counts, every week 20 weeks later: the forecast
        # months would move, so the draws no longer fit the panel
        panel, draws = train_and_full
        dates = [d + datetime.timedelta(weeks=20) for d in panel.week_starts]
        months = io.months_of(dates)
        shifted = tmp_path / "shifted.csv"
        io.save_counts(replace(panel, season_of=months, week_starts=dates), shifted)
        code = main([command, "--counts", str(shifted), "--draws", str(draws),
                     "--out", str(tmp_path / command)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(draws) in err and str(shifted) in err
        assert "week-start dates of the first 120 weeks differ" in err

    def test_counts_shorter_than_the_fit_rejected(self, tmp_path, train_and_full, capsys):
        panel, draws = train_and_full
        short = replace(panel, counts=panel.counts[:, :100], season_of=panel.season_of[:100],
                        week_starts=panel.week_starts[:100])
        io.save_counts(short, tmp_path / "short.csv")
        code = main(["forecast", "--counts", str(tmp_path / "short.csv"), "--draws", str(draws),
                     "--out", str(tmp_path / "fc")])
        assert code == 1
        assert "fitted to 120 weeks, the counts hold 100" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["fit", "--help"], 0), (["study", "-h"], 0), (["bogus"], 2), ([], 2),
    ])
    def test_help_and_usage_errors_name_every_command(self, capsys, argv, code):
        assert main(argv) == code
        captured = capsys.readouterr()
        for command in ("simulate", "fit", "forecast", "evaluate", "study"):
            assert command in captured.out + captured.err, command

    def test_parser_of_a_command_line_holds_only_its_command_options(self):
        argv = ["forecast", "--counts", "c.csv", "--draws", "d.jsonl", "--out", "o"]
        lean = cli.build_parser(argv)
        full = cli.build_parser()
        subparsers = [next(a for a in p._actions if isinstance(a, argparse._SubParsersAction))
                      for p in (lean, full)]
        assert list(subparsers[0].choices) == list(subparsers[1].choices)
        for name, parser in subparsers[0].choices.items():
            assert bool(parser._actions) == (name == "forecast"), name
        assert vars(lean.parse_args(argv)) == vars(full.parse_args(argv))
        assert list(vars(lean.parse_args(argv))) == list(vars(full.parse_args(argv)))

    def test_fit_beside_a_drop_from_a_huge_count_is_a_usage_error(self, tmp_path, capsys):
        # the week of 3 after 10^12 is enumerated, and its log-factorial
        # table would reach 10^12 entries
        weeks = io.week_starts_from(datetime.date(2001, 1, 1), 6)
        panel = CountPanel(counts=np.array([[10**12, 3, 2, 4, 1, 0]]),
                           season_of=io.months_of(weeks), series_ids=["drop"], week_starts=weeks)
        io.save_counts(panel, tmp_path / "c.csv")
        out = tmp_path / "fit"
        assert main(["fit", "--counts", str(tmp_path / "c.csv"), "--out", str(out)]) == 2
        assert "series 'drop' has a count of 1000000000000" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_whose_exact_grids_exceed_memory_is_a_usage_error(self, tmp_path, capsys):
        weeks = io.week_starts_from(datetime.date(2001, 1, 1), 4000)
        panel = CountPanel(counts=np.full((1, 4000), 10**7), season_of=io.months_of(weeks),
                           series_ids=["huge"], week_starts=weeks)
        io.save_counts(panel, tmp_path / "c.csv")
        out = tmp_path / "fit"
        assert main(["fit", "--counts", str(tmp_path / "c.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the support grids and log-factorial table of the exact "
                              "innovation kernel would need about ")
        # the message ends with its cause and names no option
        assert err.endswith("; series 'huge' has the widest support, 10000001 values\n")
        assert "--" not in err
        assert not out.exists()

    def test_fit_mode_is_no_option(self, tmp_path, capsys):
        io.save_counts(_tiny_panel(), tmp_path / "c.csv")
        out = tmp_path / "fit"
        assert main(["fit", "--counts", str(tmp_path / "c.csv"), "--mode", "covariate",
                     "--out", str(out)]) == 2
        assert "unrecognized arguments: --mode covariate" in capsys.readouterr().err
        assert not out.exists()

    def test_metropolis_threshold_is_no_option(self, tmp_path, capsys):
        io.save_counts(_tiny_panel(), tmp_path / "c.csv")
        out = tmp_path / "fit"
        assert main(["fit", "--counts", str(tmp_path / "c.csv"), "--metropolis-threshold", "4",
                     "--iterations", "20", "--burn-in", "10", "--out", str(out)]) == 2
        assert "unrecognized arguments: --metropolis-threshold 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, options, error", [
        ("fit", ["--counts", "c.csv", "--out", "file.txt"], "File exists"),
        ("fit", ["--counts", "c.csv", "--out", "file.txt/fit"], "Not a directory"),
        ("fit", ["--counts", "dir", "--out", "new/fit"], "Is a directory"),
        ("forecast", ["--counts", "c.csv", "--draws", "dir", "--out", "new/fc"],
         "Is a directory"),
        ("fit", ["--counts", "c.csv", "--exposure", "dir", "--out", "new/fit"],
         "Is a directory"),
        ("fit", ["--counts", "locked.csv", "--out", "new/fit"], "Permission denied"),
    ], ids=["out-is-a-file", "out-under-a-file", "counts-is-a-directory",
            "draws-is-a-directory", "exposure-is-a-directory", "counts-unreadable"])
    def test_path_of_the_wrong_kind_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                     command, options, error):
        io.save_counts(_tiny_panel(), tmp_path / "c.csv")
        (tmp_path / "file.txt").write_text("mine")
        (tmp_path / "dir").mkdir()
        load_counts = io.load_counts

        def locked(path, **kwargs):
            if Path(path).name == "locked.csv":  # a root user may read any file
                raise PermissionError(13, "Permission denied", str(path))
            return load_counts(path, **kwargs)

        monkeypatch.setattr(io, "load_counts", locked)
        argv = [command]
        for flag, value in zip(options[::2], options[1::2]):
            argv += [flag, str(tmp_path / value)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and error in err
        # nothing is written, and the new output directory is removed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "dir", "file.txt"]
        assert (tmp_path / "file.txt").read_text() == "mine"
        assert not any((tmp_path / "dir").iterdir())

    @pytest.mark.parametrize("phi_star, theta, message", [
        # the rate overflows to inf before any truncation point is sought
        (1e300, 1e10, "has a draw whose innovation rate, its cluster rate times the month's "
                      "seasonal effect, overflows to inf"),
        # a point near 10^15: every draw's grid would take petabytes
        (1e15, 1.0, "GiB, more than this machine's"),
    ])
    def test_forecast_whose_pmf_grid_cannot_be_built_is_a_usage_error(
            self, tmp_path, tiny_draws, capsys, phi_star, theta, message):
        panel = _tiny_panel()
        io.save_counts(panel, tmp_path / "c.csv")
        huge = replace(tiny_draws, phi_star=np.where(np.isnan(tiny_draws.phi_star), np.nan, phi_star),
                       theta=np.full_like(tiny_draws.theta, theta))
        io.save_draws(huge, tmp_path / "draws.jsonl", panel)
        out = tmp_path / "fc"
        code = main(["forecast", "--counts", str(tmp_path / "c.csv"),
                     "--draws", str(tmp_path / "draws.jsonl"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert any(f"series {name!r}" in err for name in panel.series_ids)
        assert not out.exists()

    @pytest.mark.parametrize("command", [["forecast", "--quantiles", ""], ["evaluate"]])
    def test_means_from_draws_whose_rate_overflows_are_a_usage_error(
            self, tmp_path, tiny_draws, capsys, command):
        panel = _tiny_panel()
        io.save_counts(panel, tmp_path / "c.csv")
        huge = replace(tiny_draws, phi_star=np.where(np.isnan(tiny_draws.phi_star), np.nan, 1e300),
                       theta=np.full_like(tiny_draws.theta, 1e10))
        io.save_draws(huge, tmp_path / "draws.jsonl", panel)
        out = tmp_path / "out"
        assert main(command + ["--counts", str(tmp_path / "c.csv"),
                               "--draws", str(tmp_path / "draws.jsonl"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"series {panel.series_ids[0]!r} has a draw whose innovation rate" in err
        assert "overflows to inf, so its mean forecast cannot be computed" in err
        assert not out.exists()

    def test_horizon_past_the_calendar_is_a_usage_error(self, tmp_path, capsys):
        # counts whose last week starts 9999-12-10: the calendar holds three
        # weeks after it, the last starting on 9999-12-31
        panel = _tiny_panel()
        weeks = io.week_starts_from(
            datetime.date(9999, 12, 10) - datetime.timedelta(days=7 * (panel.n_weeks - 1)),
            panel.n_weeks)
        panel = replace(panel, week_starts=weeks, season_of=io.months_of(weeks))
        io.save_counts(panel, tmp_path / "c.csv")
        draws = run_chain(panel, SamplerConfig(n_iterations=6, burn_in=2, thin_interval=2, seed=1))
        io.save_draws(draws, tmp_path / "draws.jsonl", panel)
        argv = ["forecast", "--counts", str(tmp_path / "c.csv"),
                "--draws", str(tmp_path / "draws.jsonl"), "--quantiles", ""]
        assert main(argv + ["--horizon", "3", "--out", str(tmp_path / "fc")]) == 0
        header = (tmp_path / "fc" / "forecasts.csv").read_text().splitlines()[0]
        assert header.endswith(",mean_step2,mean_step3")
        out = tmp_path / "out"
        assert main(argv + ["--horizon", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("--horizon 4 runs past the calendar, whose last week starts 9999-12-31, "
                "3 weeks after the counts' last week") in err
        assert not out.exists()

    def test_failed_command_removes_only_the_directories_it_created(self, tmp_path, tiny_draws):
        io.save_counts(_tiny_panel(), tmp_path / "c.csv")
        io.save_draws(tiny_draws, tmp_path / "draws.jsonl", _tiny_panel())
        argv = ["forecast", "--counts", str(tmp_path / "c.csv"),
                "--draws", str(tmp_path / "draws.jsonl"), "--horizon", "0", "--out"]
        assert main(argv + [str(tmp_path / "new" / "fc")]) == 2
        assert not (tmp_path / "new").exists()  # the parent it made goes too
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("mine")
        assert main(argv + [str(kept / "fc")]) == 2
        assert main(argv + [str(kept)]) == 2
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]
        assert (kept / "notes.txt").read_text() == "mine"

    def test_failed_command_keeps_a_sibling_run_under_a_parent_it_created(
            self, tmp_path, monkeypatch, capsys):
        # two runs write under a new runs/today; the second writes its output
        # while the first is still running, and then the first fails
        sibling = tmp_path / "runs" / "today" / "s2"

        def failing_forecast(args, out):
            sibling.mkdir(parents=True)
            (sibling / "forecasts.csv").write_text("theirs")
            raise cli.ConfigurationError("failed while the sibling ran")

        monkeypatch.setattr(cli, "cmd_forecast", failing_forecast)
        argv = ["forecast", "--counts", "c.csv", "--draws", "d.jsonl",
                "--out", str(tmp_path / "runs" / "today" / "s1")]
        assert main(argv) == 2
        assert "failed while the sibling ran" in capsys.readouterr().err
        assert not (tmp_path / "runs" / "today" / "s1").exists()
        assert (sibling / "forecasts.csv").read_text() == "theirs"

    def test_count_beyond_int64_exits_one(self, tmp_path, capsys):
        path = write(tmp_path / "c.csv", GOOD_CSV.replace("b,3,1,0", "b,3,99999999999999999999,0"))
        code = main(["fit", "--counts", str(path), "--out", str(tmp_path / "fit"),
                     "--iterations", "4", "--burn-in", "2", "--thin", "1"])
        assert code == 1
        assert "row 3, column 3: count 99999999999999999999 is above 2^63 - 1" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["forecast", "evaluate"])
    @pytest.mark.parametrize("version", [1, 2])
    def test_older_draws_versions_exit_one(self, tmp_path, tiny_draws, capsys,
                                           version, command):
        io.save_counts(_tiny_panel(), tmp_path / "c.csv")
        path = tmp_path / "draws.jsonl"
        io.save_draws(tiny_draws, path, _tiny_panel())
        _edit_header(path, lambda h: h.update(version=version))
        out = tmp_path / command
        code = main([command, "--counts", str(tmp_path / "c.csv"), "--draws", str(path),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path}: draws version {version} unsupported" in err and "refit" in err
        assert not any(out.glob("*.csv"))

    def test_draws_from_another_panel_rejected_under_a_version_one_header(self, tmp_path,
                                                                           capsys):
        # a version 1 header bound no panel: such draws of a hard-0.1 fit
        # forecast an easy-0.9 panel of the same width
        hard, easy, fit = tmp_path / "hard", tmp_path / "easy", tmp_path / "fit"
        for scenario, out in (("hard-0.1", hard), ("easy-0.9", easy)):
            assert main(["simulate", "--scenario", scenario, "--series", "8",
                         "--out", str(out)]) == 0
        assert main(["fit", "--counts", str(hard / "counts.csv"), "--out", str(fit),
                     "--iterations", "20", "--burn-in", "10", "--thin", "5"]) == 0
        draws = fit / "draws.jsonl"
        forecast = ["forecast", "--counts", str(easy / "counts.csv"), "--draws", str(draws),
                    "--out", str(tmp_path / "fc")]
        assert main(forecast) == 1
        _edit_header(draws, lambda h: h.update(version=1))
        capsys.readouterr()
        assert main(forecast) == 1
        assert f"{draws}: draws version 1 unsupported" in capsys.readouterr().err
        assert not (tmp_path / "fc" / "forecasts.csv").exists()

    def test_forecast_quantiles_match_oracle_on_outlier_panel(self, tmp_path):
        # one series ends on an outlier week of 400: its pmf spans ~650 counts
        sc = Scenario(name="outlier", cluster_rates=(0.5, 2.0), thinning=0.3, L=4, T=60)
        panel, _, _ = simulate_scenario(sc, np.random.default_rng(17))
        counts = panel.counts.copy()
        counts[1, -1] = 400
        io.save_counts(replace(panel, counts=counts), tmp_path / "c.csv")
        fit = tmp_path / "fit"
        assert main(["fit", "--counts", str(tmp_path / "c.csv"), "--out", str(fit),
                     "--iterations", "30", "--burn-in", "10", "--thin", "5"]) == 0
        started = time.monotonic()
        assert main(["forecast", "--counts", str(tmp_path / "c.csv"),
                     "--draws", str(fit / "draws.jsonl"),
                     "--quantiles", "0.5,0.95,0.99", "--out", str(tmp_path / "fc")]) == 0
        assert time.monotonic() - started < 20.0

        records = [json.loads(line) for line in
                   (fit / "draws.jsonl").read_text().splitlines()[1:]]
        month = (panel.week_starts[-1] + datetime.timedelta(days=7)).month
        rows = list(csv.DictReader((tmp_path / "fc" / "forecasts.csv").open(newline="")))
        assert [int(r["y_last"]) for r in rows] == list(counts[:, -1])
        for l, row in enumerate(rows):
            alphas = [rec["alpha"][l] for rec in records]
            rates = [rec["phi_star"][rec["z"][l]] * rec["theta"][month - 1] for rec in records]
            cdf = np.cumsum(draw_averaged_pmf(int(counts[l, -1]), alphas, rates))
            for q in ("0.5", "0.95", "0.99"):
                assert int(row[f"q{q}"]) == int(np.searchsorted(cdf, float(q)))

    def test_out_of_range_draws_exit_1(self, tmp_path, tiny_draws, capsys):
        io.save_counts(_tiny_panel(), tmp_path / "c.csv")
        draws = tmp_path / "draws.jsonl"
        line = TestDrawsPersistence._edit_record(
            draws, tiny_draws, 0, lambda r: r["alpha"].__setitem__(1, 1.5)
        )
        code = main(["forecast", "--counts", str(tmp_path / "c.csv"), "--draws", str(draws),
                     "--quantiles", "0.5", "--out", str(tmp_path / "fc")])
        assert code == 1
        assert f"line {line}: field 'alpha' holds 1.5" in capsys.readouterr().err

    def test_plain_value_error_propagates(self, tmp_path, monkeypatch):
        # a ValueError from a bug is no user error: main must not swallow it
        def broken(name):
            raise ValueError("not a package error")

        monkeypatch.setattr(cli, "scenario_by_name", broken)
        with pytest.raises(ValueError, match="not a package error"):
            main(["simulate", "--scenario", "hard-0.1", "--out", str(tmp_path)])

    @pytest.mark.parametrize("argv", [
        ["fit", "--iterations", "10", "--burn-in", "10"],
        ["fit", "--thin", "0"],
        ["fit", "--eta1", "-1"],
        ["fit", "--chains", "2", "--iterations", "12", "--burn-in", "10", "--thin", "2"],
        ["forecast", "--horizon", "0"],
        ["forecast", "--quantiles", "0.5,0.9999999999"],
        ["evaluate", "--holdout", "72"],
        ["simulate", "--series", "7"],
        ["simulate", "--series", "0"],
        ["study", "--replicates", "0"],
        ["simulate", "--seed", "-1"],
        ["fit", "--seed", "-1"],
        ["study", "--seed", "-1"],
        ["evaluate", "--bucket-cap", "-1"],
        # sweep settings that keep no draws
        ["study", "--replicates", "1", "--iterations", "20", "--burn-in", "10", "--thin", "20"],
        ["fit", "--iterations", "20", "--burn-in", "10", "--thin", "20"],
    ])
    def test_bad_settings_are_usage_errors(self, tmp_path, tiny_draws, argv, capsys):
        io.save_counts(_tiny_panel(), tmp_path / "c.csv")
        io.save_draws(tiny_draws, tmp_path / "draws.jsonl", _tiny_panel())
        inputs = {
            "simulate": ["--scenario", "hard-0.1"],
            "study": ["--scenarios", "hard-0.1"],
            "fit": ["--counts", str(tmp_path / "c.csv")],
            "forecast": ["--counts", str(tmp_path / "c.csv"),
                         "--draws", str(tmp_path / "draws.jsonl")],
        }
        inputs["evaluate"] = inputs["forecast"]
        code = main(argv + inputs[argv[0]] + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_manifest_records_every_option(self, tmp_path, tiny_draws):
        io.save_counts(_tiny_panel(), tmp_path / "c.csv")
        io.save_draws(tiny_draws, tmp_path / "draws.jsonl", _tiny_panel())
        sweeps = ["--iterations", "20", "--burn-in", "10"]
        inputs = ["--counts", str(tmp_path / "c.csv"), "--draws", str(tmp_path / "draws.jsonl")]
        argvs = {
            "simulate": ["--scenario", "hard-0.1", "--series", "8"],
            "fit": ["--counts", str(tmp_path / "c.csv"), *sweeps],
            "forecast": inputs,
            "evaluate": inputs,
            "study": ["--scenarios", "hard-0.1", "--replicates", "1", *sweeps],
        }
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(argvs)
        for command, parser in subparsers.choices.items():
            out = tmp_path / command
            assert main([command, *argvs[command], "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            dests = {a.dest for a in parser._actions if a.dest != "help"}
            assert set(manifest["parameters"]) == dests, command
            assert manifest["parameters"]["out"] == str(out)

    @pytest.mark.parametrize("flag, value", [
        ("--gamma1", "0.3"), ("--eta1", "2"),
    ])
    def test_fits_differing_in_one_setting_write_different_manifests(self, tmp_path,
                                                                     flag, value):
        io.save_counts(_tiny_panel(), tmp_path / "c.csv")
        parameters = []
        for extra in ([], [flag, value]):
            out = tmp_path / ("set" if extra else "default")
            assert main(["fit", "--counts", str(tmp_path / "c.csv"), "--out", str(out),
                         "--iterations", "20", "--burn-in", "10", *extra]) == 0
            doc = json.loads((out / "manifest.json").read_text())["parameters"]
            del doc["out"]
            parameters.append(doc)
        assert parameters[0] != parameters[1]

    def test_unknown_scenario_usage_error(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "impossible", "--out", str(tmp_path)])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_flag_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--not-a-flag"]) == 2
        capsys.readouterr()

    def test_missing_input_usage_error(self, tmp_path):
        code = main(["fit", "--counts", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "f")])
        assert code == 2

    def test_bad_quantiles_rejected(self, tmp_path):
        sim_dir = tmp_path / "sim"
        main(["simulate", "--scenario", "hard-0.1", "--series", "8",
              "--out", str(sim_dir)])
        fit_dir = tmp_path / "fit"
        main(["fit", "--counts", str(sim_dir / "counts.csv"), "--out", str(fit_dir),
              "--iterations", "40", "--burn-in", "10"])
        code = main([
            "forecast", "--counts", str(sim_dir / "counts.csv"),
            "--draws", str(fit_dir / "draws.jsonl"),
            "--quantiles", "0.9,0.5", "--out", str(tmp_path / "fc"),
        ])
        assert code == 2

    @pytest.mark.parametrize("levels, item", [
        ("0.5,abc", "'abc'"), ("0.5,,0.9", "''"), ("0.5,0.9,", "''"),
    ], ids=["word", "empty-inside", "empty-last"])
    def test_malformed_quantiles_name_the_item(self, tmp_path, tiny_draws, capsys,
                                               levels, item):
        io.save_counts(_tiny_panel(), tmp_path / "c.csv")
        io.save_draws(tiny_draws, tmp_path / "draws.jsonl", _tiny_panel())
        code = main(["forecast", "--counts", str(tmp_path / "c.csv"),
                     "--draws", str(tmp_path / "draws.jsonl"), "--quantiles", levels,
                     "--out", str(tmp_path / "fc")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"item {item} is not a number" in err
        assert not (tmp_path / "fc" / "forecasts.csv").exists()

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POINAR_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--scenario", "hard-0.1", "--series", "8"]) == 0
        assert (tmp_path / "envout" / "counts.csv").exists()
        monkeypatch.delenv("POINAR_OUT")
        monkeypatch.setattr("sys.stderr", open(os.devnull, "w"))
        assert main(["simulate", "--scenario", "hard-0.1", "--series", "8"]) == 2

    def test_main_pins_the_allocator_thresholds(self, monkeypatch, capsys):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(cli.sys, "platform", "linux")
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
        assert main(["simulate", "--not-a-flag"]) == 2
        assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]
        # a C library without mallopt leaves the commands working
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert main(["simulate", "--not-a-flag"]) == 2
        capsys.readouterr()

    def test_study_smoke(self, tmp_path):
        out = tmp_path / "study"
        assert main([
            "study", "--scenarios", "hard-0.1", "--replicates", "1",
            "--iterations", "60", "--burn-in", "10", "--out", str(out),
        ]) == 0
        lines = (out / "study.csv").read_text().splitlines()
        assert len(lines) == 4  # header + one row per method
        assert (out / "study.json").exists() and (out / "manifest.json").exists()

    def test_study_of_a_repeated_scenario_is_a_usage_error(self, tmp_path, capsys):
        # scenario indices 0 and 1 draw different streams, so the study
        # would write two rows of the one name with different numbers
        out = tmp_path / "study"
        assert main(["study", "--scenarios", "hard-0.1,easy-0.5,hard-0.1", "--replicates", "1",
                     "--iterations", "10", "--burn-in", "2", "--thin", "2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: scenario 'hard-0.1' is named more than once\n")
        assert not out.exists()

    def test_study_of_no_scenario_names_is_a_usage_error(self, tmp_path, capsys):
        # an empty list names the scenario '', not the full grid
        out = tmp_path / "study"
        assert main(["study", "--scenarios", "", "--replicates", "1", "--iterations", "20",
                     "--burn-in", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: unknown scenario ''")
        assert not out.exists()
