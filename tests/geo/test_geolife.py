"""Unit tests for the GeoLife PLT format (Figure 1)."""

import io

import numpy as np
import pytest

from repro.geo.geolife import (
    GEOLIFE_EPOCH,
    PLT_HEADER,
    format_plt_line,
    ole_days_to_unix,
    parse_plt_line,
    read_geolife_dataset,
    read_plt,
    unix_to_ole_days,
    write_geolife_dataset,
    write_plt,
)
from repro.geo.trace import GeolocatedDataset, TraceArray


class TestEpochConversion:
    def test_epoch_is_1899_12_30(self):
        assert GEOLIFE_EPOCH.year == 1899
        assert GEOLIFE_EPOCH.month == 12
        assert GEOLIFE_EPOCH.day == 30

    def test_roundtrip(self):
        ts = 1_200_000_000.123
        assert ole_days_to_unix(unix_to_ole_days(ts)) == pytest.approx(ts, abs=1e-4)

    def test_unix_epoch_value(self):
        # 1970-01-01 is 25569 days after 1899-12-30 (the Excel constant).
        assert float(unix_to_ole_days(0.0)) == pytest.approx(25569.0)


class TestLineFormat:
    def test_parse_known_line(self):
        line = "39.906631,116.385564,0,492,39745.1201851852,2008-10-24,02:53:04"
        lat, lon, alt, ts = parse_plt_line(line)
        assert lat == pytest.approx(39.906631)
        assert lon == pytest.approx(116.385564)
        assert alt == 492.0
        # 39745 days after 1899-12-30 lands on 2008-10-24.
        import datetime as dt

        when = dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc)
        assert (when.year, when.month, when.day) == (2008, 10, 24)
        assert when.hour == 2

    def test_format_then_parse_roundtrip(self):
        line = format_plt_line(39.9042, 116.4074, -777.0, 1_200_000_042.0)
        lat, lon, alt, ts = parse_plt_line(line)
        assert lat == pytest.approx(39.9042, abs=1e-6)
        assert lon == pytest.approx(116.4074, abs=1e-6)
        assert alt == -777.0
        assert ts == pytest.approx(1_200_000_042.0, abs=0.01)

    def test_format_has_seven_fields_and_zero_third(self):
        line = format_plt_line(1.0, 2.0, 100.0, 0.0)
        parts = line.split(",")
        assert len(parts) == 7
        assert parts[2] == "0"

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_plt_line("1.0,2.0,0,100")


def _trail(n=5, user="007"):
    return TraceArray.from_columns(
        [user],
        39.9 + np.arange(n) * 1e-4,
        116.4 + np.arange(n) * 1e-4,
        1_200_000_000.0 + np.arange(n) * 2.0,
        np.full(n, 120.0),
    )


class TestFileIO:
    def test_write_read_stream_roundtrip(self):
        trail = _trail(20)
        buf = io.StringIO()
        write_plt(trail, buf)
        buf.seek(0)
        back = read_plt(buf, "007")
        assert len(back) == 20
        assert back.users == ("007",)
        assert np.allclose(back.latitude, trail.latitude, atol=1e-6)
        assert np.allclose(back.timestamp, trail.timestamp, atol=0.01)

    def test_header_is_six_lines(self):
        buf = io.StringIO()
        write_plt(_trail(1), buf)
        lines = buf.getvalue().splitlines()
        assert lines[:6] == PLT_HEADER.splitlines()
        assert len(lines) == 7

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_plt(tmp_path / "nope.plt", "u")


def _plt(*rows):
    """A PLT stream of ``(lat, lon, timestamp)`` rows, written verbatim."""
    lines = [format_plt_line(lat, lon, 0.0, ts) for lat, lon, ts in rows]
    stream = io.StringIO(PLT_HEADER + "\n".join(lines) + "\n")
    stream.name = "u/Trajectory/t.plt"
    return stream


class TestReadPltChecks:
    """``read_plt`` refuses what no trace can be, naming the file and line."""

    def test_latitude_bounds_validated(self):
        with pytest.raises(ValueError, match=r"t\.plt, line 8: latitude must be within"):
            read_plt(_plt((39.9, 116.4, 1e9), (91.5, 116.4, 1e9 + 1)), "u")
        with pytest.raises(ValueError, match="line 7: latitude"):
            read_plt(_plt((-90.5, 116.4, 1e9)), "u")

    def test_longitude_bounds_validated(self):
        with pytest.raises(ValueError, match="line 7: longitude must be within"):
            read_plt(_plt((39.9, 180.5, 1e9)), "u")

    def test_boundary_coordinates_allowed(self):
        trail = read_plt(_plt((90.0, -180.0, 1e9), (-90.0, 180.0, 1e9 + 1)), "u")
        assert trail.latitude.tolist() == [90.0, -90.0]

    @pytest.mark.parametrize("field", [0, 1, 4])
    def test_non_finite_fields_refused(self, field):
        parts = format_plt_line(39.9, 116.4, 0.0, 1e9).split(",")
        parts[field] = "nan"
        stream = io.StringIO(PLT_HEADER + ",".join(parts) + "\n")
        name = {0: "latitude", 1: "longitude", 4: "timestamp"}[field]
        with pytest.raises(ValueError, match=f"PLT stream, line 7: {name} must be finite"):
            read_plt(stream, "u")

    def test_unsorted_file_is_sorted_by_time(self):
        trail = read_plt(_plt((1.0, 0.0, 1e9 + 2), (2.0, 0.0, 1e9), (3.0, 0.0, 1e9 + 2)), "u")
        assert trail.latitude.tolist() == [2.0, 1.0, 3.0]


class TestDatasetLayout:
    def test_write_then_read_directory_tree(self, tmp_path):
        ds = GeolocatedDataset([_trail(10, "000"), _trail(8, "001")])
        written = write_geolife_dataset(ds, tmp_path)
        assert len(written) == 2
        for path in written:
            assert path.suffix == ".plt"
            assert path.parent.name == "Trajectory"
        back = read_geolife_dataset(tmp_path)
        assert back.user_ids == ["000", "001"]
        assert len(back) == 18

    def test_read_subset_of_users(self, tmp_path):
        ds = GeolocatedDataset([_trail(3, "000"), _trail(3, "001")])
        write_geolife_dataset(ds, tmp_path)
        back = read_geolife_dataset(tmp_path, user_ids=["001"])
        assert back.user_ids == ["001"]

    def test_user_directory_without_trajectories_is_skipped(self, tmp_path):
        write_geolife_dataset(GeolocatedDataset([_trail(3, "000")]), tmp_path)
        (tmp_path / "002").mkdir()
        assert read_geolife_dataset(tmp_path).user_ids == ["000"]

    def test_read_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_geolife_dataset(tmp_path / "absent")
