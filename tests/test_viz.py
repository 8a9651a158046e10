"""Unit tests for visualization."""

import numpy as np
import pytest

from repro.attacks.poi import PointOfInterestEstimate
from repro.geo.trace import GeolocatedDataset, TraceArray
from repro.viz import ascii_density_map, cluster_summary_table


def _ds(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return GeolocatedDataset(
        [
            TraceArray.from_columns(
                ["u"],
                39.9 + rng.normal(0, 0.01, n),
                116.4 + rng.normal(0, 0.01, n),
                np.arange(n, dtype=float),
            )
        ]
    )


def _poi():
    return PointOfInterestEstimate(39.9, 116.4, 42, 7200.0, np.zeros(24, dtype=int), "home")


class TestAsciiMap:
    def test_dimensions(self):
        out = ascii_density_map(_ds(), width=40, height=10)
        lines = out.splitlines()
        assert lines[0] == "+" + "-" * 40 + "+"
        body = lines[1:-2]
        assert len(body) == 10
        assert all(len(line) == 42 for line in body)

    def test_legend_shows_bounds_and_count(self):
        out = ascii_density_map(_ds(50))
        assert "n=50" in out
        assert "lat [" in out and "lon [" in out

    def test_markers_overlaid(self):
        out = ascii_density_map(_ds(), markers=[(39.9, 116.4, "H")])
        assert "H" in out

    def test_empty_dataset(self):
        assert "empty" in ascii_density_map(GeolocatedDataset())

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ascii_density_map(_ds(), width=1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coordinates_rejected(self, bad, tmp_path, capsys):
        """One NaN used to collapse every point into row 0 under a
        ``lat [nan, nan]`` legend; rows and markers are both checked at
        the facade, and ``repro visualize`` never reads such a row."""
        from repro.cli import main
        from repro.geo.geolife import write_geolife_dataset
        from repro.toolkit import Gepeto

        rows = TraceArray.from_columns(["u"], [10.0, bad, 10.1], [20.0, 21.0, 20.1], [0.0, 1.0, 2.0])
        dirty = GeolocatedDataset([rows])
        with pytest.raises(ValueError, match="coordinates must be finite"):
            Gepeto(dirty).visualize()
        with pytest.raises(ValueError, match="coordinates must be finite"):
            Gepeto(_ds()).visualize(markers=[(39.9, bad, "H")])
        write_geolife_dataset(dirty, tmp_path)
        with pytest.raises(SystemExit, match="visualize: .*line 8: latitude must be finite"):
            main(["visualize", "--in", str(tmp_path)])

    def test_dense_cells_darker_than_sparse(self):
        out = ascii_density_map(_ds(2000, seed=1), width=30, height=10)
        # Both dense-ramp and blank characters should appear.
        body = "".join(out.splitlines()[1:-2])
        assert "@" in body or "%" in body or "#" in body
        assert " " in body


class TestSummaryTable:
    def test_table_contains_poi_fields(self):
        table = cluster_summary_table([_poi()])
        assert "home" in table
        assert "42" in table
        assert "2.00" in table  # dwell hours


class TestMmcTable:
    def test_transition_table_renders(self):
        from repro.attacks.mmc import build_mmc
        from repro.viz import mmc_transition_table

        pois = np.array([[39.9, 116.4], [39.95, 116.5]])
        arr = TraceArray.from_columns(
            ["u"],
            np.array([39.9, 39.95, 39.9, 39.95]),
            np.array([116.4, 116.5, 116.4, 116.5]),
            np.arange(4.0) * 600,
        )
        mmc = build_mmc(arr, pois, labels=["home", "work"])
        table = mmc_transition_table(mmc)
        assert "home" in table and "work" in table
        assert "1.00" in table  # deterministic alternation

    def test_max_states_respected(self):
        from repro.attacks.mmc import MobilityMarkovChain
        from repro.viz import mmc_transition_table

        n = 6
        mmc = MobilityMarkovChain(
            states=np.zeros((n, 2)),
            transitions=np.full((n, n), 1.0 / n),
            visit_counts=np.arange(n, dtype=float),
        )
        table = mmc_transition_table(mmc, max_states=3)
        assert len(table.splitlines()) == 5  # header + rule + 3 rows
