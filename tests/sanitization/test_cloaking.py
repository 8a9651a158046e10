"""Unit tests for spatial cloaking."""

import numpy as np
import pytest

from repro.geo.trace import TraceArray
from repro.sanitization.cloaking import SpatialCloaking


def _multi_user(n_users=5, n=60, spread=0.001, seed=0):
    """Users clustered around a shared block, same hour."""
    rng = np.random.default_rng(seed)
    trails = []
    for u in range(n_users):
        trails.append(
            TraceArray.from_columns(
                [f"u{u}"],
                39.9 + rng.normal(0, spread, n),
                116.4 + rng.normal(0, spread, n),
                np.sort(rng.uniform(0, 3000, n)),
            )
        )
    return TraceArray.concatenate(trails).by_user()


class TestCloaking:
    def test_dense_area_cloaked_not_suppressed(self):
        ds = _multi_user()
        out = SpatialCloaking(k=3, base_cell_m=500.0, window_s=3600.0).sanitize_dataset(ds)
        # All users share one cell-window: everything is released.
        assert len(out) == len(ds)

    def test_lone_user_suppressed(self):
        ds = _multi_user(n_users=1)
        cloak = SpatialCloaking(k=2, base_cell_m=250.0, window_s=3600.0, max_levels=3)
        out = cloak.sanitize_dataset(ds)
        assert len(out) == 0

    def test_k1_releases_everything_at_base_cell(self):
        ds = _multi_user(n_users=1)
        out = SpatialCloaking(k=1, base_cell_m=250.0).sanitize_dataset(ds)
        assert len(out) == len(ds)

    def test_reported_positions_shared_within_cell(self):
        ds = _multi_user()
        out = SpatialCloaking(k=3, base_cell_m=2000.0).sanitize_dataset(ds)
        coords = set(zip(out.latitude.tolist(), out.longitude.tolist()))
        # Strong coarsening: few distinct reported positions.
        assert len(coords) < 10

    def test_isolated_user_forces_coarser_cell(self):
        """A user far from the crowd either joins at a coarse level or is
        suppressed — never released at fine granularity alone."""
        ds = _multi_user(n_users=3)
        loner = TraceArray.from_columns(
            ["loner"],
            np.full(10, 39.93),  # ~3 km away
            np.full(10, 116.44),
            np.linspace(0, 3000, 10),
        )
        ds = TraceArray.concatenate([ds, loner]).by_user()
        cloak = SpatialCloaking(k=2, base_cell_m=250.0, window_s=3600.0, max_levels=6)
        out = cloak.sanitize_dataset(ds)
        if "loner" in out.users:
            from repro.geo.distance import haversine_m

            released = out.trail("loner")
            d = np.asarray(
                haversine_m(39.93, 116.44, released.latitude, released.longitude)
            )
            # The loner's reported position was pulled toward the crowd's
            # coarse cell centroid, far from its true fine position.
            assert d.mean() > 250.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SpatialCloaking(k=0)
        with pytest.raises(ValueError):
            SpatialCloaking(k=2, base_cell_m=0)
        with pytest.raises(ValueError):
            SpatialCloaking(k=2, max_levels=0)

    def test_empty_dataset(self):
        out = SpatialCloaking(k=2).sanitize_dataset(TraceArray.empty())
        assert len(out) == 0

    def test_a_cloaked_release_can_be_masked_per_trail(self):
        """Every cloaked trail holds its own user's rows, so a per-trail
        sanitizer applied after cloaking keeps each user apart."""
        from repro.sanitization.masks import GaussianMask

        cloaked = SpatialCloaking(k=2).sanitize_dataset(_multi_user(n_users=3))
        out = GaussianMask(sigma_m=50.0, seed=1).sanitize_dataset(cloaked)
        assert out.users == cloaked.users == ("u0", "u1", "u2")
        assert [len(t) for t in out.trails()] == [len(t) for t in cloaked.trails()]
