"""Synthetic GeoLife-like dataset generation.

The paper evaluates on the GeoLife corpus (178 users, 18 GB of GPS logs
sampled every 1–5 seconds).  That corpus is not redistributable here, so
this module provides the documented substitution (see DESIGN.md): a
generative model of daily mobility whose output has the properties the
paper's experiments actually depend on:

* **density** — traces logged every 1–5 s (uniformly), so that temporal
  down-sampling reduces the trace count drastically (Table I);
* **dwell/move structure** — users alternate between *dwelling* at points
  of interest (home, work, leisure) and *moving* between them at realistic
  mode speeds, so the DJ-Cluster speed filter removes a large moving
  fraction (Table IV) and density clustering recovers the POIs;
* **per-user trails** serializable in the exact GeoLife PLT layout
  (:mod:`repro.geo.geolife`).

The generator is fully vectorized per segment (timestamps and positions are
built with NumPy, never per-point Python loops) and deterministic given a
seed, so benchmarks are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geo.trace import GeolocatedDataset, TraceArray

__all__ = [
    "SyntheticConfig",
    "SyntheticUser",
    "PointOfInterest",
    "generate_user",
    "generate_dataset",
    "KM_PER_DEG_LAT",
]

#: Kilometres per degree of latitude (spherical earth approximation).
KM_PER_DEG_LAT = 111.32

#: Travel speeds by mode, m/s.
MODE_SPEEDS = {"walk": 1.4, "bike": 4.2, "bus": 7.0, "drive": 11.0}


@dataclass(frozen=True)
class PointOfInterest:
    """A ground-truth POI of a synthetic user (used to score attacks)."""

    label: str
    latitude: float
    longitude: float


@dataclass
class SyntheticConfig:
    """Parameters of the synthetic mobility model.

    Defaults model the GeoLife setting: Beijing-centred, 1–5 s log
    interval, a handful of POIs per user, GPS jitter of a few metres.
    """

    n_users: int = 10
    days: int = 3
    start_timestamp: float = 1175385600.0  # 2007-04-01T00:00Z, GeoLife start
    center_lat: float = 39.9042
    center_lon: float = 116.4074
    city_radius_km: float = 15.0
    min_log_interval_s: float = 1.0
    max_log_interval_s: float = 5.0
    n_extra_pois: tuple[int, int] = (2, 4)
    trips_per_day: tuple[int, int] = (2, 4)
    #: Mean dwell duration at a POI.  75 minutes reproduces GeoLife's
    #: stationary share: after 1-10 minute sampling, the DJ-Cluster speed
    #: filter keeps ~55-63% of traces, matching Table IV's 56-60%.
    dwell_mean_s: float = 4500.0
    gps_jitter_m: float = 3.0
    seed: int = 2013

    def __post_init__(self) -> None:
        if self.n_users <= 0 or self.days <= 0:
            raise ValueError("n_users and days must be positive")
        if not 0 < self.min_log_interval_s <= self.max_log_interval_s:
            raise ValueError("log interval bounds must satisfy 0 < min <= max")


@dataclass
class SyntheticUser:
    """A generated user: ground-truth POIs plus the logged trail."""

    user_id: str
    pois: list[PointOfInterest]
    trail: TraceArray

    @property
    def home(self) -> PointOfInterest:
        return self.pois[0]


def _deg_per_km_lon(lat: float) -> float:
    return 1.0 / (KM_PER_DEG_LAT * math.cos(math.radians(lat)))


def _sample_pois(rng: np.random.Generator, cfg: SyntheticConfig, n_extra: int) -> list[PointOfInterest]:
    """Sample home, work and extra POIs uniformly in the city disc."""
    labels = ["home", "work"] + [f"poi_{i}" for i in range(n_extra)]
    pois = []
    for label in labels:
        # Uniform in disc: radius ~ sqrt(U) * R.
        r_km = math.sqrt(rng.random()) * cfg.city_radius_km
        theta = rng.random() * 2.0 * math.pi
        lat = cfg.center_lat + (r_km * math.sin(theta)) / KM_PER_DEG_LAT
        lon = cfg.center_lon + (r_km * math.cos(theta)) * _deg_per_km_lon(cfg.center_lat)
        pois.append(PointOfInterest(label, lat, lon))
    return pois


def _jitter(rng: np.random.Generator, n: int, cfg: SyntheticConfig, lat: float) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian GPS jitter in degrees for n points around latitude ``lat``."""
    sigma_lat = (cfg.gps_jitter_m / 1000.0) / KM_PER_DEG_LAT
    sigma_lon = (cfg.gps_jitter_m / 1000.0) * _deg_per_km_lon(lat)
    return (
        rng.normal(0.0, sigma_lat, n),
        rng.normal(0.0, sigma_lon, n),
    )


def _log_timestamps(rng: np.random.Generator, cfg: SyntheticConfig, t0: float, duration: float) -> np.ndarray:
    """Timestamps of GPS fixes covering [t0, t0+duration] at 1–5 s intervals."""
    if duration <= 0:
        return np.empty(0)
    mean_dt = 0.5 * (cfg.min_log_interval_s + cfg.max_log_interval_s)
    n_est = int(duration / mean_dt) + 8
    dts = rng.uniform(cfg.min_log_interval_s, cfg.max_log_interval_s, n_est)
    ts = t0 + np.cumsum(dts)
    return ts[ts <= t0 + duration]


def _dwell_segment(
    rng: np.random.Generator, cfg: SyntheticConfig, poi: PointOfInterest, t0: float, duration: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GPS fixes while dwelling at a POI: the POI coordinate plus jitter."""
    ts = _log_timestamps(rng, cfg, t0, duration)
    n = len(ts)
    jlat, jlon = _jitter(rng, n, cfg, poi.latitude)
    return poi.latitude + jlat, poi.longitude + jlon, ts


def _trip_segment(
    rng: np.random.Generator,
    cfg: SyntheticConfig,
    src: PointOfInterest,
    dst: PointOfInterest,
    t0: float,
    speed_ms: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """GPS fixes while travelling src → dst along a wiggly path.

    Returns (lat, lon, ts, trip_duration_s).  The path is a straight line
    with a sinusoidal perpendicular displacement (roads are not geodesics)
    plus GPS jitter.
    """
    dlat_km = (dst.latitude - src.latitude) * KM_PER_DEG_LAT
    dlon_km = (dst.longitude - src.longitude) / _deg_per_km_lon(src.latitude)
    dist_km = math.hypot(dlat_km, dlon_km)
    duration = max((dist_km * 1000.0) / speed_ms, 30.0)
    ts = _log_timestamps(rng, cfg, t0, duration)
    n = len(ts)
    if n == 0:
        return np.empty(0), np.empty(0), np.empty(0), duration
    frac = (ts - t0) / duration
    lat = src.latitude + frac * (dst.latitude - src.latitude)
    lon = src.longitude + frac * (dst.longitude - src.longitude)
    # Perpendicular wiggle, amplitude ~2% of trip length, 1–3 full waves.
    if dist_km > 0:
        amp_km = 0.02 * dist_km
        waves = rng.integers(1, 4)
        wiggle = amp_km * np.sin(np.pi * waves * frac)
        # Unit normal to the direction of travel, in km space.
        nx, ny = -dlon_km / dist_km, dlat_km / dist_km
        lat = lat + (wiggle * ny) / KM_PER_DEG_LAT
        lon = lon + (wiggle * nx) * _deg_per_km_lon(src.latitude)
    jlat, jlon = _jitter(rng, n, cfg, src.latitude)
    return lat + jlat, lon + jlon, ts, duration


def generate_user(cfg: SyntheticConfig, user_index: int) -> SyntheticUser:
    """Generate one user's ground truth and logged trail.

    The daily script is: wake at home, run 2–4 trips between POIs with a
    dwell at each endpoint, return home.  The GPS logger runs during both
    dwells and trips, as in GeoLife where loggers capture whole outings.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, user_index]))
    user_id = f"{user_index:03d}"
    n_extra = int(rng.integers(cfg.n_extra_pois[0], cfg.n_extra_pois[1] + 1))
    pois = _sample_pois(rng, cfg, n_extra)

    lat_parts: list[np.ndarray] = []
    lon_parts: list[np.ndarray] = []
    ts_parts: list[np.ndarray] = []

    for day in range(cfg.days):
        day_start = cfg.start_timestamp + day * 86400.0
        # Logging starts at a morning hour that varies by day and user;
        # early starts (5-6 am) leave night-hour traces at home, which the
        # home-labelling heuristic of the POI attack keys on.
        t = day_start + float(rng.uniform(5.0, 9.0)) * 3600.0
        current = pois[0]  # home
        n_trips = int(rng.integers(cfg.trips_per_day[0], cfg.trips_per_day[1] + 1))
        # Visit a random sequence of non-home POIs, then return home.
        targets = [pois[1 + int(rng.integers(0, len(pois) - 1))] for _ in range(n_trips - 1)]
        targets.append(pois[0])
        for dst in targets:
            if dst.label == current.label:
                continue
            dwell = float(rng.exponential(cfg.dwell_mean_s)) + 120.0
            lat, lon, ts = _dwell_segment(rng, cfg, current, t, dwell)
            lat_parts.append(lat)
            lon_parts.append(lon)
            ts_parts.append(ts)
            t += dwell
            mode = ["walk", "bike", "bus", "drive"][int(rng.integers(0, 4))]
            lat, lon, ts, dur = _trip_segment(rng, cfg, current, dst, t, MODE_SPEEDS[mode])
            lat_parts.append(lat)
            lon_parts.append(lon)
            ts_parts.append(ts)
            t += dur
            current = dst
        # Final dwell at the day's last stop before the logger is switched off.
        dwell = float(rng.exponential(cfg.dwell_mean_s)) + 300.0
        lat, lon, ts = _dwell_segment(rng, cfg, current, t, dwell)
        lat_parts.append(lat)
        lon_parts.append(lon)
        ts_parts.append(ts)

    lat_all = np.concatenate(lat_parts) if lat_parts else np.empty(0)
    lon_all = np.concatenate(lon_parts) if lon_parts else np.empty(0)
    ts_all = np.concatenate(ts_parts) if ts_parts else np.empty(0)
    trail = TraceArray.from_columns([user_id], lat_all, lon_all, ts_all)
    if np.any(np.diff(ts_all) < 0):
        trail = trail.sort_by_time()
    return SyntheticUser(user_id, pois, trail)


def generate_dataset(cfg: SyntheticConfig) -> tuple[GeolocatedDataset, list[SyntheticUser]]:
    """Generate the full synthetic corpus.

    Returns the :class:`GeolocatedDataset` plus the per-user ground truth
    (POIs), which the attack-evaluation metrics compare against.
    """
    users = [generate_user(cfg, i) for i in range(cfg.n_users)]
    ds = GeolocatedDataset(u.trail for u in users)
    return ds, users
