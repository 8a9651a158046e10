"""Unit tests for semantic-trajectory labelling."""

import numpy as np
import pytest

from repro.attacks.semantics import label_places
from repro.geo.trace import TraceArray


DAY = 86400.0
# A Monday 00:00 UTC anchor (1970-01-05 was a Monday).
MONDAY = 4 * DAY


def _visits(spec, user="u"):
    """Build traces from (lat, lon, start_ts, duration_s) dwell visits."""
    lat, lon, ts = [], [], []
    for vlat, vlon, start, duration in spec:
        steps = max(int(duration / 60.0), 12)
        for k in range(steps):
            lat.append(vlat)
            lon.append(vlon)
            ts.append(start + k * (duration / steps))
    order = np.argsort(ts)
    return TraceArray.from_columns(
        [user], np.array(lat)[order], np.array(lon)[order], np.array(ts)[order]
    )


HOME = (39.90, 116.40)
WORK = (39.95, 116.50)
CAFE = (39.92, 116.45)
BAR = (39.88, 116.35)


def _week_schedule():
    """Mon-Fri: home nights, work days, weekday lunches; Sat: bar."""
    spec = []
    for day in range(5):  # Mon..Fri
        base = MONDAY + day * DAY
        spec.append((*HOME, base + 0 * 3600, 6 * 3600))      # 00:00-06:00 home
        spec.append((*WORK, base + 9 * 3600, 3 * 3600))      # 09:00-12:00 work
        spec.append((*CAFE, base + 12 * 3600, 0.75 * 3600))  # 12:00 lunch
        spec.append((*WORK, base + 13 * 3600, 4 * 3600))     # 13:00-17:00 work
        spec.append((*HOME, base + 22 * 3600, 2 * 3600))     # 22:00 home
    saturday = MONDAY + 5 * DAY
    spec.append((*BAR, saturday + 20 * 3600, 3 * 3600))      # Sat night out
    return _visits(spec)


class TestLabelling:
    @pytest.fixture(scope="class")
    def labelled(self):
        return label_places(_week_schedule(), min_stay_s=600)

    def test_home_and_work_found(self, labelled):
        places, _ = labelled
        labels = {p.label for p in places}
        assert "home" in labels
        assert "work" in labels

    def test_home_is_at_home(self, labelled):
        from repro.geo.distance import haversine_m

        places, _ = labelled
        home = next(p for p in places if p.label == "home")
        assert float(haversine_m(home.latitude, home.longitude, *HOME)) < 100

    def test_work_is_at_work(self, labelled):
        from repro.geo.distance import haversine_m

        places, _ = labelled
        work = next(p for p in places if p.label == "work")
        assert float(haversine_m(work.latitude, work.longitude, *WORK)) < 100

    def test_lunch_spot_labelled(self, labelled):
        from repro.geo.distance import haversine_m

        places, _ = labelled
        cafe = min(
            places,
            key=lambda p: float(haversine_m(p.latitude, p.longitude, *CAFE)),
        )
        assert cafe.label == "lunch"

    def test_weekend_bar_is_leisure(self, labelled):
        from repro.geo.distance import haversine_m

        places, _ = labelled
        bar = min(
            places,
            key=lambda p: float(haversine_m(p.latitude, p.longitude, *BAR)),
        )
        assert bar.label == "leisure"

    def test_at_most_one_home_one_work(self, labelled):
        places, _ = labelled
        labels = [p.label for p in places]
        assert labels.count("home") == 1
        assert labels.count("work") <= 1

    def test_a_second_workplace_is_demoted_to_errand(self):
        """Two places with a working-hours signature: the one with more
        working-hour dwell keeps "work"."""
        spec = []
        for day in range(5):
            base = MONDAY + day * DAY
            spec.append((*HOME, base + 0 * 3600, 6 * 3600))
            spec.append((*WORK, base + 9 * 3600, 5 * 3600))
            spec.append((*CAFE, base + 15 * 3600, 2 * 3600))
        places, _ = label_places(_visits(spec), min_stay_s=600)
        by_site = {(round(p.latitude, 2), round(p.longitude, 2)): p.label for p in places}
        assert by_site[WORK] == "work" and by_site[CAFE] == "errand"

    def test_visits_reference_places_in_time_order(self, labelled):
        places, visits = labelled
        assert visits
        starts = [v.start_ts for v in visits]
        assert starts == sorted(starts)
        for v in visits:
            assert 0 <= v.place_index < len(places)
            assert v.label == places[v.place_index].label

    def test_visit_counts_match(self, labelled):
        places, visits = labelled
        assert sum(p.n_visits for p in places) == len(visits)


class TestDayEndpointHomeHeuristic:
    def test_home_found_without_overnight_logging(self):
        """Loggers off overnight: home has no night traces but opens and
        closes every day — the endpoint heuristic must still find it."""
        spec = []
        for day in range(4):
            base = MONDAY + day * DAY
            spec.append((*HOME, base + 7 * 3600, 1 * 3600))   # morning at home
            spec.append((*WORK, base + 9 * 3600, 7 * 3600))   # long work day
            spec.append((*HOME, base + 18 * 3600, 2 * 3600))  # evening at home
        places, _ = label_places(_visits(spec), min_stay_s=600)
        home = next(p for p in places if p.label == "home")
        from repro.geo.distance import haversine_m

        assert float(haversine_m(home.latitude, home.longitude, *HOME)) < 100
        assert home.night_fraction == 0.0  # the signal came from endpoints
        assert home.day_endpoint_fraction > 0.8

    def test_home_recovered_on_synthetic_user(self, small_corpus):
        from repro.geo.distance import haversine_m

        dataset, users = small_corpus
        user = users[0]
        places, _ = label_places(dataset.trail(user.user_id), min_stay_s=600)
        homes = [p for p in places if p.label == "home"]
        assert len(homes) == 1
        assert (
            float(
                haversine_m(
                    homes[0].latitude,
                    homes[0].longitude,
                    user.home.latitude,
                    user.home.longitude,
                )
            )
            < 150
        )


class TestSemanticTrail:
    def test_label_sequence(self):
        _, visits = label_places(_week_schedule(), min_stay_s=600)
        seq = [v.label for v in visits]
        assert seq.count("home") >= 5
        assert seq.count("work") >= 5
        assert "lunch" in seq

    def test_empty_trail(self):
        assert label_places(TraceArray.empty()) == ([], [])
