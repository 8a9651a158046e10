"""Semantic trajectories: labelling what places *mean* (Section II).

"Some mobility models such as semantic trajectories do not only
represent the evolution of the movements of an individual over time, but
they also attach a semantic label to the visited places.  From this
semantic information the adversary can derive a clearer understanding
about the interests of an individual."

Given a user's stays (:func:`repro.geo.trajectory.segment_trail`)
clustered into places, this module labels each place from its visit-time
signature — when, how long, how regularly the user is there:

* ``home`` — dominant presence in night hours;
* ``work`` — weekday working-hours presence with long dwells;
* ``lunch`` — short midday weekday visits;
* ``leisure`` — evening / weekend visits;
* ``errand`` — short, irregular daytime visits (the fallback).

The output is the *semantic trail*: the time-ordered sequence of
labelled visits, a far more invasive artifact than raw coordinates.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np

from repro.geo.distance import haversine_m
from repro.geo.trajectory import Stay, segment_trail
from repro.geo.trace import Trail, TraceArray

__all__ = ["SemanticPlace", "SemanticVisit", "label_places"]


@dataclass
class SemanticPlace:
    """A recurrent place with an inferred semantic label."""

    latitude: float
    longitude: float
    label: str
    n_visits: int
    total_dwell_s: float
    night_fraction: float
    workhour_fraction: float
    weekend_fraction: float
    #: Fraction of observed days whose first or last visit is here — the
    #: strongest home signal when loggers are off overnight.
    day_endpoint_fraction: float = 0.0


@dataclass(frozen=True)
class SemanticVisit:
    """One labelled visit of the semantic trail."""

    place_index: int
    label: str
    start_ts: float
    duration_s: float


def _hour_and_weekday(ts: float) -> tuple[int, int]:
    when = _dt.datetime.fromtimestamp(ts, tz=_dt.timezone.utc)
    return when.hour, when.weekday()


def _group_stays(stays: list[Stay], merge_radius_m: float) -> list[list[int]]:
    """Greedy spatial grouping of stays into places."""
    groups: list[list[int]] = []
    centers: list[tuple[float, float]] = []
    for i, stay in enumerate(stays):
        placed = False
        for g, (clat, clon) in enumerate(centers):
            if float(haversine_m(stay.latitude, stay.longitude, clat, clon)) <= merge_radius_m:
                groups[g].append(i)
                members = [stays[j] for j in groups[g]]
                centers[g] = (
                    float(np.mean([s.latitude for s in members])),
                    float(np.mean([s.longitude for s in members])),
                )
                placed = True
                break
        if not placed:
            groups.append([i])
            centers.append((stay.latitude, stay.longitude))
    return groups


def _classify(place: SemanticPlace) -> str:
    """Rule-based labelling from the visit-time signature.

    Home is decided *before* this runs (night mass or day-endpoint
    dominance, see :func:`label_places`); these rules sort the rest.
    """
    mean_dwell = place.total_dwell_s / max(place.n_visits, 1)
    if place.workhour_fraction > 0.5 and place.weekend_fraction < 0.4 and mean_dwell > 3600:
        return "work"
    if place.workhour_fraction > 0.5 and mean_dwell <= 3600:
        return "lunch"
    if place.weekend_fraction > 0.4 or place.night_fraction > 0.05:
        return "leisure"
    return "errand"


def label_places(
    trail: Trail | TraceArray,
    roam_radius_m: float = 100.0,
    min_stay_s: float = 600.0,
    merge_radius_m: float = 150.0,
) -> tuple[list[SemanticPlace], list[SemanticVisit]]:
    """Segment, group and label a trail's places.

    Returns the labelled places and the semantic trail (time-ordered
    visits referencing them).  Night hours are 22:00–06:00, working
    hours 09:00–18:00 UTC; adjust timestamps beforehand for local time.
    """
    stays, _trips = segment_trail(trail, roam_radius_m, min_stay_s)
    if not stays:
        return [], []
    groups = _group_stays(stays, merge_radius_m)
    stay_to_place: dict[int, int] = {
        i: g for g, members in enumerate(groups) for i in members
    }
    # Day endpoints: per observed day, which place opens and closes it.
    by_day: dict[int, list[int]] = {}
    for i, stay in enumerate(stays):
        by_day.setdefault(int(stay.start_ts // 86400.0), []).append(i)
    endpoint_counts = np.zeros(len(groups))
    for day_stays in by_day.values():
        ordered = sorted(day_stays, key=lambda i: stays[i].start_ts)
        endpoint_counts[stay_to_place[ordered[0]]] += 1
        endpoint_counts[stay_to_place[ordered[-1]]] += 1
    n_days = max(len(by_day), 1)

    places: list[SemanticPlace] = []
    for g, members in enumerate(groups):
        night = work = weekend = 0
        dwell = 0.0
        for i in members:
            stay = stays[i]
            hour, weekday = _hour_and_weekday(stay.start_ts)
            night += int(hour >= 22 or hour < 6)
            work += int(9 <= hour < 18)
            weekend += int(weekday >= 5)
            dwell += stay.duration_s
        lat = float(np.mean([stays[i].latitude for i in members]))
        lon = float(np.mean([stays[i].longitude for i in members]))
        places.append(
            SemanticPlace(
                latitude=lat,
                longitude=lon,
                label="",
                n_visits=len(members),
                total_dwell_s=dwell,
                night_fraction=night / len(members),
                workhour_fraction=work / len(members),
                weekend_fraction=weekend / len(members),
                day_endpoint_fraction=float(endpoint_counts[g]) / (2 * n_days),
            )
        )
    # Home first: the place that anchors the user's days — most night
    # mass, or (when loggers sleep overnight) most day endpoints.
    home_scores = [
        p.night_fraction * 2.0 + p.day_endpoint_fraction for p in places
    ]
    best = int(np.argmax(home_scores))
    if home_scores[best] > 0.3:
        places[best].label = "home"
    for p in places:
        if not p.label:
            p.label = _classify(p)
    # At most one work: keep the strongest, demote the rest.
    tagged = [p for p in places if p.label == "work"]
    if len(tagged) > 1:
        keep = max(tagged, key=lambda p: p.workhour_fraction * p.total_dwell_s)
        for p in tagged:
            if p is not keep:
                p.label = "errand"
    visits = [
        SemanticVisit(
            place_index=stay_to_place[i],
            label=places[stay_to_place[i]].label,
            start_ts=stay.start_ts,
            duration_s=stay.duration_s,
        )
        for i, stay in enumerate(stays)
    ]
    visits.sort(key=lambda v: v.start_ts)
    return places, visits

