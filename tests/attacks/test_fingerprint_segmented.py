"""The segmented fingerprint pass keeps the per-user pipeline's bits.

Three references hold ``fingerprint_users`` (and the reducer built on it)
in place:

* the golden recorded from the commit that still fingerprinted one user
  at a time (``tests/goldens/attacks.py`` says what each user traps);
* the per-user pipeline itself, kept here as an oracle composed from the
  public single-trail API (``poi_attack`` + ``build_mmc``);
* ``fingerprint_user``: a user's fingerprint may not depend on who
  shares the block, in which order, or where the block is cut.

Equality is by pickle bytes wherever both sides are live objects — the
reduce output is pickled, so a shared label object or a strided array is
a difference even when every float agrees.  The count tests pin the cost
model: Haversine calls per block, not per user.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.djcluster import DJClusterParams
from repro.attacks import linkage_mr
from repro.attacks.deanonymization import fingerprint_user, fingerprint_users
from repro.attacks.linkage_mr import (
    PARAMS_CACHE_KEY,
    SYNTH_ATTACK_PARAMS,
    FingerprintReducer,
    synthetic_linkage_corpus,
)
from repro.attacks.mmc import build_mmc
from repro.attacks.poi import poi_attack
from repro.geo import distance
from repro.geo.trace import TraceArray
from repro.index import selfjoin
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.config import Configuration
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import ReduceContext
from tests.conftest import count_calls
from tests.goldens import differences
from tests.goldens.attacks import (
    ATTACH_RADIUS_M,
    MAX_POIS,
    PARAMS,
    corpus,
    fingerprints_text,
)
from tests.goldens.registry import GOLDENS, check, committed


def _dumps(fp) -> bytes:
    return pickle.dumps(fp, protocol=pickle.HIGHEST_PROTOCOL)


def per_user_oracle(trail, params, max_pois, attach_radius_m):
    """``fingerprint_user`` as it was before the segmented pass."""
    pois = poi_attack(trail, params)
    if not pois:
        return None
    top = pois[:max_pois]
    coords = np.array([p.coordinate for p in top])
    return build_mmc(
        trail, coords, attach_radius_m=attach_radius_m, labels=[p.label for p in top]
    )


def _trail(name, columns) -> TraceArray:
    """``name``'s rows as a trail: in time order."""
    return TraceArray.from_columns(name, *columns).sort_by_time()


def _block(users: dict, rng=None) -> TraceArray:
    """The users' rows as one array: back to back, or (with ``rng``)
    interleaved at random with each user's stored row order kept."""
    names = np.repeat(np.array(list(users), dtype=object), [len(c[0]) for c in users.values()])
    lat, lon, ts = (np.concatenate(column) for column in zip(*users.values()))
    if rng is not None:
        # Shuffle which user owns each output slot; a user's k-th slot
        # takes that user's k-th row.
        owner = np.unique(names, return_inverse=True)[1]
        take = np.empty(len(names), dtype=np.int64)
        take[np.argsort(rng.permutation(owner), kind="stable")] = np.argsort(owner, kind="stable")
        names, lat, lon, ts = names[take], lat[take], lon[take], ts[take]
    return TraceArray.from_columns(names, lat, lon, ts)


def _by_name(array: TraceArray, prints: dict) -> dict:
    assert set(prints) == set(np.unique(array.user_index).tolist())
    return {array.users[index]: fp for index, fp in prints.items()}


def _assert_matches_golden(got: dict) -> None:
    names = list(corpus())
    assert set(got) == set(names)
    text = fingerprints_text({name: got[name] for name in names})
    assert differences(GOLDENS["fingerprints"], committed("fingerprints"), text) == []


# -- golden ------------------------------------------------------------------------


def test_golden_traps_are_armed():
    """The record is only worth pinning while each trap still bites."""
    users = json.loads(committed("fingerprints"))["users"]
    assert [n for n, fp in users.items() if fp is None] == ["single", "moving", "twin-a", "twin-b"]
    assert "home" not in users["many"]["labels"] and len(users["many"]["labels"]) == MAX_POIS
    assert users["lone"]["labels"] == ["home"]
    assert users["near-a"]["states"] != users["near-b"]["states"]
    assert users["uniform"]["visit_counts"] == [0.0.hex()] * 2
    assert users["uniform"]["transitions"] == [0.5.hex()] * 4


def test_one_user_at_a_time_matches_golden():
    assert check("fingerprints") == []


@pytest.mark.parametrize("interleave", [False, True])
def test_one_block_matches_golden(interleave):
    block = _block(corpus(), np.random.default_rng(4) if interleave else None)
    _assert_matches_golden(
        _by_name(block, fingerprint_users(block, PARAMS, MAX_POIS, ATTACH_RADIUS_M))
    )


def test_golden_corpus_matches_the_per_user_pipeline():
    for name, columns in corpus().items():
        trail = _trail(name, columns)
        got = fingerprint_user(trail, PARAMS, MAX_POIS, ATTACH_RADIUS_M)
        assert _dumps(got) == _dumps(per_user_oracle(trail, PARAMS, MAX_POIS, ATTACH_RADIUS_M)), name


def test_rejects_a_cut_that_keeps_no_poi():
    with pytest.raises(ValueError, match="max_pois"):
        fingerprint_users(_block(corpus()), PARAMS, 0, ATTACH_RADIUS_M)


def test_empty_array_and_absent_users():
    assert fingerprint_users(TraceArray.empty(), PARAMS) == {}
    block = _block(corpus())
    lone = block.users.index("lone")
    only = block[block.user_index == lone]  # the side table still names everyone
    assert list(fingerprint_users(only, PARAMS, MAX_POIS, ATTACH_RADIUS_M)) == [lone]


# -- any block, any order ----------------------------------------------------------


def _random_users(rng, n_users: int) -> dict:
    """Users with 0-4 spots each; neighbours share spots (to the metre or
    exactly), so only the group key keeps their rows apart."""
    spots = np.column_stack((rng.uniform(-60, 60, 6), rng.uniform(-170, 170, 6)))
    users = {}
    for u in range(n_users):
        mine = spots[rng.choice(6, rng.integers(0, 5), replace=False)]
        lat, lon, ts = [np.empty(0)], [np.empty(0)], [np.empty(0)]
        t = 1.7e9 + float(rng.integers(0, 86_400))
        for _ in range(int(rng.integers(0, 9)) if len(mine) else 0):
            spot = mine[rng.integers(len(mine))]
            n = int(rng.integers(1, 8))
            jitter = rng.choice([0.0, 4e-5])
            lat.append(spot[0] + rng.uniform(-jitter, jitter, n))
            lon.append(spot[1] + rng.uniform(-jitter, jitter, n))
            ts.append(t + rng.choice([0.0, 60.0]) * np.arange(n))  # some all-equal stamps
            t += float(rng.choice([600.0, 3_600.0, 40_000.0]))
        users[f"u{u}"] = tuple(np.concatenate(c) for c in (lat, lon, ts))
    return users


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_users=st.integers(1, 7),
    max_pois=st.integers(1, 4),
    attach_radius_m=st.sampled_from([0.0, 3.0, 200.0]),
    min_pts=st.integers(1, 4),
)
def test_block_equals_one_user_at_a_time(seed, n_users, max_pois, attach_radius_m, min_pts):
    rng = np.random.default_rng(seed)
    users = _random_users(rng, n_users)
    params = DJClusterParams(radius_m=150.0, min_pts=min_pts)
    want = {}
    for name, columns in users.items():
        if len(columns[0]):
            trail = _trail(name, columns)
            want[name] = _dumps(fingerprint_user(trail, params, max_pois, attach_radius_m))
            assert want[name] == _dumps(per_user_oracle(trail, params, max_pois, attach_radius_m))
    # Any permutation of the users, cut into blocks anywhere, rows
    # interleaved: every user's bytes stay put.
    names = [str(name) for name in rng.permutation(list(want))]
    cuts = sorted(rng.integers(0, len(names) + 1, 2).tolist())
    got = {}
    for part in (names[: cuts[0]], names[cuts[0] : cuts[1]], names[cuts[1] :]):
        if part:
            block = _block({name: users[name] for name in part}, rng)
            prints = fingerprint_users(block, params, max_pois, attach_radius_m)
            got.update({name: _dumps(fp) for name, fp in _by_name(block, prints).items()})
    assert got == want


# -- the reducer --------------------------------------------------------------------


def _reduce(groups, role="train", params=(PARAMS, MAX_POIS, ATTACH_RADIUS_M)):
    """One FingerprintReducer task over ``groups``; its context."""
    cache = DistributedCache()
    cache.replace(PARAMS_CACHE_KEY, params)
    ctx = ReduceContext(
        Configuration({"linkage.role": role}), Counters(), cache, "reduce-0000", "n1"
    )
    reducer = FingerprintReducer()
    reducer.setup(ctx)
    reducer.run(iter(groups), ctx)
    reducer.cleanup(ctx)
    return ctx


def _fragment_groups(users: dict, cuts_of=lambda name, n: []) -> list:
    """Sorted key groups as the shuffle delivers them: each user's rows cut
    into (offset, lat, lon, ts) fragments at ``cuts_of(name, n)``."""
    groups = []
    for name in sorted(users):
        lat, lon, ts = users[name]
        bounds = [0, *cuts_of(name, len(lat)), len(lat)]
        groups.append((name, [
            (1_000 * lo, lat[lo:hi], lon[lo:hi], ts[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        ]))
    return groups


def _columns_by_user(array: TraceArray) -> dict:
    return {
        name: (rows.latitude, rows.longitude, rows.timestamp)
        for index, name in enumerate(array.users)
        for rows in [array[array.user_index == index]]
    }


def test_reducer_matches_golden_with_fragments_out_of_offset_order():
    groups = _fragment_groups(
        corpus(), lambda name, n: [n // 3, 2 * n // 3] if name == "shuffled" else [n // 2]
    )
    for _, fragments in groups:
        fragments.reverse()  # arrival order is not offset order
    ctx = _reduce(groups)
    assert [key for key, _ in ctx.output] == sorted(corpus())
    assert all(role == "train" for _, (role, _) in ctx.output)
    _assert_matches_golden({key: fp for key, (_, fp) in ctx.output})
    states = sum(len(fp.states) for _, (_, fp) in ctx.output if fp is not None)
    cells = sum(fp.transitions.size for _, (_, fp) in ctx.output if fp is not None)
    unlinkable = sum(fp is None for _, (_, fp) in ctx.output)
    n_prints = len(ctx.output) - unlinkable
    assert ctx.output_nbytes == 16 * unlinkable + 32 * n_prints + 8 * (3 * states + cells)
    assert ctx.output_records == len(ctx.output)


def test_block_cut_changes_neither_output_nor_order(monkeypatch):
    train, _, _ = synthetic_linkage_corpus(40, seed=3)
    groups = _fragment_groups(_columns_by_user(train), lambda name, n: [n // 2])
    params = (SYNTH_ATTACK_PARAMS, 8, 200.0)
    calls = count_calls(monkeypatch, linkage_mr, "fingerprint_users")
    whole = _reduce(groups, params=params)
    assert len(calls) == 1
    # 40 users of 30 rows against a 100-row block: a block closes with the
    # user that fills it, so 10 blocks of 4.
    monkeypatch.setattr(linkage_mr, "_BLOCK_ROWS", 100)
    cut = _reduce(groups, params=params)
    assert len(calls) == 1 + 10
    assert all(len(args[0]) == 120 for args in calls[1:])
    assert _dumps(cut.output) == _dumps(whole.output)
    assert (cut.output_nbytes, cut.output_records) == (whole.output_nbytes, whole.output_records)
    assert sum(fp is not None for _, (_, fp) in cut.output) == 40


def test_reduce_task_cost_follows_blocks_not_users(monkeypatch):
    """Haversine calls per FingerprintReducer task: the per-user pipeline
    made at least five per user (two filters, >= 1 per grid cell, one per
    MMC, more per cluster); a block makes three, whoever is in it.  The
    block's one self-join slab is decided on unit vectors, which call
    Haversine only for pairs inside the radius kernel's band."""
    calls = count_calls(monkeypatch, distance, "haversine_km")
    slabs = count_calls(monkeypatch, selfjoin, "within_radius")
    per_block = {}
    for n_users in (5, 80):
        train, _, _ = synthetic_linkage_corpus(n_users, seed=9)
        users = _columns_by_user(train)
        del calls[:], slabs[:]
        ctx = _reduce(_fragment_groups(users), params=(SYNTH_ATTACK_PARAMS, 8, 200.0))
        assert sum(fp is not None for _, (_, fp) in ctx.output) == n_users
        per_block[n_users] = (len(calls), len(slabs))
    # speed filter, dedup, one (trace x own POI) call; one self-join slab
    assert per_block == {5: (3, 1), 80: (3, 1)}
