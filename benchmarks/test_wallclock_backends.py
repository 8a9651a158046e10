"""Wall-clock trajectory of the execution backends (docs/PERFORMANCE.md).

Times the fixed-initial-centroid k-means driver on serial / threads /
processes over 10^5- and 10^6-trace synthetic corpora and writes the
JSON document (``results/BENCH_backends.json``) that, once committed,
is the baseline for ``python -m repro bench --check``.

Unlike the pytest-benchmark suites in this directory, these tests are
gated behind the opt-in ``bench`` marker (``pytest benchmarks/ -m bench``)
because their whole point is real, machine-dependent wall-clock.

The parallel speedup claim is only asserted where it can hold: the
process pool needs real cores, so the >=2x check is gated on
``os.cpu_count() >= 4``.  On smaller hosts the numbers are still
recorded — honestly, including any slowdown from fork and IPC overhead
— so the serial-normalized ratios in the baseline stay meaningful for
``--check`` runs on different hardware.  The committed baseline was
recorded on a shared 2-CPU container (``cpu_count: 2``, two pool
workers): processes 1.09x serial at 10^6 traces, 0.59x at 10^5 (a
0.09 s run cannot repay forking the pool); it cannot arm the >=2x
assertion.
"""

import os

import pytest

from benchmarks.conftest import RESULTS_DIR, write_report
from repro.mapreduce.bench import SUITES, save_result

pytestmark = pytest.mark.bench

SIZES = (100_000, 1_000_000)


def test_wallclock_backends():
    suite = SUITES["backends"]
    doc = suite.run(sizes=SIZES, iterations=2)
    save_result(doc, RESULTS_DIR / "BENCH_backends.json")
    write_report("BENCH_backends", suite.render(doc).splitlines())

    by_size = {entry["size"]: entry for entry in doc["results"]}
    assert set(by_size) == set(SIZES)
    for entry in by_size.values():
        assert set(entry["times_s"]) == {"serial", "threads", "processes"}
        assert all(t > 0 for t in entry["times_s"].values())

    # The headline claim — process parallelism at least halves the 10^6
    # k-means wall-clock — needs cores to be true on.
    if (os.cpu_count() or 1) >= 4:
        speedup = by_size[1_000_000]["speedup_vs_serial"]["processes"]
        assert speedup >= 2.0, (
            f"processes backend only {speedup:.2f}x over serial at 10^6 "
            f"traces on {os.cpu_count()} cores"
        )
