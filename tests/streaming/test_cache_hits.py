"""``WindowResult.cache_hits`` counts the hit events of *its* window.

Ordinary streams never hit a cache (every window is a new dataset
version), so the hits are injected: the sampling step is wrapped to emit
``w + 1`` hit events inside window ``w``'s ``process`` call, and one more
is emitted between windows.  The per-window count must equal the
difference of two scans over the whole history — what ``process`` used
to compute, at a cost quadratic in the stream's length.
"""

import repro.streaming.manager as manager_module
from repro.mapreduce.runner import fresh_runner
from repro.streaming.manager import _CACHE_HITS, StreamingJobManager
from repro.streaming.source import StreamSource
from tests.conftest import payload
from tests.goldens.windows import WINDOW_S, stream_corpus


def _full_scan(history) -> int:
    return sum(1 for e in history if isinstance(e.payload, _CACHE_HITS))


def test_cache_hits_per_window_equal_the_full_scan_difference(monkeypatch):
    corpus = stream_corpus()
    first_window = corpus.timestamp.min() // WINDOW_S
    corpus = corpus[corpus.timestamp < (first_window + 3) * WINDOW_S]
    source = StreamSource(corpus, WINDOW_S, name="hits")
    assert source.n_windows == 3
    real_sampling = manager_module.run_sampling_job

    def sampling_with_hits(client, *args, **kwargs):
        out = real_sampling(client, *args, **kwargs)
        window = client.job_tags["window"]
        for i in range(window + 1):
            kind = _CACHE_HITS[i % len(_CACHE_HITS)].kind
            client.history.emit(payload(kind), "injected", client.history.clock)
        return out

    monkeypatch.setattr(manager_module, "run_sampling_job", sampling_with_hits)
    with fresh_runner({}, chunk_size=64 * 1024, n_workers=4) as runner:
        manager = StreamingJobManager(
            runner, name="hits", k=3, max_iter=3, sampling_window_s=120.0
        )
        history = runner.history
        for w in range(source.n_windows):
            # A hit outside any window belongs to no window.
            history.emit(payload("result_cache_hit"), "between-windows", history.clock)
            sealed = manager.batcher.close_window(source, w)
            before = _full_scan(history)
            result = manager.process(sealed)
            assert result.cache_hits == _full_scan(history) - before == w + 1
        assert [r.cache_hits for r in manager.results] == [1, 2, 3]
        assert _full_scan(history) == 3 + 6
