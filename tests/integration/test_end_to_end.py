"""End-to-end integration: the full privacy-analysis workflow.

Exercises the complete paper pipeline on a simulated deployment:
GeoLife-format data -> HDFS upload -> MR sampling -> MR preprocessing ->
MR R-tree build -> MR DJ-Cluster -> POI attack -> sanitize -> re-attack ->
privacy/utility trade-off.
"""

import numpy as np
import pytest

from repro import Gepeto
from repro.algorithms.djcluster import DJClusterParams, djcluster_sequential
from repro.algorithms.sampling import run_sampling_job
from repro.attacks.poi import extract_pois, label_home_work
from repro.geo.geolife import write_geolife_dataset
from repro.geo.trace import TraceArray
from repro.metrics.privacy import poi_recovery
from repro.metrics.utility import utility_report
from repro.sanitization import GaussianMask


@pytest.fixture(scope="module")
def workflow():
    toolkit, truth = Gepeto.synthetic(n_users=3, days=3, seed=101)
    return toolkit, truth


class TestFullPipeline:
    def test_geolife_disk_roundtrip_feeds_pipeline(self, workflow, tmp_path):
        toolkit, _ = workflow
        one_user = toolkit.dataset.trail(toolkit.dataset.users[0]).by_user()
        write_geolife_dataset(one_user, tmp_path)
        reloaded = Gepeto.from_geolife(tmp_path)
        assert len(reloaded) == len(one_user)
        sampled = reloaded.sample(60.0)
        assert len(sampled) < len(reloaded)

    def test_distributed_analysis_end_to_end(self, workflow):
        toolkit, truth = workflow
        cluster = toolkit.deploy(n_workers=5, chunk_size_mb=1)

        # Stage 1: MR sampling (Section V).
        sample_res = cluster.sample(60.0)
        sampled_path = sample_res.output_path
        n_sampled = cluster.runner.hdfs.file_records(sampled_path)
        assert n_sampled < len(toolkit) / 5

        # Stage 2-4: full MR DJ-Cluster (preprocess, R-tree, cluster).
        params = DJClusterParams(radius_m=80, min_pts=6)
        dj = cluster.djcluster(params, input_path=sampled_path)
        assert dj.n_clusters >= 3  # at least one POI per user

        # Stage 5: the POI inference attack on the clusters.
        pois = label_home_work(extract_pois(dj))
        assert pois

        # Scoring against generator ground truth: the attack must find a
        # decent share of the true POIs on unsanitized data.
        gt = [p for user in truth for p in user.pois]
        recovery = poi_recovery(pois, gt, match_radius_m=150.0)
        assert recovery.recall > 0.3
        assert recovery.precision > 0.5

    def test_sanitization_degrades_attack_but_keeps_utility_signal(self, workflow):
        toolkit, truth = workflow
        sampled = toolkit.sample(60.0)
        params = DJClusterParams(radius_m=80, min_pts=6)
        gt = [p for user in truth for p in user.pois]

        def attack(gep):
            res = djcluster_sequential(gep.dataset, params)
            return extract_pois(res)

        clean_recovery = poi_recovery(attack(sampled), gt, match_radius_m=150.0)
        strong_mask = GaussianMask(sigma_m=400.0, seed=3)
        masked = sampled.sanitize(strong_mask)
        masked_recovery = poi_recovery(attack(masked), gt, match_radius_m=150.0)

        # Privacy: heavy noise must hurt POI recovery.
        assert masked_recovery.f1 < clean_recovery.f1
        # Utility: distortion reported, volume untouched.
        report = utility_report(sampled.dataset, masked.dataset)
        assert report.volume_ratio == 1.0
        assert report.mean_distortion_m > 200.0

    def test_simulated_times_accumulate_across_stages(self, workflow):
        toolkit, _ = workflow
        cluster = toolkit.deploy(n_workers=5, chunk_size_mb=1)
        res = cluster.sample(300.0, output_path="out/s300")
        dj = cluster.djcluster(
            DJClusterParams(radius_m=100, min_pts=5), input_path="out/s300",
            workdir="out/dj",
        )
        assert res.sim_seconds > 25.0  # at least one job overhead
        assert dj.sim_seconds > 3 * 25.0  # several chained jobs
        assert dj.stage_sim_seconds["preprocessing"] > 0


class TestScalingKnobs:
    def test_more_workers_do_not_change_results(self, workflow):
        toolkit, _ = workflow
        small = toolkit.sample(300.0)
        c2 = small.deploy(n_workers=2, chunk_size_mb=1)
        c8 = small.deploy(n_workers=8, chunk_size_mb=1)
        r2 = c2.sample(600.0)
        r8 = c8.sample(600.0)
        a = c2.runner.hdfs.read_trace_array(r2.output_path).sort_by_time()
        b = c8.runner.hdfs.read_trace_array(r8.output_path).sort_by_time()
        assert len(a) == len(b)
        assert np.allclose(a.timestamp, b.timestamp)

    def test_more_workers_reduce_simulated_time_with_many_chunks(self, workflow):
        from repro.algorithms.sampling import run_sampling_job
        from repro.mapreduce.cluster import paper_cluster
        from repro.mapreduce.hdfs import SimulatedHDFS
        from repro.mapreduce.runner import JobRunner

        toolkit, _ = workflow
        arr = toolkit.dataset.sort_by_time()
        results = {}
        for workers in (1, 8):
            hdfs = SimulatedHDFS(paper_cluster(workers), chunk_size=64 * 2000, seed=0)
            hdfs.put_trace_array("traces", arr)
            if workers == 1:
                assert len(hdfs.chunks("traces")) > 16, "need more chunks than slots"
            results[workers] = run_sampling_job(
                JobRunner(hdfs), "traces", "out", 60.0
            )
        assert results[8].timing.map_s < results[1].timing.map_s
