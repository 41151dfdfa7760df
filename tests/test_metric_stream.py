"""Metric streaming: emitters, exec wiring, and bit-identity.

The load-bearing property: attaching a metric stream to a launch is
*observation only* — the streamed per-step columns equal the timelines a
recording run produces, and the run results themselves are unchanged.
"""

import pytest

from repro.analytics import MetricStream, MetricStreamSpec, RunStore
from repro.exec import LaunchWork, execute_launch
from repro.metrics import StepMetrics, gridlock_fraction, step_metrics


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "metrics.sqlite")


class TestStepMetrics:
    def test_gridlock_fraction_bounds(self):
        assert gridlock_fraction(0, 100) == 1.0
        assert gridlock_fraction(100, 100) == 0.0
        assert gridlock_fraction(25, 100) == pytest.approx(0.75)
        assert gridlock_fraction(0, 0) == 0.0  # empty population: no gridlock

    def test_step_metrics_without_mat_skips_lane_index(self):
        rec = step_metrics("r", 3, 10, 2, 5, 40)
        assert rec.lane_index is None
        assert rec.gridlock_fraction == pytest.approx(0.75)

    def test_row_and_dict_shapes_agree(self):
        rec = StepMetrics("r", 1, 2, 3, 4, 0.5, 0.25)
        assert rec.to_row() == ("r", 1, 2, 3, 4, 0.5, 0.25, None)
        assert rec.to_dict()["crossed_total"] == 4
        assert set(rec.to_dict()) == {
            "run_id", "step", "moved", "new_crossings", "crossed_total",
            "gridlock_fraction", "lane_index", "dispatch_ops",
        }

    def test_dispatch_ops_passthrough(self):
        assert step_metrics("r", 0, 1, 0, 0, 4).dispatch_ops is None
        assert step_metrics("r", 0, 1, 0, 0, 4, dispatch_ops=68).dispatch_ops == 68


class TestSpecValidation:
    def test_flush_every_must_be_positive(self, db_path):
        with pytest.raises(ValueError, match="flush_every"):
            MetricStreamSpec(db_path=db_path, run_ids=("r",), flush_every=0)

    def test_lane_index_every_must_be_non_negative(self, db_path):
        with pytest.raises(ValueError, match="lane_index_every"):
            MetricStreamSpec(
                db_path=db_path, run_ids=("r",), lane_index_every=-1
            )

    def test_stream_needs_one_run_id_per_lane(self, db_path, tiny_config):
        spec = MetricStreamSpec(db_path=db_path, run_ids=("a", "b"))
        with pytest.raises(ValueError, match="one run id per lane"):
            MetricStream(spec, [tiny_config])

    def test_spec_pickles(self, db_path):
        import pickle

        spec = MetricStreamSpec(db_path=db_path, run_ids=("a", "b"))
        assert pickle.loads(pickle.dumps(spec)) == spec


def _begin(db_path, configs, run_ids):
    store = RunStore(db_path)
    store.begin_runs(
        [(rid, cfg, "vectorized", f"dg-{rid}") for rid, cfg in zip(run_ids, configs)]
    )
    return store


class TestExecuteLaunchStreaming:
    def test_solo_launch_streams_exact_timelines(self, db_path, tiny_config):
        ids = ("solo-a", "solo-b")
        configs = (tiny_config, tiny_config.replace(seed=11))
        store = _begin(db_path, configs, ids)
        out = execute_launch(
            LaunchWork(
                configs=configs,
                record_timeline=True,
                metrics=MetricStreamSpec(db_path=db_path, run_ids=ids),
            )
        )
        for rid, cfg, res in zip(ids, configs, out.results):
            rows = store.metrics(rid)
            assert [r["step"] for r in rows] == list(range(cfg.steps))
            # Streamed columns == recorded timelines, element for element.
            assert [r["moved"] for r in rows] == list(res.moved_per_step)
            assert [r["new_crossings"] for r in rows] == list(
                res.crossings_per_step
            )
            assert rows[-1]["crossed_total"] == res.throughput_total
            assert all(r["lane_index"] is not None for r in rows)
        store.close()

    def test_batched_mixed_launch_streams_exact_timelines(
        self, db_path, tiny_config, small_config
    ):
        # Padded heterogeneous lanes: different grids and populations in
        # one batched launch, each lane streaming under its own run id.
        ids = ("lane-tiny", "lane-small")
        configs = (tiny_config, small_config.replace(steps=tiny_config.steps))
        store = _begin(db_path, configs, ids)
        out = execute_launch(
            LaunchWork(
                configs=configs,
                batched=True,
                record_timeline=True,
                metrics=MetricStreamSpec(db_path=db_path, run_ids=ids),
            )
        )
        for rid, res in zip(ids, out.results):
            rows = store.metrics(rid)
            assert [r["moved"] for r in rows] == list(res.moved_per_step)
            assert [r["new_crossings"] for r in rows] == list(
                res.crossings_per_step
            )
            assert rows[-1]["crossed_total"] == res.throughput_total
        store.close()

    def test_streaming_does_not_change_results(self, db_path, tiny_config):
        # Bit-identity: the exact acceptance criterion. Same work item
        # with and without a metric stream -> equal results.
        ids = ("bit-a", "bit-b")
        configs = (tiny_config, tiny_config.replace(seed=5))
        store = _begin(db_path, configs, ids)
        store.close()
        streamed = execute_launch(
            LaunchWork(
                configs=configs,
                batched=True,
                record_timeline=True,
                metrics=MetricStreamSpec(db_path=db_path, run_ids=ids),
            )
        )
        plain = execute_launch(
            LaunchWork(configs=configs, batched=True, record_timeline=True)
        )
        for got, want in zip(streamed.results, plain.results):
            assert got.throughput_total == want.throughput_total
            assert got.throughput_top == want.throughput_top
            assert got.throughput_bottom == want.throughput_bottom
            assert list(got.moved_per_step) == list(want.moved_per_step)
            assert list(got.crossings_per_step) == list(want.crossings_per_step)

    def test_lane_index_sampling_thinned(self, db_path, tiny_config):
        ids = ("thin",)
        store = _begin(db_path, (tiny_config,), ids)
        execute_launch(
            LaunchWork(
                configs=(tiny_config,),
                metrics=MetricStreamSpec(
                    db_path=db_path, run_ids=ids, lane_index_every=5
                ),
            )
        )
        rows = store.metrics("thin")
        for r in rows:
            if r["step"] % 5 == 0:
                assert r["lane_index"] is not None
            else:
                assert r["lane_index"] is None
        store.close()

    def test_lane_index_disabled(self, db_path, tiny_config):
        ids = ("off",)
        store = _begin(db_path, (tiny_config,), ids)
        execute_launch(
            LaunchWork(
                configs=(tiny_config,),
                metrics=MetricStreamSpec(
                    db_path=db_path, run_ids=ids, lane_index_every=0
                ),
            )
        )
        assert all(r["lane_index"] is None for r in store.metrics("off"))
        store.close()

    def test_dispatch_ops_null_on_ordinary_backends(self, db_path, tiny_config):
        ids = ("plain",)
        store = _begin(db_path, (tiny_config,), ids)
        execute_launch(
            LaunchWork(
                configs=(tiny_config,),
                metrics=MetricStreamSpec(db_path=db_path, run_ids=ids),
            )
        )
        rows = store.metrics("plain")
        assert rows and all(r["dispatch_ops"] is None for r in rows)
        store.close()

    def test_dispatch_ops_streamed_per_step_on_counting_backend(
        self, db_path, tiny_config
    ):
        cfg = tiny_config.replace(backend="profile:numpy")
        ids = ("prof",)
        store = _begin(db_path, (cfg,), ids)
        execute_launch(
            LaunchWork(
                configs=(cfg,),
                metrics=MetricStreamSpec(db_path=db_path, run_ids=ids),
            )
        )
        rows = store.metrics("prof")
        assert len(rows) == cfg.steps
        # run_simulation resets the counters at the run-loop boundary, so
        # every delta — including step 0 — covers exactly one step and
        # excludes construction-time dispatches.
        assert all(isinstance(r["dispatch_ops"], int) for r in rows)
        assert all(r["dispatch_ops"] > 0 for r in rows)
        first, rest = rows[0]["dispatch_ops"], rows[1:]
        assert first <= 3 * max(r["dispatch_ops"] for r in rest)
        store.close()

    def test_dispatch_ops_shared_across_batched_lanes(self, db_path, tiny_config):
        # Lanes of a batch share one fused dispatch sequence; every
        # lane's record carries the batch's per-step count.
        cfg = tiny_config.replace(backend="profile:numpy")
        configs = (cfg, cfg.replace(seed=9))
        ids = ("bl-a", "bl-b")
        store = _begin(db_path, configs, ids)
        execute_launch(
            LaunchWork(
                configs=configs,
                batched=True,
                metrics=MetricStreamSpec(db_path=db_path, run_ids=ids),
            )
        )
        rows_a = store.metrics("bl-a")
        rows_b = store.metrics("bl-b")
        assert [r["dispatch_ops"] for r in rows_a] == [
            r["dispatch_ops"] for r in rows_b
        ]
        assert all(r["dispatch_ops"] > 0 for r in rows_a)
        store.close()

    def test_small_flush_batches_equal_large(self, db_path, tiny_config):
        # flush_every is a pure batching knob: row content is identical.
        for rid, flush in (("f1", 1), ("f64", 64)):
            store = _begin(db_path, (tiny_config,), (rid,))
            store.close()
            execute_launch(
                LaunchWork(
                    configs=(tiny_config,),
                    metrics=MetricStreamSpec(
                        db_path=db_path, run_ids=(rid,), flush_every=flush
                    ),
                )
            )
        store = RunStore(db_path)
        a = [
            tuple(v for k, v in sorted(r.items()) if k != "run_id")
            for r in store.metrics("f1")
        ]
        b = [
            tuple(v for k, v in sorted(r.items()) if k != "run_id")
            for r in store.metrics("f64")
        ]
        assert a == b
        store.close()
