"""ProfilingBackend: counting semantics, registry resolution, identity.

The dispatch profiler only earns its keep if (a) its numbers mean what
they say — one tick per call through ``backend.xp``, transfers tallied
separately — and (b) wrapping a backend never perturbs the trajectory.
Both are pinned here; the absolute per-engine budgets live in
``tests/test_dispatch_budget.py``.
"""

import numpy as np
import pytest

from repro import run_simulation
from repro.backend import (
    PROFILE_PREFIX,
    DispatchCounts,
    DispatchProfile,
    NumpyBackend,
    ProfilingBackend,
    resolve_backend,
)


@pytest.fixture()
def prof():
    return ProfilingBackend(NumpyBackend())


class TestCountingSemantics:
    def test_each_namespace_call_is_one_op(self, prof):
        prof.xp.zeros(4)
        prof.xp.arange(3)
        prof.xp.zeros(2)
        snap = prof.snapshot()
        assert snap.ops == 3
        assert snap.by_op == {"zeros": 2, "arange": 1}

    def test_ufunc_methods_count_with_dotted_tag(self, prof):
        out = np.zeros(3)
        prof.xp.add.at(out, np.array([1, 1]), 1.0)
        snap = prof.snapshot()
        assert snap.ops == 1
        assert snap.by_op == {"add.at": 1}
        assert out[1] == 2.0

    def test_non_callables_and_types_pass_through_raw(self, prof):
        assert prof.xp.pi == np.pi
        assert prof.xp.ndarray is np.ndarray
        assert prof.xp.float32 is np.float32
        # Attribute access alone must not tick the tally.
        assert prof.ops == 0
        # ...and isinstance checks against the passthrough type work.
        assert isinstance(prof.xp.zeros(1), prof.xp.ndarray)

    def test_transfers_counted_separately_from_ops(self, prof):
        dev = prof.from_host(np.arange(4))
        host = prof.to_host(dev)
        snap = prof.snapshot()
        assert snap.h2d_transfers == 1
        assert snap.d2h_transfers == 1
        assert snap.transfers == 2
        assert snap.ops == 0
        np.testing.assert_array_equal(host, np.arange(4))

    def test_scatter_add_counts_op_and_tag(self, prof):
        out = np.zeros(3)
        prof.scatter_add(out, np.array([0, 0]), 2.0)
        snap = prof.snapshot()
        assert snap.scatter_adds == 1
        assert snap.ops == 1
        assert snap.by_op == {"scatter_add": 1}
        assert out[0] == 4.0

    def test_synchronize_counts_syncs(self, prof):
        prof.synchronize()
        prof.synchronize()
        assert prof.snapshot().syncs == 2

    def test_reset_zeroes_everything(self, prof):
        prof.xp.zeros(1)
        prof.from_host(np.zeros(1))
        prof.synchronize()
        prof.reset()
        assert prof.snapshot() == DispatchCounts()

    def test_refuses_double_wrapping(self, prof):
        with pytest.raises(ValueError, match="refusing"):
            ProfilingBackend(prof)


class TestDispatchCounts:
    def test_delta_subtraction(self):
        before = DispatchCounts(ops=10, h2d_transfers=2, by_op={"where": 10})
        after = DispatchCounts(
            ops=25, h2d_transfers=2, d2h_transfers=3, by_op={"where": 20, "stack": 5}
        )
        delta = after - before
        assert delta.ops == 15
        assert delta.h2d_transfers == 0
        assert delta.d2h_transfers == 3
        assert delta.by_op == {"where": 10, "stack": 5}

    def test_top_ops_ranked_descending_then_name(self):
        counts = DispatchCounts(ops=9, by_op={"b": 3, "a": 3, "c": 2, "d": 1})
        assert counts.top_ops(3) == [("a", 3), ("b", 3), ("c", 2)]

    def test_to_dict_round_trips_by_op_sorted(self):
        counts = DispatchCounts(ops=2, by_op={"z": 1, "a": 1})
        assert list(counts.to_dict()["by_op"]) == ["a", "z"]


class TestRegistryResolution:
    def test_profile_name_resolves_to_counting_numpy(self):
        backend = resolve_backend(PROFILE_PREFIX)
        assert isinstance(backend, ProfilingBackend)
        assert backend.capabilities.name == "profile:numpy"
        assert backend.capabilities.device == "cpu"
        assert backend.inner.xp is np

    def test_profile_colon_inner_resolves(self):
        backend = resolve_backend("profile:numpy")
        assert isinstance(backend, ProfilingBackend)
        assert isinstance(backend.inner, NumpyBackend)

    def test_profile_instances_cached_per_name(self):
        assert resolve_backend("profile:numpy") is resolve_backend("profile:numpy")


class TestProfiledRunIdentity:
    """Counting must never perturb the trajectory."""

    def test_profiled_run_bit_identical(self, tiny_config):
        plain = run_simulation(tiny_config, engine="vectorized")
        profiled = run_simulation(tiny_config, engine="vectorized", profile=True)
        assert profiled.throughput_total == plain.throughput_total
        np.testing.assert_array_equal(
            profiled.result.moved_per_step, plain.result.moved_per_step
        )
        np.testing.assert_array_equal(
            profiled.result.crossings_per_step, plain.result.crossings_per_step
        )

    def test_recorded_batched_run_brings_two_timelines_back(self, tiny_config):
        from repro.engine import BatchedEngine

        engine = BatchedEngine(tiny_config.replace(backend="profile"), seeds=(0, 1, 2))
        engine.backend.reset()
        engine.run(steps=5, record_timeline=True)
        # moved and crossings: one device->host copy each, after the loop.
        assert engine.backend.snapshot().d2h_transfers == 2
        engine.backend.reset()
        engine.run(steps=5, record_timeline=False)
        assert engine.backend.snapshot().d2h_transfers == 0

    def test_profile_attached_with_setup_split(self, tiny_config):
        out = run_simulation(tiny_config, engine="vectorized", profile=True)
        profile = out.profile
        assert isinstance(profile, DispatchProfile)
        assert profile.steps == out.result.steps_run
        assert profile.counts.ops > 0
        # Construction uploads land in setup, not in the per-step counts.
        assert profile.setup is not None
        assert profile.setup.h2d_transfers > 0
        assert profile.ops_per_step == profile.counts.ops / profile.steps
        assert profile.allocs_per_step == profile.counts.allocs / profile.steps
        # Scratch-arena reuse keeps allocations a strict subset of dispatches.
        assert 0 < profile.counts.allocs < profile.counts.ops
        d = profile.to_dict()
        assert set(d) == {
            "steps",
            "ops_per_step",
            "allocs_per_step",
            "transfers_per_step",
            "counts",
            "setup",
        }
        assert "ops/step" in profile.describe()
        assert "allocs/step" in profile.describe()

    def test_unprofiled_run_has_no_profile(self, tiny_config):
        assert run_simulation(tiny_config, engine="vectorized").profile is None
