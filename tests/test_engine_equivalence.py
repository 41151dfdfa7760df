"""The load-bearing invariant: all engines produce bit-identical trajectories.

This is the reproduction of the paper's Fig 6b validation argument
("comparing the solution obtained from CPU and GPU is a viable way to
establish consistency of the implementation"), strengthened to exact
equality via the keyed counter-based RNG.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import PanicHook, SimulationConfig, available_engines, build_engine
from repro.backend import resolve_backend
from repro.engine import BatchedEngine
from repro.grid import offsets_array
from repro.io import engine_state_digest
from repro.models import ACOParams, LEMParams, fast_pow
from repro.types import Group

MODELS = ["lem", "aco", "random", "greedy"]


def run_pair(cfg, a_name, b_name, steps):
    a = build_engine(cfg, a_name)
    b = build_engine(cfg, b_name)
    for i in range(steps):
        ra = a.step()
        rb = b.step()
        assert ra == rb, f"step reports diverged at {i}: {ra} vs {rb}"
        assert a.state_equals(b), f"state diverged at step {i}"
    return a, b


class TestSequentialVsVectorized:
    @pytest.mark.parametrize("model", MODELS)
    def test_bit_identical(self, model):
        cfg = SimulationConfig(
            height=24, width=24, n_per_side=50, steps=40, seed=101
        ).with_model(model)
        a, b = run_pair(cfg, "sequential", "vectorized", 40)
        assert a.throughput() == b.throughput()

    def test_identical_at_high_density(self):
        cfg = SimulationConfig(
            height=20, width=20, n_per_side=80, steps=30, seed=5
        ).with_model("aco")
        run_pair(cfg, "sequential", "vectorized", 30)

    def test_identical_with_forward_priority_off(self):
        cfg = SimulationConfig(
            height=20, width=20, n_per_side=40, steps=30, seed=6,
            forward_priority=False,
        ).with_model("lem")
        run_pair(cfg, "sequential", "vectorized", 30)

    def test_identical_with_ceil_rule(self):
        from repro.models import LEMParams

        cfg = SimulationConfig(
            height=20, width=20, n_per_side=40, steps=30, seed=8,
            params=LEMParams(rule="ceil"),
        )
        run_pair(cfg, "sequential", "vectorized", 30)

    def test_identical_with_fractional_beta(self):
        """Non-integer exponents route through np.power on both paths."""
        from repro.models import ACOParams

        cfg = SimulationConfig(
            height=16, width=16, n_per_side=20, steps=20, seed=9,
            params=ACOParams(beta=1.5),
        )
        run_pair(cfg, "sequential", "vectorized", 20)


class TestEveryEngine:
    def test_registry_engines_agree_aco(self):
        cfg = SimulationConfig(
            height=32, width=32, n_per_side=100, steps=30, seed=55
        ).with_model("aco")
        engines = [build_engine(cfg, n) for n in sorted(available_engines())]
        assert len(engines) >= 2
        first, *others = engines
        for _ in range(30):
            report = first.step()
            assert all(e.step() == report for e in others)
        assert all(first.state_equals(e) for e in others)


class TestSeedSensitivity:
    def test_different_seeds_diverge(self):
        cfg = SimulationConfig(height=24, width=24, n_per_side=50, steps=20)
        a = build_engine(cfg, "vectorized", seed=1)
        b = build_engine(cfg, "vectorized", seed=2)
        for _ in range(20):
            a.step()
            b.step()
        assert not a.env.equals(b.env)

    def test_same_seed_reproducible(self):
        # The second engine is built only after the first has finished
        # stepping, so setup state shared between engines and mutated by
        # a run would show up as a difference.
        cfg = SimulationConfig(height=24, width=24, n_per_side=50, steps=20, seed=4)
        for engine in ("sequential", "vectorized"):
            a = build_engine(cfg, engine)
            reports = [a.step() for _ in range(20)]
            b = build_engine(cfg, engine)
            assert [b.step() for _ in range(20)] == reports
            assert a.state_equals(b)


def _stuck_share(engine):
    """(blocked, stuck) agents of a sequential engine: blocked agents have
    no empty forward cell; stuck ones have no empty neighbour at all."""
    env, pop = engine.env, engine.pop
    h, w = env.shape
    blocked = stuck = 0
    for a in range(1, pop.n_agents + 1):
        r0, c0 = int(pop.rows[a]), int(pop.cols[a])
        empty = [
            0 <= r0 + dr < h and 0 <= c0 + dc < w and env.mat[r0 + dr, c0 + dc] == 0
            for dr, dc in offsets_array(Group(int(pop.ids[a])))
        ]
        if not empty[0]:
            blocked += 1
            stuck += not any(empty)
    return blocked, stuck


def _lane_digest(batched, lane):
    """``engine_state_digest`` of one lane of a batched engine."""
    return engine_state_digest(SimpleNamespace(
        pop=batched.lane_population(lane),
        env=batched.lane_environment(lane),
        backend=resolve_backend("numpy"),
    ))


class TestJammedDifferential:
    """The jammed regime: dense small grids run until many deciding rows
    have no empty neighbour (the rows the whole-array engines send to -1
    without a model call) and rows with tied scores abound. On every step
    the sequential engine, the solo vectorized engine and both lanes of a
    padded 2-lane batch (the second lane a smaller, different jam) share
    one ``engine_state_digest``, and every state invariant holds."""

    STEPS = 40
    #: (params, agents per side, fill fraction, least stuck share of the
    #: blocked rows over the second half of the run).
    PROFILES = {
        "lem": (LEMParams(), 100, 0.8, 0.5),
        "lem-ceil": (LEMParams(rule="ceil"), 110, 0.95, 0.05),
        "greedy": ("greedy", 110, 0.95, 0.3),
        "aco": ("aco", 110, 0.95, 0.15),
    }

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_engines_agree_every_step_in_a_jam(self, profile):
        params, n, fill, least_share = self.PROFILES[profile]
        cfg = SimulationConfig(
            height=16, width=16, n_per_side=n, fill_fraction=fill,
            steps=self.STEPS, seed=5,
        ).with_model(params)
        small = cfg.replace(height=12, width=12, n_per_side=50, fill_fraction=0.9)
        seq = build_engine(cfg, "sequential")
        small_seq = build_engine(small, "sequential")
        vec = build_engine(cfg, "vectorized")
        batch = BatchedEngine([cfg, small], seeds=(cfg.seed, cfg.seed))
        blocked = stuck = 0
        for t in range(self.STEPS):
            for engine in (seq, small_seq, vec, batch):
                engine.step()
            for engine in (seq, small_seq, vec, batch):
                engine.validate_state()
            digest = engine_state_digest(seq)
            assert engine_state_digest(vec) == digest, t
            assert _lane_digest(batch, 0) == digest, t
            assert _lane_digest(batch, 1) == engine_state_digest(small_seq), t
            if t >= self.STEPS // 2:
                b, s = _stuck_share(seq)
                blocked += b
                stuck += s
        assert stuck >= least_share * blocked


class TestSlotTables:
    """Every engine's scan reads one per-slot table per parameter bundle,
    built once from the distance tables: ``(1/D)^beta`` for the ACO, the
    distances themselves for the other models. A hook that swaps a lane's
    bundle gives that lane its own table."""

    @staticmethod
    def _eta_beta(dist, beta):
        with np.errstate(divide="ignore"):
            return fast_pow(1.0 / dist, beta)

    @pytest.mark.parametrize("beta", [2.0, 3.0, 1.5])
    def test_aco_table_is_eta_beta(self, beta):
        cfg = SimulationConfig(height=16, width=16, n_per_side=20).with_model(
            ACOParams(beta=beta)
        )
        batch = BatchedEngine([cfg, cfg.replace(height=24)], seeds=(1, 2))
        (_params, _model, table), = batch._param_groups
        want = self._eta_beta(batch._dist_stack, beta).reshape(-1, 8)
        assert np.array_equal(table, want)
        seq = build_engine(cfg, "sequential")
        for g in (Group.TOP, Group.BOTTOM):
            want = self._eta_beta(np.asarray(seq.dist[g].table), beta)
            assert seq._slot_list[g] == want.tolist()

    @pytest.mark.parametrize("model", ["lem", "greedy", "random"])
    def test_other_tables_are_the_distance_stack(self, model):
        cfg = SimulationConfig(height=16, width=16, n_per_side=20).with_model(model)
        batch = BatchedEngine(cfg, seeds=(1, 2))
        (_params, _model, table), = batch._param_groups
        # The same memory: no copy for a model whose term is D.
        assert np.shares_memory(table, batch._dist_stack)
        assert np.array_equal(table, batch._dist_stack.reshape(-1, 8))
        seq = build_engine(cfg, "sequential")
        for g in (Group.TOP, Group.BOTTOM):
            assert seq._slot_list[g] == seq.dist[g].table.tolist()

    def test_panic_on_one_lane_reads_its_own_table(self):
        """Lane 1 panics at step 10 (beta 2 -> 3) and lane 0 does not, so
        from then on the batch holds two bundles with two tables. Each
        lane stays on its solo sequential run, digest for digest."""
        calm = SimulationConfig(
            height=16, width=16, n_per_side=60, steps=30, seed=4
        ).with_model("aco")
        panicked = calm.replace(hooks=(PanicHook(trigger_step=10),))
        batch = BatchedEngine([calm, panicked], seeds=(4, 4))
        solos = [build_engine(c, "sequential") for c in (calm, panicked)]
        for t in range(calm.steps):
            batch.step()
            batch.validate_state()
            for lane, solo in enumerate(solos):
                solo.step()
                solo.validate_state()
                assert _lane_digest(batch, lane) == engine_state_digest(solo), (t, lane)
            if t >= 10:
                betas = {p.beta: table for p, _m, table in batch._param_groups}
                assert sorted(betas) == [2.0, 3.0]
                for beta, table in betas.items():
                    want = self._eta_beta(batch._dist_stack, beta).reshape(-1, 8)
                    assert np.array_equal(table, want)
        assert solos[1].model.params.beta == 3.0
