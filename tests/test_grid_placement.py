"""Placement tests: random but confined, deterministic, paper-indexed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import Population
from repro.config import SimulationConfig, paper_config
from repro.engine.base import place_config
from repro.engine.simulation import build_engine
from repro.errors import ConfigurationError, PlacementError
from repro.experiments import FIG6A_SCENARIOS
from repro.experiments.scenarios import scenario_spec
from repro.grid import band_cells, place_groups
from repro.grid.placement import _choose_cells
from repro.io import engine_state_digest
from repro.rng import PhiloxKeyedRNG, Stream
from repro.types import Group


def _stable_argsort_choice(rng, height, width, group, band, n, blocked=None):
    """Reference selection: a stable argsort of the band's draws, first
    ``n``, as flat row-major cell ids in ascending order."""
    cells = band_cells(height, width, group, band)
    if blocked is not None:
        cells = cells[~blocked[cells[:, 0], cells[:, 1]]]
    flat = cells[:, 0] * width + cells[:, 1]
    u = rng.uniform(Stream.PLACEMENT, step=int(group), lane=flat)
    return flat[np.sort(np.argsort(u, kind="stable")[:n])]


class _TiedRNG:
    """Stub RNG whose placement uniforms take only ``levels`` values, so
    the threshold draw ties with many others."""

    def __init__(self, levels: int, salt: int) -> None:
        self.levels = levels
        self.salt = salt

    def uniform(self, stream, step, lane):
        lane = np.asarray(lane, dtype=np.uint64)
        mixed = (lane + np.uint64(self.salt)) * np.uint64(2654435761)
        return ((mixed >> np.uint64(7)) % np.uint64(self.levels) + 0.5) / self.levels


class TestBandCells:
    def test_top_band(self):
        cells = band_cells(20, 10, Group.TOP, 3)
        assert cells.shape == (30, 2)
        assert cells[:, 0].min() == 0 and cells[:, 0].max() == 2

    def test_bottom_band(self):
        cells = band_cells(20, 10, Group.BOTTOM, 3)
        assert cells[:, 0].min() == 17 and cells[:, 0].max() == 19

    def test_row_major_order(self):
        cells = band_cells(20, 4, Group.TOP, 2)
        lanes = cells[:, 0] * 4 + cells[:, 1]
        assert np.all(np.diff(lanes) > 0)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            band_cells(20, 10, Group.TOP, 0)
        with pytest.raises(ValueError):
            band_cells(20, 10, Group.TOP, 21)


class TestPlaceGroups:
    def test_counts_and_confinement(self, rng):
        env = place_groups(40, 20, 50, 5, rng)
        assert env.count(Group.TOP) == 50
        assert env.count(Group.BOTTOM) == 50
        top_rows = np.nonzero(env.mat == int(Group.TOP))[0]
        bottom_rows = np.nonzero(env.mat == int(Group.BOTTOM))[0]
        assert top_rows.max() < 5
        assert bottom_rows.min() >= 35

    def test_index_numbering_matches_paper(self, rng):
        """Top agents 1..n in reading order, bottom agents follow."""
        env = place_groups(20, 10, 15, 3, rng)
        top_idx = env.index[env.mat == int(Group.TOP)]
        bottom_idx = env.index[env.mat == int(Group.BOTTOM)]
        assert set(top_idx) == set(range(1, 16))
        assert set(bottom_idx) == set(range(16, 31))
        # Reading order: index increases along row-major occupied cells.
        rows, cols = np.nonzero(env.mat == int(Group.TOP))
        assert np.all(np.diff(env.index[rows, cols]) > 0)

    def test_deterministic_per_seed(self):
        a = place_groups(20, 10, 15, 3, PhiloxKeyedRNG(5))
        b = place_groups(20, 10, 15, 3, PhiloxKeyedRNG(5))
        assert a.equals(b)

    def test_seed_changes_layout(self):
        a = place_groups(20, 16, 30, 4, PhiloxKeyedRNG(5))
        b = place_groups(20, 16, 30, 4, PhiloxKeyedRNG(6))
        assert not a.equals(b)

    def test_full_band(self, rng):
        """Exactly filling the band must work."""
        env = place_groups(10, 6, 12, 2, rng)
        assert env.count(Group.TOP) == 12

    def test_overfull_band_raises(self, rng):
        with pytest.raises(PlacementError):
            place_groups(10, 6, 13, 2, rng)

    def test_validated_environment(self, rng):
        env = place_groups(20, 20, 40, 4, rng)
        env.validate()

    def test_placement_is_uniformish(self):
        """Each band cell should win roughly equally often across seeds."""
        hits = np.zeros((2, 8))
        for seed in range(300):
            env = place_groups(10, 8, 8, 2, PhiloxKeyedRNG(seed))
            hits += env.mat[:2] == int(Group.TOP)
        freq = hits / 300.0
        assert abs(freq.mean() - 0.5) < 0.05
        assert freq.std() < 0.12


class TestNoAgentStartsCrossed:
    """Placement never starts an agent inside its own crossing band, so
    only a move can make an agent cross and the whole-array engine tests
    crossings on each step's winners alone."""

    @pytest.mark.parametrize("scenario", FIG6A_SCENARIOS)
    def test_fig6a_placement(self, scenario):
        cfg = paper_config(scenario_spec(scenario).total_agents, seed=scenario)
        pop = Population.from_environment(place_config(cfg, cfg.seed))
        assert pop.record_crossings(cfg.height, cfg.cross_rows, step=0) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        height=st.integers(2, 60),
        n_per_side=st.integers(1, 200),
        init_rows=st.none() | st.integers(1, 40),
        cross_band=st.none() | st.integers(1, 40),
    )
    def test_every_valid_config_keeps_bands_apart(
        self, height, n_per_side, init_rows, cross_band
    ):
        """Config validation bounds both bands by half the grid, so each
        group's placement rows lie outside its crossing rows."""
        try:
            cfg = SimulationConfig(
                height=height, width=10, n_per_side=n_per_side,
                init_rows=init_rows, cross_band=cross_band,
            )
        except ConfigurationError:
            return
        top_lo, top_hi = Group.TOP.start_row_range(height, cfg.band_rows)
        bottom_lo, _ = Group.BOTTOM.start_row_range(height, cfg.band_rows)
        assert top_hi - 1 < height - cfg.cross_rows
        assert bottom_lo >= cfg.cross_rows


class TestThresholdSelection:
    """``_choose_cells`` picks the same cells as a stable argsort."""

    @settings(max_examples=150, deadline=None)
    @given(
        height=st.integers(2, 24),
        width=st.integers(1, 24),
        band_frac=st.floats(0.0, 1.0),
        n_frac=st.floats(0.0, 1.0),
        blocked_p=st.sampled_from([0.0, 0.2, 0.6]),
        levels=st.none() | st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_matches_stable_argsort(
        self, height, width, band_frac, n_frac, blocked_p, levels, seed
    ):
        band = 1 + int(band_frac * (height - 1))
        gen = np.random.default_rng(seed)
        blocked = gen.random((height, width)) < blocked_p if blocked_p else None
        rng = PhiloxKeyedRNG(seed) if levels is None else _TiedRNG(levels, seed)
        for group in (Group.TOP, Group.BOTTOM):
            lo, hi = group.start_row_range(height, band)
            free = (hi - lo) * width
            if blocked is not None:
                free -= int(blocked[lo:hi].sum())
            n = int(round(n_frac * free))
            got = _choose_cells(rng, height, width, group, band, n, blocked)
            want = _stable_argsort_choice(rng, height, width, group, band, n, blocked)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_every_n_under_heavy_ties(self, levels):
        rng = _TiedRNG(levels, salt=5)
        blocked = np.zeros((9, 7), dtype=bool)
        blocked[1, 2] = blocked[2, 5] = True
        for n in range(0, 3 * 7 - 2 + 1):
            got = _choose_cells(rng, 9, 7, Group.TOP, 3, n, blocked)
            want = _stable_argsort_choice(rng, 9, 7, Group.TOP, 3, n, blocked)
            np.testing.assert_array_equal(got, want)

    def test_no_agents_chooses_nothing(self, rng):
        got = _choose_cells(rng, 10, 6, Group.BOTTOM, 2, 0)
        assert got.shape == (0,)


class TestPaperScalePlacementDigests:
    """Engine state right after construction on the paper's 480x480 grid.

    Digests were captured with the stable-argsort placement. Seed 38 (LEM)
    and seeds 11 and 24 (ACO) each draw two equal uniforms in a band.
    """

    PINNED = {
        (2560, "lem", 1): "214b104db697b136",
        (2560, "lem", 38): "d1dc9a80ef6cf1d4",
        (51200, "aco", 11): "73d4408cf6bc0c90",
        (51200, "aco", 24): "61991651c09a2acd",
    }

    @pytest.mark.parametrize(("agents", "model", "seed"), sorted(PINNED))
    def test_constructed_state_digest(self, agents, model, seed):
        engine = build_engine(paper_config(agents, model, seed=seed))
        assert engine_state_digest(engine) == self.PINNED[(agents, model, seed)]
