"""Tile decomposition and halo-load mapping tests (Figures 2/3)."""

import numpy as np
import pytest

from repro import SimulationConfig, build_engine
from repro.cuda import (
    OUT_OF_GRID,
    TileDecomposition,
    halo_pass_count,
    halo_perimeter,
    halo_warp_schedule,
)
from repro.errors import LaunchConfigError
from repro.grid import build_distance_tables, offsets_array
from repro.models.pheromone import group_slot
from repro.types import CellState, Group


class TestDecomposition:
    def test_paper_grid(self):
        dec = TileDecomposition(480, 480)
        assert dec.n_tiles == 900
        assert dec.blocks_x == dec.blocks_y == 30

    def test_requires_multiples(self):
        with pytest.raises(LaunchConfigError):
            TileDecomposition(100, 480)

    def test_iteration_covers_grid(self):
        dec = TileDecomposition(32, 48)
        covered = np.zeros((32, 48), dtype=int)
        for tile in dec:
            covered[tile.interior] += 1
        assert np.all(covered == 1)

    def test_tile_lookup_bounds(self):
        dec = TileDecomposition(32, 32)
        with pytest.raises(IndexError):
            dec.tile(2, 0)


class TestSharedLoad:
    def test_interior_tile_has_full_halo(self):
        dec = TileDecomposition(48, 48)
        arr = np.arange(48 * 48, dtype=np.int32).reshape(48, 48)
        tile = dec.tile(1, 1)
        shared = tile.load_shared(arr, fill=OUT_OF_GRID)
        assert shared.shape == (18, 18)
        assert np.array_equal(shared[1:-1, 1:-1], arr[tile.interior])
        # Halo ring equals the surrounding global cells.
        assert np.array_equal(shared[0, 1:-1], arr[15, 16:32])
        assert np.array_equal(shared[1:-1, 0], arr[16:32, 15])

    def test_corner_tile_gets_fill(self):
        dec = TileDecomposition(32, 32)
        arr = np.ones((32, 32), dtype=np.int8)
        shared = dec.tile(0, 0).load_shared(arr, fill=OUT_OF_GRID)
        assert np.all(shared[0, :] == OUT_OF_GRID)
        assert np.all(shared[:, 0] == OUT_OF_GRID)
        assert np.all(shared[1:-1, 1:-1] == 1)

    def test_fill_preserves_dtype(self):
        dec = TileDecomposition(16, 16)
        arr = np.zeros((16, 16), dtype=np.float64)
        shared = dec.tile(0, 0).load_shared(arr, fill=0.5)
        assert shared.dtype == np.float64
        assert shared[0, 0] == 0.5


class TestHaloMapping:
    def test_perimeter_size(self):
        """2*18 + 2*16 = 68 halo cells for the paper's 16-cell tiles."""
        assert len(halo_perimeter(16)) == 68

    def test_perimeter_unique_and_on_border(self):
        cells = halo_perimeter(16)
        assert len(set(cells)) == 68
        for r, c in cells:
            assert r in (0, 17) or c in (0, 17)

    def test_three_passes(self):
        """ceil(68 / 32) = 3 warp passes (Figure 3's index mapping)."""
        assert halo_pass_count(16) == 3

    def test_schedule_covers_everything_once(self):
        schedule = halo_warp_schedule(16)
        assert len(schedule) == 68
        assert len({a.shared_pos for a in schedule}) == 68

    def test_lane_mapping(self):
        """Element h is loaded by lane h % 32 in pass h // 32."""
        schedule = halo_warp_schedule(16)
        for h, a in enumerate(schedule):
            assert a.lane == h % 32
            assert a.pass_index == h // 32

    def test_only_final_pass_has_idle_lanes(self):
        schedule = halo_warp_schedule(16)
        by_pass = {}
        for a in schedule:
            by_pass.setdefault(a.pass_index, set()).add(a.lane)
        assert by_pass[0] == set(range(32))
        assert by_pass[1] == set(range(32))
        assert len(by_pass[2]) == 68 - 64


#: A multi-tile, non-square grid that both tile edges divide.
LIVE_GRID = (32, 48)
LIVE_STEPS = 12


@pytest.fixture(scope="module")
def live_aco_engine():
    """A whole-array ACO engine some steps in: agents have left their
    start bands and every mover has deposited pheromone."""
    height, width = LIVE_GRID
    cfg = SimulationConfig(
        height=height, width=width, n_per_side=150, steps=LIVE_STEPS, seed=21
    ).with_model("aco")
    eng = build_engine(cfg, "vectorized")
    for _ in range(LIVE_STEPS):
        eng.step()
    return eng


def _whole_array_scan(eng):
    """Per agent id: the whole-array scan's neighbour reads and values.

    The gathers are the engine's own: every fused row's eight padded
    neighbour cells in ``mats``, ``index`` and the pheromone stack, where
    the one-cell halo stands in for the bounds test.
    """
    rows = eng.rows.reshape(-1).take(eng._slot_all)
    cols = eng.cols.reshape(-1).take(eng._slot_all)
    nbr = (rows * eng._wp + cols + eng._cell_base_all)[:, None] + eng._nbr_lin
    mats = eng._mats_p.reshape(-1).take(nbr)
    index = eng._index_p.reshape(-1).take(nbr)
    tau = eng.tau.padded.reshape(-1).take(nbr + eng._tau_base_all[:, None])
    candidates = mats == 0
    values = eng._scan_values(
        eng._rep_all, eng._dist_base_all + rows, candidates, tau
    )
    return {
        int(agent): (mats[i], index[i], tau[i], candidates[i], values[i])
        for i, agent in enumerate(eng._agent_all)
    }


def _tile_scan(eng, tile_size):
    """Per agent id: the same reads and values rebuilt tile by tile.

    Each tile sees only its ``(ts+2) x (ts+2)`` shared images of ``mat``,
    ``index`` and the pheromone stack (paper Sec. IV.a); the eq. 2 terms
    come from freshly built distance tables, not the engine's.
    """
    height, width = eng.config.height, eng.config.width
    tables = build_distance_tables(height, eng.config.params.scan_range)
    terms = {g: eng.model.slot_table(tables[g].table) for g in Group}
    found = []
    for tile in TileDecomposition(height, width, tile_size):
        mat = tile.load_shared(eng.env.mat, fill=OUT_OF_GRID)
        index = tile.load_shared(eng.env.index, fill=0)
        tau = tile.load_shared(eng.pher.stack, fill=0.0)
        for lr, lc in zip(*np.nonzero(mat[1:-1, 1:-1] > 0)):
            group = Group(int(mat[lr + 1, lc + 1]))
            off = offsets_array(group)
            nr, nc = lr + 1 + off[:, 0], lc + 1 + off[:, 1]
            candidates = mat[nr, nc] == 0
            tau_n = tau[group_slot(group), nr, nc]
            values = eng.model.scan_values(
                terms[group][tile.row0 + lr][None].copy(),
                candidates[None],
                tau_n[None],
            )[0]
            # Global coordinates of the neighbours, and which of them lie
            # in another tile or outside the grid.
            gr, gc = tile.row0 + nr - 1, tile.col0 + nc - 1
            halo = (nr == 0) | (nr == tile_size + 1) | (nc == 0) | (nc == tile_size + 1)
            outside = (gr < 0) | (gr >= height) | (gc < 0) | (gc >= width)
            found.append((
                int(index[lr + 1, lc + 1]),
                (mat[nr, nc], index[nr, nc], tau_n, candidates, values),
                halo & ~outside,
                outside,
            ))
    return found


class TestTileScanMatchesWholeGrid:
    """Sec. IV.a: a tile and its one-cell halo see what the whole grid sees.

    Every agent of a live ACO state, rebuilt from its tile's shared
    images, gets the same eight neighbours (cell label, agent index, τ),
    the same candidate flags and the same eq. 2 scan values as the
    whole-array scan of the engine that produced the state.
    """

    @pytest.mark.parametrize("tile_size", [8, 16])
    def test_tile_images_reproduce_the_whole_array_scan(
        self, live_aco_engine, tile_size
    ):
        whole = _whole_array_scan(live_aco_engine)
        found = _tile_scan(live_aco_engine, tile_size)
        # Every agent lives in exactly one tile interior.
        assert sorted(agent for agent, *_ in found) == sorted(whole)
        for agent, (mats, index, tau, candidates, values), _, outside in found:
            w_mats, w_index, w_tau, w_candidates, w_values = whole[agent]
            # Out-of-grid neighbours: the tile's fill sentinel where the
            # whole array reads its obstacle-labelled halo, so neither
            # side makes them candidates. (The whole array's τ halo is
            # evaporated and clamped with the field, so only in-grid τ
            # reads compare; a non-candidate's τ never reaches eq. 2.)
            assert (mats[outside] == OUT_OF_GRID).all()
            assert (w_mats[outside] == int(CellState.OBSTACLE)).all()
            assert not candidates[outside].any()
            inside = ~outside
            np.testing.assert_array_equal(mats[inside], w_mats[inside])
            np.testing.assert_array_equal(tau[inside], w_tau[inside])
            np.testing.assert_array_equal(index, w_index)
            np.testing.assert_array_equal(candidates, w_candidates)
            np.testing.assert_array_equal(values, w_values)

    @pytest.mark.parametrize("tile_size", [8, 16])
    def test_state_exercises_tile_and_grid_edges(self, live_aco_engine, tile_size):
        """The agents compared above include the cases the halo exists for."""
        found = _tile_scan(live_aco_engine, tile_size)
        at_grid_edge = sum(bool(outside.any()) for *_, outside in found)
        # Neighbours read from another tile's interior through the halo:
        # occupied ones, and ones carrying pheromone above the floor.
        tau_min = live_aco_engine.pher.params.tau_min
        halo_occupied = sum(
            bool((reads[0][halo] > 0).any()) for _, reads, halo, _ in found
        )
        halo_tau = sum(
            bool((reads[2][halo] > tau_min).any()) for _, reads, halo, _ in found
        )
        assert at_grid_edge > 0
        assert halo_occupied > 0
        assert halo_tau > 0
        assert any(values.max() > 0 for _, (*_, values), _, _ in found)
