"""Pheromone field tests (eq. 3-5 mechanics)."""

import numpy as np
import pytest

from repro.models import ACOParams, PheromoneField
from repro.models.pheromone import deposit_at, evaporate_field
from repro.types import Group


@pytest.fixture
def field():
    return PheromoneField(10, 10, ACOParams(rho=0.1, tau0=0.5, tau_min=0.01, tau_max=2.0))


class TestInitial:
    def test_initialised_to_tau0(self, field):
        for g in (Group.TOP, Group.BOTTOM):
            assert np.all(field.field(g) == 0.5)

    def test_groups_independent(self, field):
        field.deposit(Group.TOP, [1], [1], [0.3])
        assert field.value(Group.TOP, 1, 1) == pytest.approx(0.8)
        assert field.value(Group.BOTTOM, 1, 1) == 0.5


class TestEvaporation:
    def test_eq3_rate(self, field):
        field.evaporate()
        assert np.all(field.field(Group.TOP) == pytest.approx(0.45))

    def test_clamped_below(self):
        f = PheromoneField(4, 4, ACOParams(rho=0.99, tau0=0.02, tau_min=0.015))
        f.evaporate()
        assert np.all(f.field(Group.TOP) == 0.015)

    def test_monotone_decay_to_floor(self, field):
        for _ in range(500):
            field.evaporate()
        assert np.all(field.field(Group.BOTTOM) == pytest.approx(0.01))


class TestDeposit:
    def test_vector_deposit(self, field):
        field.deposit(Group.TOP, np.array([0, 1]), np.array([0, 1]), np.array([0.1, 0.2]))
        assert field.value(Group.TOP, 0, 0) == pytest.approx(0.6)
        assert field.value(Group.TOP, 1, 1) == pytest.approx(0.7)

    def test_duplicate_cells_accumulate(self, field):
        field.deposit(Group.TOP, [2, 2], [2, 2], [0.1, 0.1])
        assert field.value(Group.TOP, 2, 2) == pytest.approx(0.7)

    def test_clamped_above(self, field):
        field.deposit(Group.TOP, [0], [0], [100.0])
        assert field.value(Group.TOP, 0, 0) == 2.0

    def test_scalar_matches_vector(self, field):
        other = field.copy()
        field.deposit(Group.BOTTOM, [3], [4], [0.25])
        other.deposit_scalar(Group.BOTTOM, 3, 4, 0.25)
        assert field.equals(other)

    @pytest.mark.parametrize("per_cell_clamp", [False, True])
    def test_touched_clamp_matches_whole_field_clamp(self, per_cell_clamp):
        """Clamping only the deposited cells, duplicates included, gives
        the whole-field clamp bit for bit on an evaporated field."""
        params = ACOParams(rho=0.3, tau0=0.5, tau_min=0.01, tau_max=2.0)
        rng = np.random.default_rng(5)
        base = np.full(400, params.tau0)
        for _ in range(3):
            evaporate_field(base, 1.0 - params.rho, params.tau_min)
            base[rng.integers(0, 400, 50)] += rng.uniform(0.0, 1.5, 50)
            np.minimum(base, params.tau_max, out=base)
        cells = np.concatenate([rng.integers(0, 400, 300), [7, 7, 7, 9, 9]])
        amounts = rng.uniform(0.0, 1.2, cells.size)
        whole = base.copy()
        np.add.at(whole, cells, amounts)
        np.minimum(whole, params.tau_max, out=whole)
        touched = base.copy()
        tau_max = (
            np.full(cells.size, params.tau_max) if per_cell_clamp else params.tau_max
        )
        deposit_at(touched, cells, amounts, tau_max)
        assert np.array_equal(touched, whole)
        assert (whole == params.tau_max).sum() > 3  # the clamp bites


class TestCopyEquality:
    def test_copy_deep(self, field):
        dup = field.copy()
        dup.deposit(Group.TOP, [0], [0], [0.1])
        assert not field.equals(dup)

    def test_totals(self, field):
        totals = field.totals()
        assert totals[Group.TOP] == pytest.approx(0.5 * 100)


class TestHalo:
    """A halo-ringed field is an unpadded field plus a ring nobody reads."""

    PARAMS = ACOParams(rho=0.3, tau0=0.5, tau_min=0.01, tau_max=0.9)

    def _pair(self, n_lanes=None):
        # Big enough that a strided sum of the interior view would round
        # differently from a contiguous one.
        plain = PheromoneField(40, 70, self.PARAMS, n_lanes=n_lanes)
        haloed = PheromoneField(40, 70, self.PARAMS, n_lanes=n_lanes, halo=1)
        return plain, haloed

    @staticmethod
    def _deposit(field, gslot, lane, rows, cols, amounts):
        """deposit_stacked at the same cells, as flat indices of ``padded``."""
        h = field.halo
        lanes = () if field.padded.ndim == 3 else (lane,)
        cells = np.ravel_multi_index(
            (gslot, *lanes, rows + h, cols + h), field.padded.shape
        )
        field.deposit_stacked(cells, amounts)

    def _assert_same(self, plain, haloed):
        assert haloed.stack.shape == plain.stack.shape
        assert np.array_equal(haloed.stack, plain.stack)
        for g in (Group.TOP, Group.BOTTOM):
            assert np.array_equal(haloed.field(g), plain.field(g))
        assert haloed.totals() == plain.totals()

    @pytest.mark.parametrize("n_lanes", [None, 3])
    def test_interior_bit_identical_under_updates(self, n_lanes):
        plain, haloed = self._pair(n_lanes)
        assert haloed.padded.shape[-2:] == (42, 72)
        rng = np.random.default_rng(5)
        lane = np.zeros(12, dtype=np.int64) if n_lanes is None else rng.integers(0, 3, 12)
        for _ in range(6):
            plain.evaporate()
            haloed.evaporate()
            args = (
                rng.integers(0, 2, 12), lane, rng.integers(0, 40, 12),
                rng.integers(0, 70, 12), rng.random(12) / 3,
            )
            self._deposit(plain, *args)
            self._deposit(haloed, *args)
            self._assert_same(plain, haloed)
        if n_lanes is not None:
            for b in range(n_lanes):
                self._assert_same(plain.lane(b), haloed.lane(b))

    def test_lane_copy_and_equals(self):
        plain, haloed = self._pair(3)
        view = haloed.lane(1)
        assert np.shares_memory(view.padded, haloed.padded)
        view.deposit_scalar(Group.BOTTOM, 2, 3, 0.25)
        assert haloed.field(Group.BOTTOM)[1, 2, 3] == 0.75
        plain.lane(1).deposit_scalar(Group.BOTTOM, 2, 3, 0.25)
        self._assert_same(plain, haloed)
        dup = haloed.copy()
        assert dup.equals(haloed) and dup.equals(plain)
        assert not np.shares_memory(dup.padded, haloed.padded)
        self._deposit(dup, 0, 2, 4, 6, 0.1)
        assert not dup.equals(haloed)
        # The halo ring never enters a comparison or a total.
        haloed.padded[:, :, 0, :] = 123.0
        assert haloed.equals(plain)
        assert haloed.totals() == plain.totals()
