"""Engine base class: the four-stage synchronous step pipeline.

Every engine executes the paper's kernel sequence each step:

1. **initial calculation** (scan): per agent, find the empty neighbour
   cells and fill the agent's scan-matrix row (eq. 1 inputs / eq. 2
   numerators);
2. **tour construction** (select): per agent, decide the future cell —
   forward if the front cell is empty, else the model's probabilistic rule;
3. **agent movement**: per *empty cell*, gather the agents that target it,
   pick one winner uniformly (the scatter-to-gather transform), execute the
   moves, update tours, pheromones and crossing bookkeeping;
4. **support**: reset the scan matrix and the future coordinates.

Engines differ only in *how* the stages execute (Python loops, whole-array
NumPy, or per-tile NumPy with halos); the keyed RNG makes their outputs
bit-identical.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..agents import Population
from ..backend import resolve_backend
from ..config import SimulationConfig
from ..errors import EngineError
from ..grid import build_distance_tables, offsets_array, place_groups
from ..grid.environment import Environment
from ..models import PheromoneField, build_model
from ..rng import PhiloxKeyedRNG, Stream
from ..types import Group

__all__ = ["BaseEngine", "StepReport", "RunResult", "require_float64"]


def require_float64(backend) -> None:
    """Reject backends without exact double precision (shared engine guard).

    The eq. 1/eq. 2 decision arithmetic requires float64 for the
    bit-identity guarantee; engines call this once at construction.
    """
    if not backend.capabilities.supports_float64:
        raise EngineError(
            f"backend {backend.name!r} lacks float64 support; the "
            "eq. 1/eq. 2 decision arithmetic requires exact double "
            "precision for the bit-identity guarantee"
        )


def place_config(config: SimulationConfig, seed: int) -> Environment:
    """The host environment with both groups placed for ``(config, seed)``.

    Obstacles are carved out before agents are placed; placement draws
    only from ``Stream.PLACEMENT`` of a fresh keyed RNG, so the result is
    a pure function of the geometry and seed on any backend.
    """
    obstacle_mask = (
        config.obstacles.build(config.height, config.width)
        if config.obstacles is not None
        else None
    )
    return place_groups(
        config.height,
        config.width,
        config.n_per_side,
        config.band_rows,
        PhiloxKeyedRNG(int(seed)),
        obstacles=obstacle_mask,
    )

#: Euclidean cost of a move in each absolute gather direction
#: (NW, N, NE, W, E, SW, S, SE) — the constant-memory tour-increment table.
ABS_STEP_COSTS = (
    1.4142135623730951,
    1.0,
    1.4142135623730951,
    1.0,
    1.0,
    1.4142135623730951,
    1.0,
    1.4142135623730951,
)


@dataclass(frozen=True)
class StepReport:
    """Per-step outcome summary returned by :meth:`BaseEngine.step`."""

    step: int
    #: Agents that decided on a future cell in tour construction.
    decided: int
    #: Agents that actually moved (gather winners).
    moved: int
    #: Agents newly entering the opposite band this step.
    new_crossings: int


@dataclass
class RunResult:
    """Outcome of :meth:`BaseEngine.run`."""

    platform: str
    seed: int
    steps_run: int
    throughput_total: int
    throughput_top: int
    throughput_bottom: int
    moved_per_step: Optional[np.ndarray]
    crossings_per_step: Optional[np.ndarray]


class BaseEngine(abc.ABC):
    """Common state construction and the step/run template."""

    #: Platform tag, mirrors the paper's CPU/GPU split.
    platform: str = "base"

    def __init__(self, config: SimulationConfig, seed: Optional[int] = None) -> None:
        self.config = config
        self.seed = int(config.seed if seed is None else seed)
        #: Resolved array backend; every stage's array math routes through
        #: ``self.xp`` so the same kernels run on NumPy or CuPy.
        self.backend = resolve_backend(config.backend)
        require_float64(self.backend)
        self.xp = self.backend.xp
        self.rng = PhiloxKeyedRNG(self.seed, backend=self.backend)
        self.model = build_model(config.params, backend=self.backend)

        # Data preparation stage (paper IV.a): environment + index matrix,
        # property matrix, distance tables (constant memory), pheromone and
        # scan matrices. Obstacles (extension) are carved out before agents
        # are placed. Placement runs on the host with a fresh keyed RNG
        # (Stream.PLACEMENT draws depend only on the seed, so this matches
        # any backend bit for bit); the finished grid is then moved onto
        # the backend device — the data-upload step of the paper's
        # pipeline, and the last host round-trip before recording.
        self.env = place_config(config, self.seed).to_backend(self.backend)
        self.pop = Population.from_environment(self.env)
        self.dist = build_distance_tables(
            config.height,
            getattr(config.params, "scan_range", 1),
            backend=self.backend,
        )
        self.pher: Optional[PheromoneField] = (
            PheromoneField(config.height, config.width, config.params, self.backend)
            if self.model.uses_pheromone
            else None
        )
        #: Scan matrix: one row per agent plus the sentinel 0th row.
        self.scan = self.xp.zeros((self.pop.n_agents + 1, 8), dtype=np.float64)
        self.t = 0

        # Group membership is static; cache the per-group index vectors and
        # slot-offset arrays once.
        self._members: Dict[Group, np.ndarray] = {
            g: self.pop.members(g) for g in (Group.TOP, Group.BOTTOM)
        }
        self._offsets: Dict[Group, np.ndarray] = {
            g: self.backend.from_host(offsets_array(g))
            for g in (Group.TOP, Group.BOTTOM)
        }

        # Fused-group caches: the whole-array engines run scan/select as
        # ONE launch over the concatenated TOP-then-BOTTOM rows instead of
        # one pass per group. ``_fused_gslot`` maps each row to its
        # pheromone-stack slot (see models.pheromone.group_slot); the
        # ``(2, 8, 2)`` offset stack and ``(2, H, 8)`` distance stack make
        # every per-group table gather a single ``[gslot, ...]`` fancy
        # index. Row order within the concatenation is irrelevant: the
        # model kernels are row-independent and the RNG keys each row by
        # its agent index, so the fused pass is bit-identical to the
        # per-group passes (tests/test_backend_parity.py pins this).
        m_top, m_bot = self._members[Group.TOP], self._members[Group.BOTTOM]
        self._fused_idx = self.xp.concatenate([m_top, m_bot])
        self._fused_gslot = self.xp.concatenate(
            [
                self.xp.zeros(int(m_top.size), dtype=np.int64),
                self.xp.ones(int(m_bot.size), dtype=np.int64),
            ]
        )
        self._offsets_stack = self.xp.stack(
            [self._offsets[Group.TOP], self._offsets[Group.BOTTOM]]
        )
        self._dist_stack = self._build_dist_stack()

        # Heterogeneous-velocity extension (paper Section VII future work):
        # a keyed draw per agent marks the slow class; slow agents are
        # movement-eligible only every ``slow_period``-th step (staggered by
        # agent index so the crowd does not pulse in lockstep).
        self._slow_mask = self.xp.zeros(self.pop.n_agents + 1, dtype=bool)
        if config.slow_fraction > 0.0:
            lanes = self.xp.arange(self.pop.n_agents + 1, dtype=np.uint64)
            u = self.rng.uniform(Stream.SPEED_CLASS, 0, lanes)
            self._slow_mask = u < config.slow_fraction
            self._slow_mask[0] = False
        # The mask is static; the host flag spares a per-step device sync.
        self._any_slow = bool(self._slow_mask.any())

        # Step-hook schedule (components framework): hooks fire once,
        # before their firing step executes, in (fire_step, config-order)
        # order — a pure function of the step counter, so hooked runs are
        # bit-identical across engines.
        self._pending_hooks = sorted(
            ((hook.fire_step(), idx, hook) for idx, hook in enumerate(config.hooks)),
            key=lambda entry: entry[:2],
        )

    def _apply_due_hooks(self, t: int) -> None:
        """Fire every scheduled hook whose firing step has arrived."""
        while self._pending_hooks and self._pending_hooks[0][0] <= t:
            _, _, hook = self._pending_hooks.pop(0)
            hook.apply(self)

    # ------------------------------------------------------------------
    # Extensions
    # ------------------------------------------------------------------
    def eligible_mask(self, t: int) -> np.ndarray:
        """Movement eligibility per agent at step ``t`` (velocity classes).

        Fast agents are always eligible; slow agents only when
        ``(t + index) % slow_period == 0``. With ``slow_fraction = 0``
        (default) everyone is always eligible.
        """
        if not self._any_slow:
            return self.xp.ones(self.pop.n_agents + 1, dtype=bool)
        idx = self.xp.arange(self.pop.n_agents + 1, dtype=np.int64)
        on_beat = (t + idx) % self.config.slow_period == 0
        return ~self._slow_mask | on_beat

    def swap_model(self, params) -> None:
        """Swap the movement model mid-run (panic-alarm extension).

        The environment, populations and — when both models use it — the
        pheromone field carry over; switching to a pheromone-free model
        discards the field (a subsequent switch back starts from tau0).
        """
        from ..models import PheromoneField, build_model

        params.validate()
        model = build_model(params, backend=self.backend)
        if model.uses_pheromone:
            if self.pher is None:
                self.pher = PheromoneField(
                    self.config.height, self.config.width, params, self.backend
                )
            else:
                self.pher.params = params
        else:
            self.pher = None
        self.model = model
        new_range = getattr(params, "scan_range", 1)
        if new_range != self.dist[Group.TOP].scan_range:
            self.dist = build_distance_tables(
                self.config.height, new_range, backend=self.backend
            )
            self._dist_stack = self._build_dist_stack()
        self._on_model_swapped()

    def _build_dist_stack(self) -> np.ndarray:
        """Both groups' distance tables as one ``(2, H, 8)`` device stack."""
        return self.xp.stack(
            [self.dist[Group.TOP].table, self.dist[Group.BOTTOM].table]
        )

    def _on_model_swapped(self) -> None:
        """Hook for engines that cache model-derived lookups."""

    # ------------------------------------------------------------------
    # Template step
    # ------------------------------------------------------------------
    def step(self) -> StepReport:
        """Run one synchronous simulation step (all four stages)."""
        t = self.t
        if self._pending_hooks:
            self._apply_due_hooks(t)
        self._stage_scan(t)
        decided = self._stage_select(t)
        moved = self._stage_move(t)
        new_crossings = self.pop.record_crossings(
            self.config.height, self.config.cross_rows, t
        )
        self._stage_support(t)
        self.t += 1
        # ``decided``/``moved`` may arrive as 0-d device scalars (the
        # whole-array stages accumulate on-device); the report build is the
        # per-step recording boundary, so the host sync happens here, once.
        return StepReport(
            step=t,
            decided=int(decided),
            moved=int(moved),
            new_crossings=int(new_crossings),
        )

    def run(
        self,
        steps: Optional[int] = None,
        callback: Optional[Callable[["BaseEngine", StepReport], None]] = None,
        record_timeline: bool = True,
    ) -> RunResult:
        """Run ``steps`` steps (default: the configured budget).

        ``callback(engine, report)`` is invoked after every step; use it for
        metrics hooks and recorders. With ``record_timeline=True`` the
        per-step counters stream into preallocated ``(steps,)`` host
        buffers (the recording boundary); ``record_timeline=False`` skips
        the buffers entirely — the fast path for sweeps that only need
        totals.
        """
        n = self.config.steps if steps is None else int(steps)
        moved_tl = np.zeros(n, dtype=np.int64) if record_timeline else None
        cross_tl = np.zeros(n, dtype=np.int64) if record_timeline else None
        for i in range(n):
            report = self.step()
            if record_timeline:
                moved_tl[i] = report.moved
                cross_tl[i] = report.new_crossings
            if callback is not None:
                callback(self, report)
        return RunResult(
            platform=self.platform,
            seed=self.seed,
            steps_run=n,
            throughput_total=self.pop.crossed_count(),
            throughput_top=self.pop.crossed_count(Group.TOP),
            throughput_bottom=self.pop.crossed_count(Group.BOTTOM),
            moved_per_step=moved_tl,
            crossings_per_step=cross_tl,
        )

    # ------------------------------------------------------------------
    # Stage implementations supplied by subclasses
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _stage_scan(self, t: int) -> None:
        """Initial calculation phase: fill the scan matrix and FRONT CELL."""

    @abc.abstractmethod
    def _stage_select(self, t: int) -> int:
        """Tour construction: set FUTURE ROW/COLUMN; return #agents deciding."""

    @abc.abstractmethod
    def _stage_move(self, t: int) -> int:
        """Agent movement via scatter-to-gather; return #agents moved."""

    def _stage_support(self, t: int) -> None:
        """Support kernel: reset the scan matrix and future coordinates."""
        self.pop.reset_futures()
        self.scan.fill(0.0)

    # ------------------------------------------------------------------
    # Introspection / verification
    # ------------------------------------------------------------------
    def throughput(self) -> int:
        """Number of agents that have crossed so far."""
        return self.pop.crossed_count()

    def validate_state(self) -> None:
        """Cross-check env/pop invariants (used liberally in tests)."""
        self.env.validate()
        self.pop.validate_against(self.env)

    def state_equals(self, other: "BaseEngine") -> bool:
        """Exact state equality with another engine (any platform)."""
        if not self.env.equals(other.env):
            return False
        if not self.pop.equals(other.pop):
            return False
        if (self.pher is None) != (other.pher is None):
            return False
        if self.pher is not None and not self.pher.equals(other.pher):
            return False
        return True
