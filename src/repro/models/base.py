"""Movement-model interface shared by all engines.

A movement model answers two questions, mirroring the paper's kernel split:

* :meth:`MovementModel.scan_values` — the *initial calculation phase*: what
  goes into each agent's row of the scan matrix (eq. 1 inputs for the LEM,
  the eq. 2 numerator for the ACO), from the rows of the model's per-slot
  table (:meth:`MovementModel.slot_table`), which the engines build once
  from the distance tables;
* :meth:`MovementModel.select` — the *tour construction phase*: given the
  scan row and keyed randomness, which neighbour slot the agent targets.

Both methods are vectorized over rows and treat every row on its own: a
row carries its own distances, candidates and RNG lane, so one call may mix
TOP and BOTTOM agents and agents of different replication lanes (the
whole-array engine's fused rows). The whole-array engines call them only
on the rows that decide and can move: under forward priority (the paper's
modification) an agent whose forward cell is empty moves forward without
evaluating eq. 1 / eq. 2, and an agent with no empty neighbour stays put,
so neither reaches either method — ``select`` sees only rows with at least
one candidate. The engines write -1 for the second kind themselves, so
``select`` must return -1 on an all-false candidate row (and
``select_scalar`` on an all-zero scan row), as every built-in model does.
The sequential engine uses the scalar
API below instead; because the keyed RNG and every numeric operation are
order-independent, its results are bit-identical to the whole-array
engine's row calls (see ``tests/test_engine_equivalence``).

Slot indices here are 0-based (0 = forward); ``-1`` means "no move".
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..backend import resolve_backend
from ..rng import PhiloxKeyedRNG, Stream, categorical_from_cumsum
from .params import ModelParams

__all__ = ["MovementModel", "build_model"]

#: Tie-break ordering key of the slots out of contention.
_EXCLUDED_KEY = 1 << 30


def _byte_index(word: np.ndarray, xp) -> np.ndarray:
    """``j`` for each uint64 word ``1 << 8 * j``, -1 for a zero word.

    Bit ``8 * j`` converts exactly to the float64 ``2 ** (8 * j)``, whose
    exponent field is ``8 * j + 1023``; shifted right by 55 that is
    ``j + 127``, and a zero word gives ``-127``, clamped to -1. Words
    with several set bits give meaningless values, which the callers
    overwrite.
    """
    slot = word.astype(np.float64).view(np.int64)
    slot >>= 55
    slot -= 127
    xp.maximum(slot, -1, out=slot)
    return slot


def _row_cumsum(w: np.ndarray) -> np.ndarray:
    """Running sums along the rows of ``w``, in place: ``w[:, j] += w[:, j - 1]``.

    Each add has the two operands ``cumsum(axis=1)`` adds and IEEE
    addition commutes, so the sums are bit-identical; a few whole-column
    adds replace ``add.accumulate``'s loop over every 8-wide row.
    """
    for j in range(1, w.shape[1]):
        w[:, j] += w[:, j - 1]
    return w


class MovementModel(abc.ABC):
    """Abstract movement decision model for one agent group.

    ``backend`` selects the array namespace the vector kernels run on
    (host NumPy by default); the engines pass their resolved backend so
    scan/select math stays on-device end to end.
    """

    #: Registry name, matches ``ModelParams.model_name``.
    name: str = "base"
    #: Whether the engine must maintain pheromone fields for this model.
    uses_pheromone: bool = False

    def __init__(self, params: ModelParams, backend=None) -> None:
        params.validate()
        self.params = params
        self.backend = resolve_backend(backend)
        self.xp = self.backend.xp
        #: 1-based slot numbers, the tie-break keys before the flip bit.
        self._slot_numbers = self.backend.from_host(np.arange(1, 9, dtype=np.int64))

    def slot_table(self, dist: np.ndarray) -> np.ndarray:
        """The per-slot term :meth:`scan_values` reads, from distance tables.

        ``dist`` is any stack of :class:`repro.grid.DistanceTable` rows
        (``inf`` outside the grid); the result has its shape. The engines
        build it once, like the paper's constant-memory distance matrix,
        and again when a hook swaps the model, so the scan does no
        per-step work that depends only on (row, slot). The default is
        the distances themselves — the same array, so no extra memory.
        """
        return dist

    @abc.abstractmethod
    def scan_values(
        self,
        dist: np.ndarray,
        candidates: np.ndarray,
        tau: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Scan-matrix content for a batch of agents.

        Parameters
        ----------
        dist:
            ``(n, 8)`` rows of :meth:`slot_table` (for the built-in LEM,
            greedy and random models, the slot distances from the target).
        candidates:
            ``(n, 8)`` bool — slot is in bounds *and* empty.
        tau:
            ``(n, 8)`` pheromone at the slot cells (ACO only).

        Returns
        -------
        ``(n, 8)`` float64, zero at non-candidate slots. The engines pass
        a fresh float64 gather as ``dist`` and never read it again, so a
        model may write its result into it (the ACO does); a caller that
        still needs its array passes a copy.
        """

    @abc.abstractmethod
    def select(
        self,
        scan: np.ndarray,
        rng: PhiloxKeyedRNG,
        step: int,
        lanes: np.ndarray,
    ) -> np.ndarray:
        """Choose a 0-based slot per agent; ``-1`` where no candidate exists.

        ``lanes`` are the agents' 1-based property-matrix indices, used as
        RNG lanes so draws are independent of batch composition.
        ``rng.subset(rows)`` narrows the draws to some of the rows (see
        :meth:`tiebreak_slots`).
        """

    def tiebreak_slots(
        self, tied: np.ndarray, rng: PhiloxKeyedRNG, step: int, lanes: np.ndarray
    ) -> np.ndarray:
        """The chosen slot of each row among its ``tied`` slots, ``(n, 8) -> (n,)``.

        Slots tied on score are ordered by ``slot_number XOR b`` (1-based
        slot numbers) with a random bit ``b`` per agent and step. The only
        slot sets that can tie on distance are the left/right mirror pairs
        — 1-based (2, 3), (4, 5) and (7, 8) — each of which differs
        exactly in the lowest bit of the slot *number*, so flipping ``b``
        uniformly de-biases the left/right preference while staying
        deterministic for a given seed.

        A row with one tied slot takes it whatever ``b`` is, so only rows
        with two or more tied slots draw their ``TIEBREAK`` word, through
        ``rng.subset``; draws are keyed by lane, so skipping the others
        changes no drawn bit. A row with no tied slot gets -1. ``tied``
        must be a C-contiguous bool array: each row is then one 8-byte
        word, zero for no tied slot, ``1 << 8 * j`` for slot ``j`` alone,
        and non-zero after clearing its lowest set bit when two or more
        bytes are set.
        """
        xp = self.xp
        word = tied.view(np.uint64).reshape(-1)
        multi = xp.nonzero(word & (word - np.uint64(1)))[0]
        slot = _byte_index(word, xp)
        if multi.size:
            bits = rng.subset(multi).words(
                Stream.TIEBREAK, step, lanes.take(multi), scratch=True
            )[0] & np.uint32(1)
            keys = xp.where(
                tied.take(multi, axis=0),
                self._slot_numbers ^ bits.astype(np.int64)[:, None],
                _EXCLUDED_KEY,
            )
            slot[multi] = keys.argmin(axis=1)
        return slot

    def proportional_slots(
        self,
        weights: np.ndarray,
        rng: PhiloxKeyedRNG,
        stream: int,
        step: int,
        lanes: np.ndarray,
    ) -> np.ndarray:
        """Random-proportional pick over non-negative finite ``(n, 8)`` weights.

        Slot ``j`` wins with probability ``weights[j] / sum(weights)``,
        sampled by inverse CDF (:func:`~repro.rng.categorical_from_cumsum`)
        with one keyed uniform of ``stream`` per row. A row with no
        positive weight gets -1, and a row with exactly one takes that
        slot whatever the uniform is, so only rows with two or more
        positive weights draw, through ``rng.subset``; draws are keyed by
        lane, so skipping the others changes no drawn value. ``weights``
        must be C-contiguous: each row's ``weights > 0`` flags are then
        one 8-byte word, zero for no positive weight, ``1 << 8 * j`` for
        slot ``j`` alone, and non-zero after clearing its lowest set bit
        when two or more bytes are set.
        """
        xp = self.xp
        word = (weights > 0.0).view(np.uint64).reshape(-1)
        multi = xp.nonzero(word & (word - np.uint64(1)))[0]
        if multi.size == word.size:
            # Every row draws: no compaction.
            u = rng.uniform(stream, step, lanes)
            return categorical_from_cumsum(_row_cumsum(weights.copy()), u, xp=xp)
        slot = _byte_index(word, xp)
        if multi.size:
            u = rng.subset(multi).uniform(stream, step, lanes.take(multi))
            cumsum = _row_cumsum(weights.take(multi, axis=0))
            slot[multi] = categorical_from_cumsum(cumsum, u, xp=xp)
        return slot

    # ------------------------------------------------------------------
    # Scalar API for the sequential engine
    # ------------------------------------------------------------------
    # The sequential engine replays the identical decision arithmetic with
    # plain Python floats (IEEE-754 double, bit-compatible with NumPy's
    # float64 element-wise operations). Random variates are pre-drawn once
    # per step with the same keys the vectorized engine uses, so the two
    # platforms consume identical randomness.

    @abc.abstractmethod
    def scalar_prepare(self, rng: PhiloxKeyedRNG, step: int, n_agents: int) -> dict:
        """Pre-draw this step's per-agent variates for the scalar engine.

        Returns a dict of Python lists indexed by the 1-based agent index
        (entry 0 is the sentinel lane and unused).
        """

    @abc.abstractmethod
    def scan_value_scalar(self, dist: float, tau: float) -> float:
        """Scan-matrix entry for one *candidate* slot (scalar path)."""

    @abc.abstractmethod
    def select_scalar(self, scan_row, agent: int, variates: dict) -> int:
        """Scalar counterpart of :meth:`select` for one agent.

        ``scan_row`` is the agent's 8-entry scan row as a Python list;
        returns the 0-based slot or -1.
        """


def build_model(params: ModelParams, backend=None) -> MovementModel:
    """Instantiate the movement model registered for a parameter bundle.

    The bundle's ``model_name`` is the registry key
    (:data:`repro.components.models.MODEL_CLASSES`); unknown names raise
    :class:`~repro.errors.ConfigurationError` listing the registered
    models, so a bad config exits the CLI with the uniform code 2
    instead of a traceback. ``backend`` (name or
    :class:`~repro.backend.ArrayBackend`) selects the array namespace
    the model's vector kernels execute on.
    """
    # Imported here to avoid import cycles (the implementations use the
    # helpers defined above); importing them runs their @register_model
    # decorators, so the built-ins are registered before lookup.
    from . import aco, lem, policies  # noqa: F401
    from ..components.models import resolve_model_class

    cls = resolve_model_class(getattr(params, "model_name", ""))
    return cls(params, backend=backend)
