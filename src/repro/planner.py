"""Shared lane planner: pack independent runs into batched launches.

:class:`repro.exec.scheduler.BatchScheduler` is the one caller: it packs
whatever requests are queued when a service tick fires (online
micro-batching) and the known grid of a
:class:`repro.experiments.sweep.SweepRunner` alike. The problem is the
same either way — given a list of runs, decide which share a
:class:`~repro.engine.batched.BatchedEngine` launch — and the grouping
rules are:

* runs sharing a **batch key** differ only in their seed and can stack
  into same-shape lanes (chunked at ``max_lanes``; a seed repeated within
  a key demotes only the repeats to solo runs, because the batched engine
  requires distinct ``(config, seed)`` lanes);
* with ``pad_lanes``, runs sharing a **pad key** (same movement-model
  parameters, step budget, engine and backend — what
  :class:`~repro.engine.batched.BatchedEngine` requires lanes to agree
  on) additionally fuse into *padded* heterogeneous batches, packed
  largest-population-first until the padded-slot fraction would exceed
  the waste ceiling (explicit, or derived from the cost model's
  dispatch-overhead estimate via :func:`derived_pad_waste`).

The planner is deliberately index-based: the caller describes each run
as a :class:`LaneRequest` and gets back :class:`PlannedBatch` groups of
request indices, so the planner knows nothing of jobs or sweep points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .cuda.costmodel import dispatch_overhead_fraction
from .errors import ExperimentError

__all__ = [
    "BATCHABLE_ENGINES",
    "MIN_PAD_WASTE",
    "MAX_PAD_WASTE_CEILING",
    "derived_pad_waste",
    "LaneRequest",
    "PlannedBatch",
    "plan_lanes",
    "validate_plan_parameters",
]

#: Engines whose runs can share a batched launch. The sequential engine is
#: scalar by construction.
BATCHABLE_ENGINES = ("vectorized",)

#: Clamp bounds on the derived padded-slot ceiling: never pack so tightly
#: that padding is effectively forbidden (floor) and never accept a batch
#: that is mostly dead slots (ceiling).
MIN_PAD_WASTE = 0.05
MAX_PAD_WASTE_CEILING = 0.5


def derived_pad_waste(config, max_lanes: int) -> float:
    """Default ``max_pad_waste`` from the cost model's dispatch overhead.

    Fusing ``L`` lanes into one padded batch removes ``(L - 1) / L`` of
    the per-lane kernel-dispatch overhead, but drags the padded dead slots
    through every whole-array stage. With ``f`` the modelled
    dispatch-overhead fraction of one step at this scenario's scale
    (:func:`repro.cuda.costmodel.dispatch_overhead_fraction`), dead work
    breaks even with the saved dispatch at a padded-slot fraction of
    ``(L - 1) / L * f / (1 - f)`` — beyond that the padding costs more
    than the amortisation saves. Tiny dispatch-dominated scenarios
    therefore get a loose bound (clamped at 0.5) and paper-scale
    compute-dominated ones a tight bound (clamped at 0.05).
    """
    f = dispatch_overhead_fraction(
        config.total_agents, config.model_name, (config.height, config.width)
    )
    f = min(f, 0.99)
    lanes = max(2, int(max_lanes))
    bound = (lanes - 1) / lanes * f / (1.0 - f)
    return min(MAX_PAD_WASTE_CEILING, max(MIN_PAD_WASTE, bound))


def validate_plan_parameters(
    max_lanes: int, max_pad_waste: Optional[float]
) -> None:
    """Shared argument validation for planner consumers."""
    if max_lanes < 1:
        raise ExperimentError(f"max_lanes must be >= 1, got {max_lanes}")
    if max_pad_waste is not None and not (0.0 <= max_pad_waste < 1.0):
        raise ExperimentError(
            f"max_pad_waste must be in [0, 1), got {max_pad_waste}"
        )


@dataclass(frozen=True)
class LaneRequest:
    """One run to be planned, described opaquely.

    ``index`` is the caller's handle (position in its own request list);
    the planner only ever returns indices. ``batch_key`` and ``pad_key``
    are opaque hashables with the semantics above. ``agents`` is the real
    agent count (padding accounting) and ``config`` the run's resolved
    :class:`~repro.config.SimulationConfig` — only consulted to derive a
    waste bound, so callers planning without ``pad_lanes`` may omit both.
    ``priority`` (higher first) makes padded packing anchor urgent lanes
    before fill lanes: a high-priority run is never the one squeezed out
    of a batch by the waste bound.
    """

    index: int
    seed: int
    engine: str
    batch_key: Tuple
    pad_key: Tuple
    agents: int = 0
    config: object = None
    priority: int = 0


@dataclass(frozen=True)
class PlannedBatch:
    """One planned launch: lane order as caller request indices.

    ``batched`` — more than one lane, run through the batched engine.
    ``mixed`` — lanes span different batch keys (heterogeneous configs),
    so the executor must pass a per-lane config list for padding.
    """

    indices: Tuple[int, ...]
    batched: bool
    mixed: bool = False

    @property
    def n_lanes(self) -> int:
        return len(self.indices)


def plan_lanes(
    requests: Sequence[LaneRequest],
    max_lanes: int,
    pad_lanes: bool = False,
    max_pad_waste: Optional[float] = None,
) -> List[PlannedBatch]:
    """Group requests into batched / padded / solo launches.

    Returns one :class:`PlannedBatch` per launch; every request index
    appears in exactly one batch. Batch order is deterministic: batch-key
    groups in first-occurrence order (chunks, then demoted duplicates),
    followed by padded pools in first-occurrence order.
    """
    validate_plan_parameters(max_lanes, max_pad_waste)

    groups: Dict[Tuple, List[LaneRequest]] = {}
    order: List[Tuple] = []
    for req in requests:
        if req.batch_key not in groups:
            groups[req.batch_key] = []
            order.append(req.batch_key)
        groups[req.batch_key].append(req)

    batches: List[PlannedBatch] = []
    pools: Dict[Tuple, List[LaneRequest]] = {}
    pool_order: List[Tuple] = []

    def solo(req: LaneRequest) -> PlannedBatch:
        return PlannedBatch(indices=(req.index,), batched=False)

    for key in order:
        members = groups[key]
        eligible = members[0].engine in BATCHABLE_ENGINES and max_lanes > 1
        if not eligible:
            batches.extend(solo(m) for m in members)
            continue
        # First occurrence of each seed is batchable; repeats are not.
        seen: set = set()
        firsts: List[LaneRequest] = []
        dups: List[LaneRequest] = []
        for member in members:
            if member.seed in seen:
                dups.append(member)
            else:
                seen.add(member.seed)
                firsts.append(member)
        if pad_lanes:
            pad_key = members[0].pad_key
            if pad_key not in pools:
                pools[pad_key] = []
                pool_order.append(pad_key)
            pools[pad_key].extend(firsts)
        elif len(firsts) >= 2:
            for start in range(0, len(firsts), max_lanes):
                chunk = firsts[start : start + max_lanes]
                batches.append(
                    PlannedBatch(
                        indices=tuple(r.index for r in chunk),
                        batched=len(chunk) > 1,
                    )
                )
        else:
            dups = firsts + dups
        batches.extend(solo(m) for m in dups)

    for pad_key in pool_order:
        batches.extend(
            _pack_padded(pools[pad_key], max_lanes, max_pad_waste)
        )
    return batches


def _pack_padded(
    members: List[LaneRequest],
    max_lanes: int,
    max_pad_waste: Optional[float],
) -> List[PlannedBatch]:
    """Pack one pad-key pool into padded batches under the waste bound.

    Lanes sort priority-first, then largest-population-first (stable by
    request order), so high-priority lanes anchor the earliest chunks
    and each greedy chunk pads against its own first lane; the chunk
    closes when it is full or admitting the next lane would push the
    padded agent-slot fraction past the waste ceiling. An explicit
    ``max_pad_waste`` wins; otherwise the ceiling derives from the cost
    model's dispatch-overhead estimate at the pool's largest scenario
    (:func:`derived_pad_waste`).
    """
    sized = sorted(members, key=lambda r: (-r.priority, -r.agents, r.index))

    waste_bound = max_pad_waste
    if waste_bound is None:
        largest = max(sized, key=lambda r: r.agents)
        if largest.config is None:
            raise ExperimentError(
                "deriving a pad-waste bound needs the largest lane's config; "
                "pass max_pad_waste explicitly or set LaneRequest.config"
            )
        waste_bound = derived_pad_waste(largest.config, max_lanes)

    batches: List[PlannedBatch] = []

    def emit(chunk: List[LaneRequest]) -> None:
        if not chunk:
            return
        homogeneous = all(r.batch_key == chunk[0].batch_key for r in chunk)
        batches.append(
            PlannedBatch(
                indices=tuple(r.index for r in chunk),
                batched=len(chunk) > 1,
                mixed=not homogeneous,
            )
        )

    chunk: List[LaneRequest] = []
    filled = 0
    slot = 0  # pad target: the chunk's largest lane (priority ordering
    # means that is not necessarily the chunk's *first* lane)
    for req in sized:
        if chunk:
            new_slot = max(slot, req.agents)
            waste = 1.0 - (filled + req.agents) / ((len(chunk) + 1) * new_slot)
            if len(chunk) >= max_lanes or waste > waste_bound:
                emit(chunk)
                chunk = []
                filled = 0
                slot = 0
        chunk.append(req)
        filled += req.agents
        slot = max(slot, req.agents)
    emit(chunk)
    return batches
