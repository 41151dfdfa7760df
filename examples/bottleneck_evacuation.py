#!/usr/bin/env python
"""Bottleneck crossing with a panic alarm — the Section VII extensions.

Two crowds cross a corridor split by a wall with a narrow gap (obstacles
extension). Halfway through, a panic alarm fires (crisis extension): the
waiting Least Effort crowd switches to always-move panic behaviour.
The space-time occupancy diagram shows the queue building at the wall and
draining after the alarm.

Run:  python examples/bottleneck_evacuation.py
"""

from repro import ObstacleSpec, SimulationConfig, build_engine
from repro.analysis import SpaceTimeRecorder, crossing_times, render_spacetime
from repro.components.hooks import PanicHook
from repro.io import render_grid


def run(panic_at=None, render_at=None):
    cfg = SimulationConfig(
        height=48,
        width=48,
        n_per_side=150,
        steps=400,
        seed=11,
        obstacles=ObstacleSpec("bottleneck", gap=8),
    )
    if panic_at is not None:
        cfg = cfg.replace(hooks=(PanicHook(trigger_step=panic_at),))
    eng = build_engine(cfg, "vectorized")
    spacetime = SpaceTimeRecorder(every=5)
    snapshot = {}

    def observe(engine, report):
        spacetime(engine, report)
        if render_at is not None and report.step == render_at:
            snapshot["grid"] = render_grid(engine.env.mat)

    eng.run(callback=observe, record_timeline=False)
    return eng, spacetime, snapshot


def main() -> None:
    print("corridor 48x48, wall with an 8-cell gap, 150 agents/side, "
          "LEM model\n")

    calm, st_calm, snap = run(panic_at=None, render_at=120)
    calm_ct = crossing_times(calm)
    print(f"without panic: {calm_ct.n_crossed}/{calm.pop.n_agents} crossed, "
          f"median crossing step {calm_ct.median:.0f}")

    panicked, st_panic, _ = run(panic_at=150)
    panic_ct = crossing_times(panicked)
    print(f"with alarm @150: {panic_ct.n_crossed}/{panicked.pop.n_agents} crossed, "
          f"median crossing step {panic_ct.median:.0f}")
    print()

    if "grid" in snap:
        print("queue at the wall, step 120 ('#' = wall):")
        print(snap["grid"])
        print()

    print("space-time occupancy WITHOUT the alarm (y = corridor rows):")
    print(render_spacetime(st_calm))
    print()
    print("space-time occupancy WITH the alarm at step 150:")
    print(render_spacetime(st_panic))
    print()
    gain = panic_ct.n_crossed - calm_ct.n_crossed
    print(f"panic alarm effect: {gain:+d} crossings "
          f"({gain / calm.pop.n_agents:+.0%} of the crowd)")


if __name__ == "__main__":
    main()
