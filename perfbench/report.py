"""Metric records, percentiles and the benchmark's printed report."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["Metrics", "Outcome", "percentile", "median"]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class Metrics:
    """Ordered ``name -> (value, unit, samples)`` collection."""

    def __init__(self) -> None:
        self._items: Dict[str, tuple] = {}

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self._items[name] = (float(value), unit, int(samples))

    def timing(self, template: str, values_s: Sequence[float], unit: str, scale: float) -> None:
        """Median and 90th percentile of ``values_s`` times ``scale``.

        ``template`` names them with ``{}`` standing for ``p50``/``p90``.
        """
        xs = [v * scale for v in values_s]
        self.add(template.format("p50"), median(xs), unit, len(xs))
        self.add(template.format("p90"), percentile(xs, 90.0), unit, len(xs))

    def conform(self, catalog: Sequence[tuple], fill_missing: bool) -> "Metrics":
        """The metrics in ``catalog`` order (``[(name, unit)]``).

        A catalog name that was not measured is an error, or 0 with
        ``fill_missing``; a measured name outside the catalog is dropped.
        """
        out = Metrics()
        for name, unit in catalog:
            if name in self._items:
                out._items[name] = self._items[name]
            elif fill_missing:
                out._items[name] = (0.0, unit, 0)
            else:
                raise KeyError(f"metric {name!r} was not measured")
        return out

    def as_json(self) -> dict:
        return {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in self._items.items()
        }

    def lines(self) -> List[str]:
        return [
            f"  {name:<34} {value:>16.6g} {unit:<14} n={samples}"
            for name, (value, unit, samples) in self._items.items()
        ]


@dataclass
class Outcome:
    """What one workload run measured and how its correctness checks went."""

    metrics: Metrics
    attempted: int
    failed: int
    notes: List[str] = field(default_factory=list)

    @property
    def failed_fraction(self) -> float:
        return self.failed / max(1, self.attempted)

    def emit(self, workload: str, seed: int, trace: int, out=sys.stdout) -> None:
        """Print the readable table, then the one-line JSON result last."""
        mode = "per-layer (traced)" if trace else "end-to-end (untraced)"
        print(f"workload {workload}  seed {seed}  {mode}", file=out)
        for line in self.metrics.lines():
            print(line, file=out)
        print(
            f"  failed_fraction {self.failed_fraction:.4f} "
            f"({self.failed} of {self.attempted} jobs and checks)",
            file=out,
        )
        for note in self.notes:
            print(f"  note: {note}", file=out)
        print(
            json.dumps(
                {
                    "correct": self.failed == 0,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": self.metrics.as_json(),
                }
            ),
            file=out,
            flush=True,
        )
