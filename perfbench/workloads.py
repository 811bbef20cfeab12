"""The benchmark's workloads: the CLI calls that make up one pass of each.

A pass is the unit that is timed and checked. Sweep workloads run one fixed
grid per pass and ignore the seed; ``point-m9`` draws its points from the
seed, so every seed gives its own (reproducible) pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The seed whose outputs are stored under reference/ and compared record by
# record; every other seed is checked against the invariants only.
DEFAULT_SEED = 0

# The paper's temperatures, used by the m=3 map and by the seeded points.
PAPER_TEMPS = (0.01, 0.1, 1.0, 5.0)


@dataclass(frozen=True)
class Call:
    """One CLI invocation (without --output) and the records it must write."""

    argv: tuple[str, ...]
    fmt: str
    m: int
    keys: tuple[tuple[float, float, float], ...]  # (epsilon, eta, t) in output order


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    calls: tuple[Call, ...]
    setup: tuple[str, ...]  # the first one-cell call a fresh interpreter makes
    reference: str | None  # file under reference/ holding one pass at DEFAULT_SEED

    @property
    def records(self) -> int:
        return sum(len(call.keys) for call in self.calls)


def _axis(text: str) -> list[float]:
    """The points numpy.linspace gives for the CLI's MIN:MAX:COUNT syntax."""
    lo, hi, count = text.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count - 1)] + [hi]


def sweep_call(m: int, epsilon_range: str, eta_range: str, temps: str) -> Call:
    argv = ("sweep", "--m", str(m), "--epsilon-range", epsilon_range,
            "--eta-range", eta_range, "--temps", temps)
    keys = tuple((eps, eta, t)
                 for t in sorted(float(v) for v in temps.split(","))
                 for eta in _axis(eta_range)
                 for eps in _axis(epsilon_range))
    return Call(argv=argv, fmt="csv", m=m, keys=keys)


def point_call(m: int, epsilon: str, eta: str, t: str) -> Call:
    argv = ("negativity", "--m", str(m), "--epsilon", epsilon, "--eta", eta,
            "--t", t, "--format", "json")
    return Call(argv=argv, fmt="json", m=m, keys=((float(epsilon), float(eta), float(t)),))


def sweep_setup(m: int) -> tuple[str, ...]:
    return sweep_call(m, "1.3:1.3:1", "0.7:0.7:1", "0.1").argv


def point_setup(m: int) -> tuple[str, ...]:
    return point_call(m, "1.3", "0.7", "0.1").argv


def seeded_points(m: int, seed: int) -> tuple[Call, ...]:
    """One cell at t = 0 and one at each paper temperature, on the paper's 0..10 axes.

    Every seed gets the same temperatures, so seeds differ only in where the
    cells fall.
    """
    rng = random.Random(seed)
    return tuple(point_call(m, f"{rng.uniform(0, 10):.4f}", f"{rng.uniform(0, 10):.4f}", repr(t))
                 for t in (0.0, *PAPER_TEMPS))


def build(name: str, seed: int) -> Workload:
    if name == "sweep-m3":
        # the paper's reference map and the README example
        call = sweep_call(3, "0:10:41", "0:10:41", "0.01,0.1,1,5")
        return Workload(name, 3, (call,), sweep_setup(3), "sweep-m3.csv.gz")
    if name == "sweep-m8":
        # m at the sweep ceiling, reference temperatures, a 4x4 grid around
        # the eps = eta = 1 crossing and into the eta > omega plateau
        call = sweep_call(8, "0.5:2:4", "0.5:2:4", "0.1,1")
        return Workload(name, 8, (call,), sweep_setup(8), "sweep-m8.csv.gz")
    if name == "point-m9":
        reference = "point-m9.jsonl.gz" if seed == DEFAULT_SEED else None
        return Workload(name, 9, seeded_points(9, seed), point_setup(9), reference)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep-m3", "sweep-m8", "point-m9")
