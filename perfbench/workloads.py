"""Benchmark workloads: scene configs and the CLI calls of one pipeline pass.

A workload's seed goes only into the scene config it generates (the
scene seed and the target's range bin); the program receives nothing
else. Every workload plants one strong mover on a cell of the detection
grid, so the correctness checks know where the map must peak.
"""

import os
import random
from dataclasses import dataclass, replace

# Doppler cells of the CLI's default detection grid (detect --grid-doppler).
GRID_DOPPLER = 64
# Target Doppler cell. 24/64 puts the spatial slope kappa * doppler =
# 3/16 on the default 16-point spatial grid, and keeps the mover well
# clear of the low-Doppler clutter subspace.
TARGET_CELL = 24

STAGES = ("simulate", "estimate", "filter", "detect")
CONFIG_NAME = "scene.cfg"


@dataclass(frozen=True)
class Workload:
    """One pipeline shape: scene keys, estimator ranks and pool width."""

    name: str
    why: str
    scene: tuple          # (key, value) pairs of the scene config
    ra: int
    rb: int
    threads: int
    amplitude: float
    multipass: bool = False

    @property
    def n_bins(self):
        return dict(self.scene)["n_bins"]

    def target(self, seed):
        """(bin, Doppler cell) of the mover planted for this seed."""
        rng = random.Random(f"{self.name}/{seed}")
        return rng.randrange(self.n_bins), TARGET_CELL

    def config_text(self, seed):
        bin_index, cell = self.target(seed)
        lines = [f"{key} = {value}" for key, value in self.scene]
        lines.append(f"seed = {seed}")
        lines.append(f"target = {bin_index} {cell / GRID_DOPPLER!r} "
                     f"{self.amplitude!r} 0.0")
        return "\n".join(lines) + "\n"

    def commands(self, pass_dir):
        """Argument lists of the four CLI calls of one pass, in order.

        The pass reads its scene config from, and writes every artifact
        to, pass_dir.
        """
        def at(name):
            return os.path.join(pass_dir, name)

        detect = ["detect", "--input", at("scene.kph"),
                  "--estimate", at("fit.kes"), "--output", at("map.csv"),
                  "--pgm", at("map.pgm")]
        if self.multipass:
            detect.append("--multipass")
        calls = [
            ["simulate", "--config", at(CONFIG_NAME),
             "--output", at("scene.kph")],
            ["estimate", "--input", at("scene.kph"), "--output", at("fit.kes"),
             "--ra", str(self.ra), "--rb", str(self.rb)],
            ["filter", "--input", at("scene.kph"), "--estimate", at("fit.kes"),
             "--output", at("filtered.kph")],
            detect,
        ]
        return [call + ["--threads", str(self.threads)] for call in calls]

    def tiny(self, **scene):
        """Same shape at a toy size, for smoke tests."""
        merged = dict(self.scene)
        merged.update(scene)
        return replace(self, scene=tuple(merged.items()))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "wide-q",
            "n << pq: a 604 MB covariance (5.7x L3) makes lrkron memory-bound "
            "and three 768x768 eigensolves are the linalg load; per-bin work "
            "is tiny",
            (("p", 8), ("q", 768), ("n_bins", 24), ("r_b", 4)),
            ra=1, rb=4, threads=1, amplitude=3.0,
        ),
        Workload(
            "many-bins",
            "10 000 small bins: per-bin Python loops, cube I/O and the "
            "2-thread WorkerPool dominate; the 256x256 covariance is cheap",
            (("p", 4), ("q", 64), ("n_bins", 10000), ("r_b", 3),
             ("texture", "inverse_gamma")),
            ra=1, rb=3, threads=2, amplitude=3.0,
        ),
        Workload(
            "multipass",
            "two passes, n >> pq: the dense covariance is a compute-bound "
            "GEMM, and only this workload runs the multipass layer",
            (("K", 2), ("p", 4), ("q", 128), ("n_bins", 4000), ("r_b", 3),
             ("change_fraction", 0.05)),
            ra=2, rb=3, threads=1, amplitude=3.0, multipass=True,
        ),
    )
}

# Toy sizes with the same shape, used by the smoke tests.
TINY = {
    "wide-q": WORKLOADS["wide-q"].tiny(p=3, q=48, n_bins=6),
    "many-bins": WORKLOADS["many-bins"].tiny(q=16, n_bins=300),
    "multipass": WORKLOADS["multipass"].tiny(q=16, n_bins=200),
}
