"""Workload definitions.  Each one turns a seed into mmpsim's inputs: a
config text, plus, for the run() workloads, a shift of the initial state.

The two run() workloads keep the default seed's random realization and
move it on the torus by a seed-chosen shift of whole grid points.  The
dynamics is translation-equivariant, so every seed does the same work (the
CFL step count of zk32_cfl otherwise varies 30-41 with the realization)
and ends at the same norms, which the reference check then tests for every
seed.  cli_main takes only a config, so pert64_cli's seed draws a new
realization (init.seed); its step count does not depend on it.

pert32      perturbation variant at 32^3 with the acceptance fixture's data,
            to t=2 through run().  The explicit RHS does most of the work and
            dt never changes, so any per-dt cache applies.
zk32_cfl    zero-kinematic variant at 32^3 with large data (max|u| ~ 10), to
            t=0.5 through run().  The advective CFL bound sets a new dt on
            every step, so any per-dt cache is bypassed.
pert64_cli  `mmpsim run --config` at 64^3 through cli_main, a record and a
            checkpoint every step to t=0.1, then `--resume` from the first
            checkpoint into a fresh directory.  Diagnostics, checkpoint and
            CSV I/O, config parsing and memory take a visible share here, and
            its arrays exceed the L2 cache.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

DEFAULT_SEED = 2024

# The acceptance fixture's background vector: 0.9 (1, sqrt 2, sqrt 3) / sqrt 6.
ALPHA = tuple(0.9 * a / math.sqrt(6.0)
              for a in (1.0, math.sqrt(2.0), math.sqrt(3.0)))

_PERT = {
    "system": "perturbation",
    "params.chi": 1.0,
    "params.eta": 1.0,
    "alpha": ",".join(repr(a) for a in ALPHA),
    "diophantine.r": 2.5,
    "init.epsilon": 0.01,
    "init.sobolev_index": 21.0,
    "time.dt": 0.05,
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "run": through run(); "cli": through cli_main
    keys: dict           # config keys, less init.seed and output.dir
    nominal_s: float     # one repetition's wall time on a 2-core x86 box

    @property
    def n(self) -> int:
        return int(self.keys["grid.n"])

    def init_seed(self, seed: int) -> int:
        """The seed of the random realization."""
        return DEFAULT_SEED if self.kind == "run" else seed

    def shift(self, seed: int) -> tuple[int, int, int] | None:
        """Grid points by which the realization is moved, or None."""
        if self.kind != "run":
            return None
        rng = random.Random(seed)
        return tuple(rng.randrange(self.n) for _ in range(3))

    def config_text(self, seed: int, output_dir: str) -> str:
        lines = [f"{k} = {v}" for k, v in self.keys.items()]
        lines += [f"init.seed = {self.init_seed(seed)}",
                  f"output.dir = {output_dir}"]
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        "pert32", "run",
        {"grid.n": 32, **_PERT, "time.t_end": 2.0,
         "time.record_interval": 0.25},
        17.0),
    Workload(
        "zk32_cfl", "run",
        {"grid.n": 32, "system": "zero-kinematic", "params.chi": 1.0,
         "params.eta": 1.0, "params.nu": 1.0, "init.epsilon": 2000.0,
         "init.sobolev_index": 3.0, "time.dt": 0.05, "time.t_end": 0.5,
         "time.record_interval": 0.25},
        13.0),
    Workload(
        "pert64_cli", "cli",
        {"grid.n": 64, **_PERT, "time.t_end": 0.1,
         "time.record_interval": 0.05,
         "output.checkpoint_interval": 0.05},
        20.0),
)}


def smoke(w: Workload) -> Workload:
    """The same definition at n=16 for two base steps, for the
    benchmark's own tests."""
    dt = w.keys["time.dt"]
    keys = {**w.keys, "grid.n": 16, "time.t_end": 2 * dt,
            "time.record_interval": dt}
    return replace(w, keys=keys, nominal_s=1.0)
