"""Benchmark workloads: fixed pipeline inputs, parametrized by a workload seed.

The workload seed is the clustering (and partition) seed of every workload
and, on the pore lattice, also the network seed.  Only the ``ROTATION``
seeds and ``HELD_OUT`` have recorded reference errors; ``--seed n`` of the
command selects rotation seed ``n % len(ROTATION)``.
"""

from __future__ import annotations

from dataclasses import dataclass

# The five perforations of the acceptance suite (tests/test_acceptance.py).
HOLES = "0.2,0.2,0.06;0.8,0.2,0.06;0.3,0.75,0.06;0.7,0.8,0.06;0.15,0.55,0.05"

ROTATION = tuple(range(10))
HELD_OUT = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str  # "fem" (steady) or "pore" (transient)
    size: int  # nx = ny
    n_subdomains: int
    m: int
    delta_h: tuple[float, ...]  # oversampling radii, as in the sweep config
    methods: tuple[str, str]  # (CF-family method, MC-family method)
    tau: float | None = None
    n_steps: int | None = None

    def problem(self, seed: int) -> dict:
        """The ``[problem]`` section handed to ``experiments.build_problem``."""
        p = {"family": self.family, "nx": str(self.size), "ny": str(self.size)}
        if self.family == "fem":
            p.update(contrast="1e4", holes=HOLES)
        else:
            p.update(network_seed=str(seed))
        return p


WORKLOADS = {w.name: w for w in (
    Workload("fem-loc-160",
             "localized CF/MC at the target size: O(N*n) per-subdomain work and "
             "dense index maps dominate, no global code runs",
             "fem", 160, 400, 8, (0.1,), ("cf-loc", "mc-loc")),
    Workload("fem-glo-80",
             "global CF/MC: sparse triple products on dense-as-CSR P dominate, "
             "partition and clustering are cheap",
             "fem", 80, 100, 8, (), ("cf-glo", "mc-glo")),
    Workload("pore-transient-64",
             "backward Euler on a pore lattice: 2000 fine reference steps in "
             "set-up and 2000 coarse steps per row",
             "pore", 64, 25, 16, (4.0,), ("cf-loc", "mc-glo"),
             tau=0.05, n_steps=2000),
)}
