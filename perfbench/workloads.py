"""The benchmark's workloads: which runs of the co-design loop one pass makes.

A pass is the unit the benchmark times. Its runs all use the HEURISTIC
backend and the default MIN_POWER objective (min_speedup 1.5); the run
seeds are derived from the benchmark's --seed, disjoint between seeds, so a
claim can be re-checked on a seed nobody tuned against. Why each workload
exists, and the property its traced run must show, are recorded in
BENCHMARK.json and perfbench/layers.json.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    kernels: tuple[str, ...]
    iterations: int
    # Run seeds per pass; --seed s uses s*seeds_per_pass ... (s+1)*seeds_per_pass - 1.
    # More seeds average out how much a single seed's search costs.
    seeds_per_pass: int = 1
    # Build each run one iteration per run(..., resume=True) call, and check
    # the result byte-equals an uninterrupted run of the same config.
    chain: bool = False
    # Every run must end without a feasible design.
    expect_infeasible: bool = False
    # Further RunConfig keys, as accepted by RunConfig.from_json.
    config: dict = field(default_factory=dict)

    def run_configs(self, seed: int) -> list[dict]:
        """RunConfig JSON for each run of one pass, in run order."""
        base = seed * self.seeds_per_pass
        return [
            {"kernel": k, "iterations": self.iterations, "seed": base + j, **self.config}
            for j in range(self.seeds_per_pass)
            for k in self.kernels
        ]

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(data: dict) -> "Workload":
        return Workload(**{**data, "kernels": tuple(data["kernels"])})


WORKLOADS = {
    w.name: w
    for w in (
        # The mapper's DFS does nearly all the work, much of it in searches
        # that fail (CONFIG_MEM_OVERFLOW). Loop-overhead changes should not
        # move it. One iteration: the first, stratified one costs about the
        # same on every seed; at two iterations one seed in ten cost 1.6x
        # the median.
        Workload("mapper_bound", kernels=("fir", "ml_mix"), iterations=1, seeds_per_pass=1),
        # Many cheap runs: the mapper does under half the work, the rest is
        # the loop itself (history appends, proposals, transforms, selection).
        Workload("loop_bound", kernels=("spmv", "relu", "fft", "hpc_mix"), iterations=100, seeds_per_pass=3),
        # The same kernels built up one iteration per resume: reading and
        # replaying history dominates, and the map cache starts empty each time.
        Workload("resume_chain", kernels=("spmv", "relu", "fft", "hpc_mix"), iterations=60, chain=True),
        # latnrm's recurrence makes every design miss the speedup floor
        # (RecMII(u) = 9u gives speedup <= 13/9 < 1.5), so the mapper searches
        # to exhaustion. Two drafts per run keep a pass short; the third
        # stratified draft alone costs ~10 s.
        Workload(
            "infeasible",
            kernels=("latnrm",),
            iterations=1,
            seeds_per_pass=2,
            expect_infeasible=True,
            config={"proposals_per_iteration": 2},
        ),
    )
}
