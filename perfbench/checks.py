"""Output checks, each against an independent source or a property the
simulation must have.  They run after a round, outside its timing."""

from __future__ import annotations

import hashlib
import json

from common import MEMORY_COUNTERS


class CheckFailed(Exception):
    """An output of the program is wrong; the run is not correct."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


#: The paper's published Table V: predicted best configuration per graph
#: for PR, SSSP, MIS, CLR, BC, CC (in that order).
PAPER_TABLE5 = {
    "AMZ": ("SGR", "SGR", "SGR", "SGR", "SGR", "DD1"),
    "DCT": ("SGR", "SGR", "SGR", "SGR", "SGR", "DD1"),
    "EML": ("SGR", "SGR", "SGR", "SGR", "SGR", "DD1"),
    "OLS": ("SDR", "SDR", "TG0", "TG0", "SDR", "DD1"),
    "RAJ": ("SDR", "SDR", "SDR", "SDR", "SDR", "DD1"),
    "WNG": ("SGR", "SGR", "SGR", "SGR", "SGR", "DD1"),
}
PAPER_APP_ORDER = ("PR", "SSSP", "MIS", "CLR", "BC", "CC")


def check_conservation(result, system, where: str) -> None:
    """Every SM's issue slots are accounted for exactly once: the stall
    categories sum to ``num_sms`` times the cycles spent inside kernels
    (total cycles less the launch gaps between kernels)."""
    kernels = len(result.kernel_cycles)
    inside = result.cycles - system.kernel_launch_cycles * (kernels - 1)
    accounted = result.breakdown.total
    require(accounted == system.num_sms * inside,
            f"{where}: stall categories sum to {accounted}, expected "
            f"{system.num_sms} x {inside}")


def check_sweep(plan, outcomes, sweep, subsets=None) -> None:
    """A sweep round: one row per planned unit, no failures, cycle
    conservation on every result, predictions equal to the paper's
    Table V, and every pruned subset holding the baseline and the
    decision tree's pick (and nothing else simulated)."""
    from repro.runtime import UnitFailure

    failures = [o for o in outcomes if isinstance(o, UnitFailure)]
    require(not failures, f"{len(failures)} unit(s) failed: "
            + "; ".join(f"{f.label}: {f.message}" for f in failures[:3]))
    require(len(sweep.rows) == len(plan) and not sweep.failures,
            f"{len(sweep.rows)} rows for {len(plan)} planned units")
    for spec, workload in zip(plan, outcomes):
        require(tuple(workload.results) == spec.configs,
                f"{spec.label}: simulated {tuple(workload.results)}, "
                f"planned {spec.configs}")
        for code, result in workload.results.items():
            check_conservation(result, spec.system, f"{spec.label}/{code}")
    for row in sweep.rows:
        expected = PAPER_TABLE5[row.graph][PAPER_APP_ORDER.index(row.app)]
        require(row.predicted == expected,
                f"{row.graph}/{row.app}: predicted {row.predicted}, "
                f"paper Table V says {expected}")
        if subsets is not None:
            kept = subsets[(row.graph, row.app)]
            require(row.baseline in kept and row.predicted in kept,
                    f"{row.graph}/{row.app}: pruned subset {kept} lacks "
                    f"baseline {row.baseline} or pick {row.predicted}")


def fingerprint(workloads) -> str:
    """Digest of simulated results, for exact equality between runs."""
    payload = json.dumps([w.to_dict() for w in workloads],
                         sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check_equal(expected, actual, where: str) -> None:
    require(expected.to_dict() == actual.to_dict(),
            f"{where}: results differ from in-process execute_spec")


def simulated_counts(workloads) -> dict:
    """Simulated statistics summed over every result, as exact numbers."""
    cycles = sum(result.cycles for w in workloads
                 for result in w.results.values())
    counts = {"sim.cycles": int(cycles) if cycles == int(cycles)
              else cycles}
    for name in MEMORY_COUNTERS:
        counts[f"mem.{name}"] = sum(
            getattr(result.memory_stats, name)
            for w in workloads for result in w.results.values())
    return counts
