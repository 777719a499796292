"""Biased-greedy baseline policies: LFFF, MFFF, LFDT, MFDT.

Labeling is shared with the fair weighted scheduler; the baselines differ in
how they break label ties (shortest vs longest execution time) and in how
they pick machines (least vs most utilized).  They never consult affinity or
inter-machine traffic.
"""

from dataclasses import dataclass

from .infrastructure import provision_choice

LEAST_FULL = "least_full"
MOST_FULL = "most_full"
FIRST_FINISH = "first_finish"
DECREASING_TIME = "decreasing_time"


@dataclass(frozen=True)
class GreedyPolicy:
    machine_bias: str
    service_bias: str


GREEDY_POLICIES = {
    "lfff": GreedyPolicy(LEAST_FULL, FIRST_FINISH),
    "mfff": GreedyPolicy(MOST_FULL, FIRST_FINISH),
    "lfdt": GreedyPolicy(LEAST_FULL, DECREASING_TIME),
    "mfdt": GreedyPolicy(MOST_FULL, DECREASING_TIME),
}


def priority_key_for(service_bias):
    """Ready-queue order of one service bias: highest label, then execution
    time (shortest first for first_finish, longest for decreasing_time),
    then lowest ids."""
    if service_bias == FIRST_FINISH:
        return lambda e: (-e.label, e.exec_time_ms, e.instance_id, e.service_id)
    if service_bias == DECREASING_TIME:
        return lambda e: (-e.label, -e.exec_time_ms, e.instance_id, e.service_id)
    raise ValueError(f"unknown service bias {service_bias!r}")


def rank_key(machine_bias):
    """Preference order of one machine bias: utilization (the larger of the
    memory and core shares) ascending for least_full and descending for
    most_full, ties to the lowest machine id.  Float residue left in used
    memory counts as load; -0.0 and 0.0 tie."""
    sign = {LEAST_FULL: 1.0, MOST_FULL: -1.0}.get(machine_bias)
    if sign is None:
        raise ValueError(f"unknown machine bias {machine_bias!r}")

    def key(m):
        vm = m.vm_type
        memory_util = m.used_memory_gb / vm.memory_gb
        core_util = m.used_cores / vm.cores
        return (sign * (memory_util if memory_util >= core_util else core_util),
                m.machine_id)
    return key


def greedy_select_machine(demand_memory_gb, demand_cores, machines,
                          topology, catalog, now_ms):
    """Utilization-biased machine choice with a provisioning fallback.

    `machines` is in `rank_key` order of the policy's bias, so the first
    active machine with room is the least (or most) utilized one.  With
    none, `provision_choice` with no predecessors: the lowest free node.
    Returns ("existing", machine) or ("provision", node_id, vm_type), or
    None when no machine fits and every node is full or no catalog type
    covers the demand.
    """
    for m in machines:
        vm = m.vm_type
        # Machine.fits, inlined for this hot loop
        if (m.active_at_ms <= now_ms
                and m.used_memory_gb + demand_memory_gb <= vm.memory_gb + 1e-9
                and m.used_cores + demand_cores <= vm.cores):
            return ("existing", m)
    return provision_choice(demand_memory_gb, demand_cores, (), topology, catalog)
