"""Biased-greedy baseline policies: LFFF, MFFF, LFDT, MFDT.

Labeling is shared with the fair weighted scheduler; the baselines differ in
how they break label ties (shortest vs longest execution time) and in how
they pick machines (least vs most utilized).  They never consult affinity or
inter-machine traffic.
"""

from dataclasses import dataclass

from .errors import EmptyQueue
from .infrastructure import nearest_vm_type

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


def greedy_select_service(queue, service_bias):
    """Pick from the max-label ready set by execution-time bias."""
    if not queue:
        raise EmptyQueue("ready queue is empty")
    return min(queue, key=priority_key_for(service_bias))


def greedy_select_machine(demand_memory_gb, demand_cores, machines,
                          machine_bias, topology, catalog, now_ms):
    """Utilization-biased machine choice with a provisioning fallback.

    Among active machines with room, least_full takes the lowest and
    most_full the highest utilization, ties to the lowest machine id.
    Returns ("existing", machine) or ("provision", node_id, vm_type), or
    None when no machine fits and every node is full.
    """
    if machine_bias == LEAST_FULL:
        sign = 1.0
    elif machine_bias == MOST_FULL:
        sign = -1.0
    else:
        raise ValueError(f"unknown machine bias {machine_bias!r}")
    best = best_key = None
    for m in machines:
        vm = m.vm_type
        used_memory_gb, used_cores = m.used_memory_gb, m.used_cores
        # Machine.fits and Machine.utilization, inlined for this hot loop
        if (m.active_at_ms <= now_ms
                and used_memory_gb + demand_memory_gb <= vm.memory_gb + 1e-9
                and used_cores + demand_cores <= vm.cores):
            memory_util = used_memory_gb / vm.memory_gb
            core_util = used_cores / vm.cores
            key = sign * (memory_util if memory_util >= core_util else core_util)
            if (best is None or key < best_key
                    or (key == best_key and m.machine_id < best.machine_id)):
                best, best_key = m, key
    if best is not None:
        return ("existing", best)
    open_nodes = [n for n in topology.nodes.values() if n.has_free_slot()]
    if not open_nodes:
        return None
    node = min(open_nodes, key=lambda n: n.node_id)
    vm_type = nearest_vm_type(demand_memory_gb, demand_cores, catalog)
    return ("provision", node.node_id, vm_type)
