"""Fair weighted affinity-based scheduling.

Three pieces: bottom-up service labeling over each chain DAG, fair weights
that grow with dependent count and queue wait, and machine selection that
prefers co-locating a service with its predecessors to keep traffic off the
network.
"""

import heapq
from dataclasses import dataclass

from .errors import EmptyQueue
from .infrastructure import nearest_vm_type

TRANSITIVE = "transitive"
IMMEDIATE = "immediate"


@dataclass
class WeightParams:
    """Coefficients of the fairness weight: dependents and milliseconds waited."""

    alpha_dep: float = 1.0
    beta_wait: float = 0.01
    dependents: str = TRANSITIVE

    def __post_init__(self):
        if self.alpha_dep < 0 or self.beta_wait < 0:
            raise ValueError("weight coefficients must be nonnegative")
        if self.alpha_dep == 0 and self.beta_wait == 0:
            raise ValueError("at least one weight coefficient must be positive")
        if self.dependents not in (TRANSITIVE, IMMEDIATE):
            raise ValueError(f"unknown dependents mode {self.dependents!r}")


@dataclass
class LabeledService:
    """A ready (instance, service) pair carrying its label and queue state."""

    instance_id: int
    service_id: int
    label: int
    enqueue_time_ms: float
    exec_time_ms: float
    dependents: int
    weight: float = 0.0


def assign_labels(chain, exec_time_ms) -> dict:
    """Label one chain DAG bottom-up; returns {service_id: label}.

    Sinks get the lowest labels.  Each subsequent label goes to the unlabeled
    service whose successors are all labeled, preferring the shortest
    execution time, then the lowest service id.  Labels form a permutation
    of 1..N and every edge (i, j) satisfies label(i) > label(j).
    """
    unlabeled_succ = {n: len(chain.successors(n)) for n in chain.nodes}
    heap = [(exec_time_ms[n], n) for n in chain.nodes if unlabeled_succ[n] == 0]
    heapq.heapify(heap)
    labels = {}
    next_label = 1
    while heap:
        _, n = heapq.heappop(heap)
        labels[n] = next_label
        next_label += 1
        for p in chain.predecessors(n):
            unlabeled_succ[p] -= 1
            if unlabeled_succ[p] == 0:
                heapq.heappush(heap, (exec_time_ms[p], p))
    return labels


def compute_weight(labeled: LabeledService, now_ms, params: WeightParams) -> float:
    """Linear fairness weight; nondecreasing in wait time and dependent count."""
    wait = now_ms - labeled.enqueue_time_ms
    if wait < 0:
        raise ValueError("weight evaluated before the service was enqueued")
    return params.alpha_dep * labeled.dependents + params.beta_wait * wait


def priority_key(entry):
    """Ready-queue order: highest label, then highest weight, then queue age,
    then lowest ids.  Reads ``entry.weight``; refresh it with compute_weight."""
    return (-entry.label, -entry.weight, entry.enqueue_time_ms,
            entry.instance_id, entry.service_id)


def select_next_service(queue, now_ms, params: WeightParams) -> LabeledService:
    """Highest label wins; ties fall to weight, then queue age, then ids."""
    if not queue:
        raise EmptyQueue("ready queue is empty")
    for entry in queue:
        entry.weight = compute_weight(entry, now_ms, params)
    return min(queue, key=priority_key)


def _traffic_objective(node_id, pred_placements, topology):
    """Added inter-machine traffic if the service lands on node `node_id`:
    predecessor output sizes weighted by route hop count.  A predecessor on
    the same node is zero hops away, whichever machine it sits on, so the
    objective is the same for every machine of a node."""
    cost = 0.0
    for _, pred_machine, data_out_kb in pred_placements:
        if pred_machine.node_id != node_id:
            cost += data_out_kb * topology.hops(pred_machine.node_id, node_id)
    return cost


def select_machine_fws(demand_memory_gb, demand_cores, pred_placements,
                       machines, topology, catalog, now_ms):
    """Affinity-first machine choice.

    (a) a predecessor's machine with room, (b) the feasible machine adding
    the least hop-weighted traffic, (c) a freshly provisioned machine on the
    free-slot node closest to the predecessors.  Within (a) and (b) ties go
    to the lowest traffic, then the lowest machine id.  Returns
    ("existing", machine) or ("provision", node_id, vm_type), or None when
    every node is full.
    """
    pred_machine_ids = {pm.machine_id for _, pm, _ in pred_placements}
    objective = {}  # node_id -> _traffic_objective, filled on first use
    best = best_cost = None
    best_affine = False
    for m in machines:
        vm = m.vm_type
        # Machine.fits, inlined for this hot loop
        if not (m.active_at_ms <= now_ms
                and m.used_memory_gb + demand_memory_gb <= vm.memory_gb + 1e-9
                and m.used_cores + demand_cores <= vm.cores):
            continue
        affine = m.machine_id in pred_machine_ids
        if best_affine and not affine:
            continue
        cost = objective.get(m.node_id)
        if cost is None:
            cost = objective[m.node_id] = _traffic_objective(
                m.node_id, pred_placements, topology)
        if affine and not best_affine:
            best, best_affine = None, True
        if (best is None or cost < best_cost
                or (cost == best_cost and m.machine_id < best.machine_id)):
            best, best_cost = m, cost
    if best is not None:
        return ("existing", best)
    open_nodes = [n for n in topology.nodes.values() if n.has_free_slot()]
    if not open_nodes:
        return None
    pred_nodes = [pm.node_id for _, pm, _ in pred_placements]
    best_node = min(open_nodes,
                    key=lambda n: (sum(topology.path_delay_s(p, n.node_id)
                                       for p in pred_nodes), n.node_id))
    vm_type = nearest_vm_type(demand_memory_gb, demand_cores, catalog)
    return ("provision", best_node.node_id, vm_type)
