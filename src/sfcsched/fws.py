"""Fair weighted affinity-based scheduling.

Three pieces: bottom-up service labeling over each chain DAG, fair weights
that grow with dependent count and queue wait, and machine selection that
prefers co-locating a service with its predecessors to keep traffic off the
network.
"""

import heapq
import operator
from dataclasses import dataclass

from .errors import NONNEGATIVE, ValidationError, check_fields, checked
from .infrastructure import provision_choice

TRANSITIVE = "transitive"
IMMEDIATE = "immediate"


@dataclass
class WeightParams:
    """Coefficients of the fairness weight: dependents and milliseconds waited."""

    alpha_dep: float = checked(NONNEGATIVE, 1.0)
    beta_wait: float = checked(NONNEGATIVE, 0.01)
    dependents: str = checked((lambda v: v in (TRANSITIVE, IMMEDIATE),
                               f"must be {TRANSITIVE!r} or {IMMEDIATE!r}"), TRANSITIVE)

    def __post_init__(self):
        check_fields(self, "fws")
        if self.alpha_dep == 0 and self.beta_wait == 0:
            raise ValidationError("fws",
                                  "at least one weight coefficient must be positive")


@dataclass(slots=True)
class LabeledService:
    """A ready (instance, service) pair carrying its label and queue state."""

    instance_id: int
    service_id: int
    label: int
    enqueue_time_ms: float
    exec_time_ms: float
    dependents: int
    # the queue owner's record of the request, and the (memory_gb, cores)
    # demand: set once at enqueue, so a queue walk looks neither up
    state: object = None
    demand: tuple = None


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


def priority_key(params: WeightParams):
    """Ready-queue order: highest label, then highest weight, then queue age,
    then lowest ids.

    All entries share one clock, so ranking by the weight at time ``now`` is
    ranking by ``beta * enqueue - alpha * dependents``, which does not change
    while an entry waits: the key is fixed at enqueue.
    """
    alpha, beta = params.alpha_dep, params.beta_wait
    return lambda e: (-e.label, beta * e.enqueue_time_ms - alpha * e.dependents,
                      e.enqueue_time_ms, e.instance_id, e.service_id)


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


# fws's machine order: by id, its tie-break among equal objectives
rank_key_fws = operator.attrgetter("machine_id")


def select_machine_fws(demand_memory_gb, demand_cores, pred_placements,
                       machines, topology, catalog):
    """Affinity-first machine choice.

    (a) a predecessor's machine with room; only when none has room, (b) any
    machine with room; both keep the one adding the least hop-weighted
    traffic, ties to the lowest machine id.  (c) `provision_choice` on the
    free-slot node closest to the predecessors.  `machines` holds machines that
    can take work now (active, with a free core) in ascending machine id order,
    every one that fits the demand among them: all such machines, or for a
    demand stuck in the last walked pass only those freed since.  So (b) stops
    at the first machine with room whose objective is 0.0, the least there is:
    any later machine loses the id tie-break.  (a) walks the predecessors'
    machines in predecessor order, so it scans them all.  A predecessor's
    machine has run it, so is active; one that fits the demand is in `machines`
    too.  Returns ("existing", machine), ("provision", node_id, vm_type), or
    None if every node is full or no type covers it.
    """
    for candidates, by_id in (([pm for _, pm, _ in pred_placements], False),
                              (machines, True)):
        best = best_cost = None
        for m in candidates:
            if not m.fits(demand_memory_gb, demand_cores):
                continue
            cost = _traffic_objective(m.node_id, pred_placements, topology)
            if cost == 0.0 and by_id:
                return ("existing", m)
            if (best is None or cost < best_cost
                    or (cost == best_cost and m.machine_id < best.machine_id)):
                best, best_cost = m, cost
        if best is not None:
            return ("existing", best)
    return provision_choice(demand_memory_gb, demand_cores,
                            [pm.node_id for _, pm, _ in pred_placements],
                            topology, catalog)
