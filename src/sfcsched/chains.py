"""Service chains: micro-service definitions, precedence DAGs, per-request instances.

A chain is a DAG over small integer service ids.  An edge (i, j) means j may
start only after i has finished.  Chains are immutable once built; the
per-request :class:`ChainInstance` tracks execution status and is mutated
only by the simulation loop.
"""

from dataclasses import dataclass, field

from .errors import CycleDetected, DanglingEdge, UnknownService

WAITING = "waiting"
READY = "ready"
RUNNING = "running"
DONE = "done"


@dataclass(frozen=True)
class MicroServiceDef:
    """One micro-service: execution time, output size, capacity and footprint."""

    id: int
    exec_time_ms: float
    data_out_kb: float
    capacity_rps: float
    memory_gb: float
    cores: int

    def __post_init__(self):
        if self.exec_time_ms <= 0 or self.data_out_kb <= 0 or self.capacity_rps <= 0:
            raise ValueError(f"service {self.id}: rates and sizes must be positive")
        if self.memory_gb <= 0 or self.cores < 1:
            raise ValueError(f"service {self.id}: resource demand must be positive")


class ServiceChain:
    """Immutable precedence DAG of service ids."""

    def __init__(self, chain_id, nodes, edges):
        self.chain_id = chain_id
        self.nodes = frozenset(nodes)
        self.edges = frozenset((int(a), int(b)) for a, b in edges)
        if not self.nodes:
            raise ValueError("chain requires at least one node")
        for a, b in self.edges:
            if a not in self.nodes or b not in self.nodes:
                raise DanglingEdge(f"edge ({a}, {b}) references unknown node")
        self._succ = {n: [] for n in sorted(self.nodes)}
        self._pred = {n: [] for n in sorted(self.nodes)}
        for a, b in sorted(self.edges):
            self._succ[a].append(b)
            self._pred[b].append(a)
        self._check_acyclic()
        self._dependents = {n: self._count_reachable(n) for n in self.nodes}

    def _check_acyclic(self):
        indeg = {n: len(self._pred[n]) for n in self.nodes}
        queue = sorted(n for n in self.nodes if indeg[n] == 0)
        seen = 0
        while queue:
            n = queue.pop()
            seen += 1
            for s in self._succ[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    queue.append(s)
        if seen != len(self.nodes):
            raise CycleDetected(f"chain {self.chain_id} edges contain a cycle")

    def _count_reachable(self, start):
        seen = set()
        stack = list(self._succ[start])
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(self._succ[n])
        return len(seen)

    def successors(self, service_id):
        return self._succ[service_id]

    def predecessors(self, service_id):
        return self._pred[service_id]

    def sources(self):
        return [n for n in sorted(self.nodes) if not self._pred[n]]

    def sinks(self):
        return [n for n in sorted(self.nodes) if not self._succ[n]]

    def transitive_dependents(self, service_id):
        """Number of distinct services reachable from service_id (itself excluded)."""
        if service_id not in self.nodes:
            raise UnknownService(f"service {service_id} not in chain {self.chain_id}")
        return self._dependents[service_id]

    def immediate_dependents(self, service_id):
        if service_id not in self.nodes:
            raise UnknownService(f"service {service_id} not in chain {self.chain_id}")
        return len(self._succ[service_id])

    def __repr__(self):
        return f"ServiceChain({self.chain_id}, nodes={sorted(self.nodes)})"


def build_chain(chain_id, nodes, edges) -> ServiceChain:
    """Validate and build a chain; rejects cycles and dangling edges."""
    return ServiceChain(chain_id, nodes, edges)


def canonical_sfcs():
    """The four evaluation chains covering service ids 1..20.

    Chain 1 forks after service 3; chain 2 joins 7 and 8 into 9; chains 3
    and 4 partition the remaining ids with one fork each.
    """
    return [
        build_chain(1, {1, 2, 3, 4, 5}, {(1, 2), (2, 3), (3, 4), (3, 5)}),
        build_chain(2, {6, 7, 8, 9, 10}, {(6, 7), (6, 8), (7, 9), (8, 9), (9, 10)}),
        build_chain(3, {11, 12, 13, 14}, {(11, 12), (12, 13), (12, 14)}),
        build_chain(4, {15, 16, 17, 18, 19, 20},
                    {(15, 16), (15, 17), (16, 18), (17, 18), (18, 19), (18, 20)}),
    ]


@dataclass(frozen=True)
class UserRequest:
    """One arriving demand for a chain, with its tolerated delay and cost."""

    request_id: int
    chain_id: int
    arrival_time_ms: float
    delay_sla_ms: float
    cost_sla: float

    def __post_init__(self):
        if self.delay_sla_ms <= 0 or self.cost_sla <= 0:
            raise ValueError(f"request {self.request_id}: SLA bounds must be positive")
        if self.arrival_time_ms < 0:
            raise ValueError(f"request {self.request_id}: negative arrival time")


@dataclass
class ChainInstance:
    """Per-request copy of a chain with execution status per service."""

    instance_id: int
    chain: ServiceChain
    request_id: int
    status: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.status:
            self.status = {n: WAITING for n in self.chain.nodes}

    def mark_ready(self, service_id):
        self._transition(service_id, WAITING, READY)

    def mark_running(self, service_id):
        self._transition(service_id, READY, RUNNING)

    def mark_done(self, service_id):
        self._transition(service_id, RUNNING, DONE)

    def _transition(self, service_id, expect, to):
        cur = self.status[service_id]
        if cur != expect:
            raise ValueError(
                f"instance {self.instance_id} service {service_id}: "
                f"cannot move {cur} -> {to}")
        self.status[service_id] = to

    def done(self, service_id):
        return self.status[service_id] == DONE

    def all_done(self):
        return all(s == DONE for s in self.status.values())


def ready_services(instance: ChainInstance):
    """Waiting services whose predecessors are all done.  Pure query."""
    chain = instance.chain
    out = set()
    for n in chain.nodes:
        if instance.status[n] != WAITING:
            continue
        if all(instance.done(p) for p in chain.predecessors(n)):
            out.add(n)
    return out

