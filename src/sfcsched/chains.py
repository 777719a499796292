"""Service chains: micro-service definitions, precedence DAGs and requests.

A chain is a DAG over small integer service ids.  An edge (i, j) means j may
start only after i has finished.  Chains are immutable once built; a request's
progress through its chain is a count of unfinished predecessors per service,
kept by the simulation loop and advanced by :func:`ready_services`.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MicroServiceDef:
    """One micro-service: execution time, output size and footprint."""

    id: int
    exec_time_ms: float
    data_out_kb: float
    memory_gb: float
    cores: int

    def __post_init__(self):
        # chained against math.inf: NaN and both infinities fail each bound
        if not (0 < self.exec_time_ms < math.inf and 0 < self.data_out_kb < math.inf):
            raise ValueError(
                f"service {self.id}: times and sizes must be finite and positive")
        if not (0 < self.memory_gb < math.inf and 1 <= self.cores < math.inf):
            raise ValueError(
                f"service {self.id}: resource demand must be finite and positive")


class ServiceChain:
    """Immutable precedence DAG of service ids; construction rejects an empty
    node set, dangling edges and cycles.  Each predecessor and successor list
    is in ascending id order, whatever the order the edges are given in."""

    def __init__(self, chain_id, nodes, edges):
        self.chain_id = chain_id
        self.nodes = frozenset(nodes)
        self.edges = frozenset((int(a), int(b)) for a, b in edges)
        if not self.nodes:
            raise ValueError("chain requires at least one node")
        for a, b in self.edges:
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"edge ({a}, {b}) references unknown node")
        self._succ = {n: [] for n in sorted(self.nodes)}
        self._pred = {n: [] for n in sorted(self.nodes)}
        for a, b in sorted(self.edges):
            self._succ[a].append(b)
            self._pred[b].append(a)
        self._dependents = {n: self._count_reachable(n) for n in self.nodes}

    def _count_reachable(self, start):
        """How many services `start` reaches; a cycle if it reaches itself."""
        seen = set()
        stack = list(self._succ[start])
        while stack:
            n = stack.pop()
            if n == start:
                raise ValueError(f"chain {self.chain_id} edges contain a cycle")
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
        return self._dependents[service_id]

    def immediate_dependents(self, service_id):
        return len(self._succ[service_id])

    def __repr__(self):
        return f"ServiceChain({self.chain_id}, nodes={sorted(self.nodes)})"


def canonical_sfcs():
    """The four evaluation chains covering service ids 1..20.

    Chain 1 forks after service 3; chain 2 joins 7 and 8 into 9; chain 3
    forks after service 12; chain 4 forks after service 15, joins 16 and
    17 into 18, and forks again after 18.
    """
    return [
        ServiceChain(1, {1, 2, 3, 4, 5}, {(1, 2), (2, 3), (3, 4), (3, 5)}),
        ServiceChain(2, {6, 7, 8, 9, 10}, {(6, 7), (6, 8), (7, 9), (8, 9), (9, 10)}),
        ServiceChain(3, {11, 12, 13, 14}, {(11, 12), (12, 13), (12, 14)}),
        ServiceChain(4, {15, 16, 17, 18, 19, 20},
                     {(15, 16), (15, 17), (16, 18), (17, 18), (18, 19), (18, 20)}),
    ]


@dataclass(frozen=True, slots=True)
class UserRequest:
    """One arriving demand for a chain, with its tolerated delay and cost."""

    request_id: int
    chain_id: int
    arrival_time_ms: float
    delay_sla_ms: float
    cost_sla: float

    def __post_init__(self):
        # chained against math.inf: NaN and both infinities fail each bound
        if not (0 < self.delay_sla_ms < math.inf and 0 < self.cost_sla < math.inf):
            raise ValueError(
                f"request {self.request_id}: SLA bounds must be finite and positive")
        if not 0 <= self.arrival_time_ms < math.inf:
            raise ValueError(
                f"request {self.request_id}: arrival time must be finite and >= 0")


def ready_services(chain, finished, unfinished_preds):
    """Count service `finished` off its successors' unfinished predecessors
    and return, in id order, the successors that have none left."""
    ready = []
    for succ in chain.successors(finished):
        unfinished_preds[succ] -= 1
        if unfinished_preds[succ] == 0:
            ready.append(succ)
    return ready
