"""Multi-cloud infrastructure: VM catalog, 20-node topology, link delays, machines.

Links are M/D/1 delay functions, not packet queues.  Each link carries a
fixed background load plus the line-rate contribution of transfers currently
in flight; delays are evaluated on demand from that combined load.  The
transfer model is `Topology.start_transfer`.
"""

import functools
from dataclasses import dataclass, field

from .errors import (NONNEGATIVE, POSITIVE, NodeFull, NonPositiveRate, NoPath,
                     NotBuffered, UnstableQueue, checked, int_in)

MICRO = "micro"
CORE = "core"

# Per-link service rates in packets/second, scaled from the catalog bandwidths.
CORE_LINK_MU_PPS = 12_500.0
MICRO_LINK_MU_PPS = 3_125.0

MICRO_VM_SLOTS = 4
CORE_VM_SLOTS = 32

# Effective utilisation is clamped here when computing delays under overload.
DEFAULT_RHO_MAX = 0.995
DEFAULT_PACKET_KB = 8.0


@dataclass(frozen=True)
class VmType:
    name: str = checked((lambda v: isinstance(v, str), "must be a string"))
    memory_gb: float = checked(POSITIVE)
    cores: int = checked(int_in(1))
    max_bandwidth_mbps: float = checked(POSITIVE)  # MB/s
    hourly_cost: float = checked(NONNEGATIVE)


def default_catalog():
    """The four EC2-style machine configurations used throughout."""
    return [
        VmType("t2.small", 2.0, 1, 25.0, 0.034),
        VmType("t2.medium", 4.0, 2, 25.0, 0.068),
        VmType("t2.large", 8.0, 2, 25.0, 0.136),
        VmType("m4.large", 8.0, 2, 56.25, 0.140),
    ]


def nearest_vm_type(demand_memory_gb, demand_cores, catalog):
    """Cheapest catalog type covering the demand, ties by cost then name;
    None when no type covers it."""
    return min((t for t in catalog
                if t.memory_gb >= demand_memory_gb and t.cores >= demand_cores),
               key=lambda t: (t.hourly_cost, t.name), default=None)


def link_delay(lambda_pps, mu_pps) -> float:
    """M/D/1 sojourn time in seconds for arrival rate lambda and service rate mu."""
    if mu_pps <= 0:
        raise NonPositiveRate(f"mu must be positive, got {mu_pps}")
    if lambda_pps < 0:
        raise ValueError(f"negative arrival rate {lambda_pps}")
    if lambda_pps >= mu_pps:
        raise UnstableQueue(f"lambda {lambda_pps} >= mu {mu_pps}")
    rho = lambda_pps / mu_pps
    return (1.0 / (2.0 * mu_pps)) * (2.0 - rho) / (1.0 - rho)


@dataclass
class CloudNode:
    node_id: int
    kind: str  # micro | core
    vm_slots: int
    used_slots: int = 0

    def has_free_slot(self):
        return self.used_slots < self.vm_slots


@dataclass
class Link:
    endpoints: tuple
    mu_pps: float
    background_pps: float = 0.0
    transfer_pps: float = 0.0  # sum of active transfer line rates

    @property
    def lambda_pps(self):
        return self.background_pps + self.transfer_pps

    def delay_s(self, rho_max=DEFAULT_RHO_MAX):
        """Current sojourn time; load clamped below saturation."""
        return _clamped_delay(self.lambda_pps, self.mu_pps, rho_max)


@functools.lru_cache(maxsize=1024, typed=True)
def _clamped_delay(lambda_pps, mu_pps, rho_max):
    """`link_delay` at the load clamped to `rho_max * mu_pps`; memoised, as
    a run sees few distinct loads.  Equal keys (-0.0 and 0.0 too) give equal
    bits, and a call that raises is not cached, so it raises every time."""
    return link_delay(min(lambda_pps, rho_max * mu_pps), mu_pps)


@dataclass
class Machine:
    """A provisioned VM as capacity accounting.  A placed service holds its
    memory and cores from dispatch until it finishes; ``hosted`` is the set
    of (instance_id, service_id) keys holding compute right now."""

    machine_id: int
    node_id: int
    vm_type: VmType
    active_at_ms: float = 0.0
    used_memory_gb: float = 0.0
    used_cores: int = 0
    hosted: set = field(default_factory=set)

    def fits(self, memory_gb, cores):
        return (self.used_memory_gb + memory_gb <= self.vm_type.memory_gb + 1e-9
                and self.used_cores + cores <= self.vm_type.cores)

    def utilization(self):
        """Max over resource dimensions, the binding constraint in [0, 1]."""
        return max(self.used_memory_gb / self.vm_type.memory_gb,
                   self.used_cores / self.vm_type.cores)

    def allocate(self, key, memory_gb, cores):
        if not self.fits(memory_gb, cores):
            raise ValueError(f"machine {self.machine_id}: allocation exceeds capacity")
        self.used_memory_gb += memory_gb
        self.used_cores += cores
        self.hosted.add(key)

    def buffer_service(self, key, memory_gb, cores):
        """Release a finished service's compute back to the machine."""
        if key not in self.hosted:
            raise NotBuffered(f"{key} not hosted on machine {self.machine_id}")
        self.hosted.remove(key)
        self.used_memory_gb = max(0.0, self.used_memory_gb - memory_gb)
        self.used_cores -= cores


@functools.lru_cache(maxsize=8)
def _all_pairs_routes(adjacency):
    """BFS min-hop path (a tuple of link keys) for every connected node pair
    of the graph ``((node, sorted neighbours), ...)``.  Topologies of one
    shape share the cached table, so its routes are immutable."""
    adj = dict(adjacency)
    routes = {}
    for src in adj:
        paths = {src: ()}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in paths:
                        paths[v] = paths[u] + ((min(u, v), max(u, v)),)
                        nxt.append(v)
            frontier = nxt
        routes.update(((src, dst), path) for dst, path in paths.items())
    return routes


class Topology:
    """Cloud nodes plus undirected links with precomputed min-hop routes."""

    def __init__(self, nodes, links, rho_max=DEFAULT_RHO_MAX,
                 packet_kb=DEFAULT_PACKET_KB):
        self.nodes = {n.node_id: n for n in nodes}
        self.links = {}
        self.adj = {n.node_id: [] for n in nodes}
        for link in links:
            a, b = link.endpoints
            key = (min(a, b), max(a, b))
            link.endpoints = key
            self.links[key] = link
            self.adj[a].append(b)
            self.adj[b].append(a)
        for n in self.adj:
            self.adj[n].sort()
        self.rho_max = rho_max
        self.packet_kb = packet_kb
        self._routes = _all_pairs_routes(
            tuple((n, tuple(self.adj[n])) for n in sorted(self.adj)))
        self._open = sorted(self.nodes)

    def open_node_ids(self):
        """Ids of the nodes with a free VM slot, ascending.  Slots are never
        freed, so a node found full leaves the kept list for good."""
        self._open = [n for n in self._open if self.nodes[n].has_free_slot()]
        return self._open

    def route(self, src, dst):
        route = self._routes.get((src, dst))  # None for unknown or disconnected nodes
        if route is None:
            raise NoPath(f"no route between {src} and {dst}")
        return route

    def hops(self, src, dst):
        return len(self.route(src, dst))

    def path_delay_s(self, src, dst):
        """Sum of link sojourn times along the min-hop route, in seconds."""
        return sum(self.links[k].delay_s(self.rho_max) for k in self.route(src, dst))

    def set_background_load(self, fraction):
        if not 0 <= fraction < 1:
            raise ValueError(f"background load fraction {fraction} outside [0, 1)")
        for link in self.links.values():
            link.background_pps = fraction * link.mu_pps

    def line_rate_pps(self, bandwidth_mbps):
        return bandwidth_mbps * 1000.0 / self.packet_kb

    def start_transfer(self, src_machine, dst_machine, data_kb):
        """Start moving `data_kb` between two machines; (delay_ms, transfer).

        The data serializes at the slower of the two NICs.  Across nodes it
        also waits out the M/D/1 sojourn of every min-hop route link at the
        current load, then adds its line rate to those links while in
        flight, so later transfers see it.  `transfer` is (route, rate_pps)
        for `end_transfer`, or None within one node, where no link is loaded.
        """
        bw = min(src_machine.vm_type.max_bandwidth_mbps,
                 dst_machine.vm_type.max_bandwidth_mbps)
        delay_ms = data_kb / bw  # kB over MB/s serializes in ms
        if src_machine.node_id == dst_machine.node_id:
            return delay_ms, None
        route = self.route(src_machine.node_id, dst_machine.node_id)
        delay_ms += 1000.0 * sum(self.links[k].delay_s(self.rho_max) for k in route)
        rate_pps = self.line_rate_pps(bw)
        for k in route:
            self.links[k].transfer_pps += rate_pps
        return delay_ms, (route, rate_pps)

    def end_transfer(self, route, rate_pps):
        """Release the link load of a transfer from `start_transfer`."""
        for k in route:
            link = self.links[k]
            link.transfer_pps = max(0.0, link.transfer_pps - rate_pps)


def default_topology(micro_count=16, core_count=4,
                     micro_slots=MICRO_VM_SLOTS, core_slots=CORE_VM_SLOTS,
                     micro_mu_pps=MICRO_LINK_MU_PPS, core_mu_pps=CORE_LINK_MU_PPS,
                     rho_max=DEFAULT_RHO_MAX, packet_kb=DEFAULT_PACKET_KB):
    """16 edge micro-clouds (ids 0..15) behind 4 fully meshed core clouds.

    Each core cloud fronts an equal share of the micro-clouds through one
    access link apiece.
    """
    nodes = [CloudNode(i, MICRO, micro_slots) for i in range(micro_count)]
    nodes += [CloudNode(micro_count + j, CORE, core_slots) for j in range(core_count)]
    links = []
    for j in range(core_count):
        for k in range(j + 1, core_count):
            links.append(Link((micro_count + j, micro_count + k), core_mu_pps))
    per_core = micro_count // core_count
    for i in range(micro_count):
        core = micro_count + min(i // per_core, core_count - 1)
        links.append(Link((i, core), micro_mu_pps))
    return Topology(nodes, links, rho_max=rho_max, packet_kb=packet_kb)


def provision_choice(demand_memory_gb, demand_cores, near_nodes, topology, catalog):
    """("provision", node_id, vm_type) for a demand no machine takes: the
    cheapest covering type, on the free-slot node with the least summed path
    delay from `near_nodes`, ties to the lowest node id.  None when every
    node is full or no catalog type covers the demand."""
    open_ids = topology.open_node_ids()
    if not open_ids:
        return None
    vm_type = nearest_vm_type(demand_memory_gb, demand_cores, catalog)
    if vm_type is None:
        return None
    return ("provision", min(open_ids, key=lambda n: (
        sum(topology.path_delay_s(p, n) for p in near_nodes), n)), vm_type)


def provision_machine(node: CloudNode, vm_type: VmType, machine_id,
                      active_at_ms=0.0) -> Machine:
    if not node.has_free_slot():
        raise NodeFull(f"node {node.node_id} has no free VM slot")
    node.used_slots += 1
    return Machine(machine_id, node.node_id, vm_type, active_at_ms=active_at_ms)

