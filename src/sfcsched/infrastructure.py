"""Multi-cloud infrastructure: VM catalog, 20-node topology, link delays, machines.

Links are M/D/1 delay functions, not packet queues.  Each link carries a
fixed background load plus the line-rate contribution of transfers currently
in flight; delays are evaluated on demand from that combined load.  The
transfer model is `Topology.start_transfer`.
"""

import functools
import sys
from dataclasses import dataclass, field

from .errors import (NONNEGATIVE, POSITIVE, ValidationError, check_fields, checked,
                     int_in, is_number)

MICRO = "micro"
CORE = "core"

# Bounded so that a valid file's all-pairs route table builds in about 1 s.
MAX_NODE_COUNT = 500

# Below the smallest normal float, rho_max * mu can round up to mu and the
# delay clamp no longer holds a link below saturation.
_LINK_RATE = (lambda v: is_number(v) and v >= sys.float_info.min,
              f"must be a number >= {sys.float_info.min}")


@dataclass
class TopologySpec:
    """The multi-cloud `default_topology` builds.  Each field is the one
    statement of its parameter's default and rule, and a topology file key."""
    micro_count: int = checked(int_in(1, MAX_NODE_COUNT), 16)
    core_count: int = checked(int_in(1, MAX_NODE_COUNT), 4)
    micro_slots: int = checked(int_in(1), 4)
    core_slots: int = checked(int_in(1), 32)
    # link service rates in packets/second, scaled from the catalog bandwidths
    micro_link_mu_pps: float = checked(_LINK_RATE, 3_125.0)
    core_link_mu_pps: float = checked(_LINK_RATE, 12_500.0)
    # effective utilisation is clamped here when computing delays under overload
    rho_max: float = checked((lambda v: is_number(v) and 0 < v < 1,
                              "must lie in (0, 1)"), 0.995)
    packet_kb: float = checked(POSITIVE, 8.0)

    def validate(self):
        check_fields(self, "topology")
        # every core cloud fronts at least one micro-cloud
        if self.micro_count < self.core_count:
            raise ValidationError("topology.micro_count", "must be >= core_count")
        if self.micro_count + self.core_count > MAX_NODE_COUNT:
            raise ValidationError("topology.micro_count",
                                  f"plus core_count must be <= {MAX_NODE_COUNT}")


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
        raise ValueError(f"mu must be positive, got {mu_pps}")
    if lambda_pps < 0:
        raise ValueError(f"negative arrival rate {lambda_pps}")
    if lambda_pps >= mu_pps:
        raise ValueError(f"lambda {lambda_pps} >= mu {mu_pps}")
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

    def delay_s(self, rho_max=TopologySpec.rho_max):
        """Current sojourn time at the combined load, clamped to `rho_max *
        mu_pps` below saturation."""
        return link_delay(min(self.background_pps + self.transfer_pps,
                              rho_max * self.mu_pps), self.mu_pps)


@dataclass
class Machine:
    """A provisioned VM as capacity accounting.  A placed service holds its
    memory and cores from dispatch until it finishes; ``hosted`` is the set
    of (instance_id, service_id) keys holding compute right now.  ``rank``
    is the key its run's machine order files it under, None while it boots
    or has no free core."""

    machine_id: int
    node_id: int
    vm_type: VmType
    active_at_ms: float = 0.0
    used_memory_gb: float = 0.0
    used_cores: int = 0
    hosted: set = field(default_factory=set)
    rank: object = field(default=None, compare=False, repr=False)

    def fits(self, memory_gb, cores):
        return (self.used_memory_gb + memory_gb <= self.vm_type.memory_gb + 1e-9
                and self.used_cores + cores <= self.vm_type.cores)

    def utilization(self):
        """Max over resource dimensions, the binding constraint in [0, 1].
        Float residue in used memory counts as load; -0.0 and 0.0 tie."""
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
            raise ValueError(f"{key} not hosted on machine {self.machine_id}")
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

    def __init__(self, nodes, links, rho_max=TopologySpec.rho_max,
                 packet_kb=TopologySpec.packet_kb):
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
        return self._routes[src, dst]  # KeyError for unknown or disconnected nodes

    def hops(self, src, dst):
        return len(self.route(src, dst))

    def path_delay_s(self, src, dst):
        """Sum of link sojourn times along the min-hop route, in seconds."""
        return self._wait_s(self.route(src, dst))

    def _wait_s(self, route):
        total = 0  # left to right, so the bits are the same on every Python
        for key in route:
            total += self.links[key].delay_s(self.rho_max)
        return total

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
        for `end_transfer`, `route` being the link keys of `route(src, dst)`,
        or None within one node, where no link is loaded.
        """
        bw = min(src_machine.vm_type.max_bandwidth_mbps,
                 dst_machine.vm_type.max_bandwidth_mbps)
        delay_ms = data_kb / bw  # kB over MB/s serializes in ms
        if src_machine.node_id == dst_machine.node_id:
            return delay_ms, None
        route = self.route(src_machine.node_id, dst_machine.node_id)
        delay_ms += 1000.0 * self._wait_s(route)
        rate_pps = self.line_rate_pps(bw)
        for key in route:
            self.links[key].transfer_pps += rate_pps
        return delay_ms, (route, rate_pps)

    def end_transfer(self, route, rate_pps):
        """Release the link load of a transfer from `start_transfer`."""
        for key in route:
            link = self.links[key]
            link.transfer_pps = max(0.0, link.transfer_pps - rate_pps)


def default_topology(spec=None):
    """The multi-cloud of ``spec``, `TopologySpec()` when None: micro-clouds
    (ids from 0) behind fully meshed core clouds, each core cloud fronting an
    equal share of the micro-clouds through one access link apiece."""
    if spec is None:
        spec = TopologySpec()
    spec.validate()
    n_micro, n_core = spec.micro_count, spec.core_count
    nodes = [CloudNode(i, MICRO, spec.micro_slots) for i in range(n_micro)]
    nodes += [CloudNode(n_micro + j, CORE, spec.core_slots) for j in range(n_core)]
    links = []
    for j in range(n_core):
        for k in range(j + 1, n_core):
            links.append(Link((n_micro + j, n_micro + k), spec.core_link_mu_pps))
    per_core = n_micro // n_core
    for i in range(n_micro):
        core = n_micro + min(i // per_core, n_core - 1)
        links.append(Link((i, core), spec.micro_link_mu_pps))
    return Topology(nodes, links, rho_max=spec.rho_max, packet_kb=spec.packet_kb)


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

    def summed_delay(n):
        total = 0  # left to right, so the bits are the same on every Python
        for p in near_nodes:
            total += topology.path_delay_s(p, n)
        return total, n

    return ("provision", min(open_ids, key=summed_delay), vm_type)


def provision_machine(node: CloudNode, vm_type: VmType, machine_id,
                      active_at_ms=0.0) -> Machine:
    if not node.has_free_slot():
        raise ValueError(f"node {node.node_id} has no free VM slot")
    node.used_slots += 1
    return Machine(machine_id, node.node_id, vm_type, active_at_ms=active_at_ms)

