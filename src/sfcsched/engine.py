"""Discrete-event simulation of chain scheduling across the multi-cloud.

One run owns all mutable state (event heap, machines, link loads, request
progress) and executes on a single logical thread.  Boots, transfer ends,
finishes and starts are events in one heap; the requests are read in
arrival order beside it.  Event ordering at equal timestamps is fixed:
boot < transfer < finish < start < arrival, then sequence number (list
order for arrivals), so identical inputs replay identically.  A boot or a
transfer end frees what a pass at its time may use and triggers no pass;
a finish, a start and an arrival each trigger one.

Timing model for one placed service:

    dispatch ─ boot wait ─ inbound transfers ─ resume ─ execute ─ finish

Machine capacity is held from dispatch until finish.  A transfer is charged
only when a predecessor sits on a different machine; its delay and link
load follow `Topology.start_transfer`.
"""

import bisect
import heapq
import math
import types
from dataclasses import dataclass, field
from operator import attrgetter

from .chains import ServiceChain, ready_services
from .fws import (TRANSITIVE, LabeledService, assign_labels, priority_key,
                  rank_key_fws, select_machine_fws)
from .greedy import GREEDY_POLICIES, greedy_select_machine
from .infrastructure import default_topology, provision_machine
from .metrics import MetricsReport, report
from .scenario import Scenario, generate_workload, sample_service_defs

EVENT_BOOT = 0
EVENT_TRANSFER = 1
EVENT_FINISH = 2
EVENT_START = 3
EVENT_ARRIVAL = 4  # never in the heap: the next request in arrival order
_RANK = attrgetter("rank")  # the key `ranked` is ordered by
_KEY = attrgetter("key")  # the key `ready` is ordered by
_NO_TRANSFERS = types.MappingProxyType({})  # shared by placements with no transfer


@dataclass(slots=True)
class Placement:
    """One scheduled service execution and its timing breakdown."""

    instance_id: int
    service_id: int
    machine_id: int
    start_ms: float
    finish_ms: float
    dispatch_ms: float
    boot_wait_ms: float
    transfer_ms: float
    # per-predecessor inbound transfer delays, {pred_service_id: ms}; the
    # engine gives every placement with none the read-only `_NO_TRANSFERS`
    transfers_in: dict = field(default_factory=dict)


@dataclass(slots=True)
class _RequestState:
    request: object
    # service_id -> predecessors not yet finished; None once the request
    # completes or is dropped
    unfinished_preds: dict
    remaining: int             # services not yet finished
    drop_at: float             # the request expires at any now >= drop_at
    dropped: bool = False
    completed_ms: float = None
    # service_id -> Machine; None once the request completes or is dropped
    placed: dict = field(default_factory=dict)


def _drop_time(arrival_ms, sla_ms):
    """The least float `now` with `now - arrival_ms > sla_ms`.

    Float subtraction is monotone in `now`, so that test holds exactly from
    this value on.  Round-to-nearest never puts the sum past that value, so
    the search only climbs from it, a step or two; for the finite inputs
    `UserRequest` admits, it ends at `inf` at the latest.
    """
    t = arrival_ms + sla_ms
    while not t - arrival_ms > sla_ms:
        t = math.nextafter(t, math.inf)
    return t


class SimulationRun:
    """Executes one scenario under one policy and collects the schedule."""

    def __init__(self, scenario: Scenario, topology=None, requests=None,
                 service_defs=None, initial_machines=None):
        scenario.validate()
        self.scenario = scenario
        self.topology = topology if topology is not None \
            else default_topology(scenario.topology_spec)
        self.topology.set_background_load(scenario.background_load_fraction)
        self.chains = {c.chain_id: c for c in scenario.chains}
        self.defs = service_defs if service_defs is not None \
            else sample_service_defs(scenario)
        # in arrival order, list order at equal times
        self.requests = sorted(requests if requests is not None
                               else generate_workload(scenario),
                               key=attrgetter("arrival_time_ms"))
        # every request of a chain shares its service definitions, so one
        # labeling per chain serves the whole run
        self.labels = {
            cid: assign_labels(chain, {sid: self.defs[sid].exec_time_ms
                                       for sid in chain.nodes})
            for cid, chain in self.chains.items()}
        # Per-service facts, tabled once: (chain_id, service_id) -> (label,
        # dependents in the run's mode, def, ((pred, its data_out_kb), ...),
        # (memory_gb, cores) demand), and per chain the unfinished-predecessor
        # counts an arrival copies.
        dependents = ServiceChain.transitive_dependents \
            if scenario.weights.dependents == TRANSITIVE \
            else ServiceChain.immediate_dependents
        self._services = {
            (cid, sid): (self.labels[cid][sid], dependents(chain, sid), self.defs[sid],
                         tuple((p, self.defs[p].data_out_kb)
                               for p in chain.predecessors(sid)),
                         (self.defs[sid].memory_gb, self.defs[sid].cores))
            for cid, chain in self.chains.items() for sid in chain.nodes}
        self._templates = {
            cid: ({sid: len(chain.predecessors(sid)) for sid in chain.nodes},
                  chain.sources())
            for cid, chain in self.chains.items()}

        # A 30th instance attribute slows every `self.` access on CPython 3.11
        # (about 6% on sweep cells): new state goes inside an existing one.
        self.now = 0.0
        self._seq = 0
        self._events = []          # heap of (time_ms, kind, seq, payload)
        self.machines = []
        self.placements = []
        self.ready = []            # LabeledService entries, filed under `key`
        self.states = {}           # request_id -> _RequestState
        self.arrived = 0           # requests[:arrived] have arrived
        self.completed = 0
        self.dropped = 0
        self.traffic_kb = 0.0      # online crossing-edge accumulator

        self._greedy = scenario.policy in GREEDY_POLICIES
        self._rank_key, self._priority_key = GREEDY_POLICIES.get(
            scenario.policy, (rank_key_fws, priority_key(scenario.weights)))
        # Selection sees only `ranked`: the active free-core machines in the policy's
        # order (a core-full machine fits no demand; every service needs a core),
        # each filed under its `Machine.rank`.
        self.ranked = []
        # the demands that found no machine in the last walked pass, and the
        # machines freed since that fit one, {machine_id: machine}; see _dispatch
        self._stuck, self._fresh = set(), {}
        # no pass before this time can change anything; see _dispatch
        self._walk_at = math.inf

        if initial_machines:
            for node_id, vm_type in initial_machines:
                self._provision(node_id, vm_type, active_at_ms=0.0)

    # ------------------------------------------------------------------ events

    def _push(self, time_ms, kind, payload):
        self._seq += 1
        heapq.heappush(self._events, (time_ms, kind, self._seq, payload))

    def execute(self):
        events, requests = self._events, self.requests
        while True:
            i = self.arrived
            # an arrival sorts after every event of its time
            if i < len(requests) and (
                    not events or requests[i].arrival_time_ms < events[0][0]):
                payload = requests[i]
                time_ms, kind = payload.arrival_time_ms, EVENT_ARRIVAL
                self.arrived = i + 1
            elif events:
                time_ms, kind, _, payload = heapq.heappop(events)
            else:
                break
            # every event is pushed at `now` plus a nonnegative delay
            if time_ms < self.now:
                raise AssertionError("event dequeued out of time order")
            self.now = time_ms
            if kind == EVENT_START:
                self._dispatch()
            elif kind == EVENT_FINISH:
                self._on_finish(*payload)
            elif kind == EVENT_ARRIVAL:
                self._on_arrival(payload)
            elif kind == EVENT_TRANSFER:
                self.topology.end_transfer(*payload)
            else:
                self._freed(payload)  # a machine finished booting
        # Anything still queued can never be placed: no capacity-releasing
        # event remains.  Those requests count as dropped.
        for entry in self.ready:
            if not entry.state.dropped:
                self._drop(entry.state)
        self.ready.clear()
        return report(self)

    def _on_arrival(self, request):
        counts, sources = self._templates[request.chain_id]
        state = _RequestState(
            request, counts.copy(), len(counts),
            _drop_time(request.arrival_time_ms, request.delay_sla_ms))
        self.states[request.request_id] = state
        for sid in sources:
            self._enqueue(state, sid)
        self._dispatch()

    def _on_finish(self, instance_id, service_id, machine):
        state = self.states[instance_id]
        sdef = self.defs[service_id]
        machine.buffer_service((instance_id, service_id),
                               sdef.memory_gb, sdef.cores)
        self._freed(machine)
        state.remaining -= 1
        if not state.dropped:
            if state.remaining == 0:
                state.completed_ms = self.now
                self.completed += 1
                state.placed = state.unfinished_preds = None
            else:
                chain = self.chains[state.request.chain_id]
                for succ in ready_services(chain, service_id,
                                           state.unfinished_preds):
                    self._enqueue(state, succ)
        self._dispatch()

    # ---------------------------------------------------------------- dispatch

    def _enqueue(self, state, service_id):
        request = state.request
        label, dependents, sdef, _, demand = \
            self._services[request.chain_id, service_id]
        # a machine may fit a demand that is not stuck: the next pass must walk
        if demand not in self._stuck:
            self._walk_at = -math.inf
        elif state.drop_at < self._walk_at:
            self._walk_at = state.drop_at
        entry = LabeledService(request.request_id, service_id, label, self.now,
                               sdef.exec_time_ms, dependents, state, demand)
        entry.key = self._priority_key(entry)
        bisect.insort(self.ready, entry, key=_KEY)

    def _dispatch(self):
        """One pass over the ready queue, which is kept in priority order:
        each entry is filed under its `key`, computed once at enqueue.

        Selection is passed the machines in `ranked` (active, with a free
        core) in policy order, including every one that fits the demand.
        It fails, with no side effects, only when no machine it is passed
        fits the (memory, cores) demand and no node can take a machine of a
        type covering it.  Node slots are never freed, placements only take
        capacity and link load decides no fit, so a failed demand joins a
        set local to the pass once, and each later entry of it costs only
        that set lookup and its drop test; the set becomes `_stuck` when the
        pass ends.  From then on only a machine that `_freed` handles, a
        release (`_on_finish`) or a boot (an event that sorts before every
        pass at its time), can fit a stuck demand, and `_freed` keeps each
        one that fits some stuck demand in `_fresh` until the next walked
        pass ends.  A stuck demand's selection is passed only the `_fresh`
        machines that still fit it, in policy order, so it picks what a
        selection over `ranked` would; with none, selection is skipped.
        The entries neither placed nor dropped, still in order, form the
        next queue.

        After a walked pass every waiting demand is stuck and no machine is
        fresh, so until a demand that is not stuck is enqueued or `_freed`
        keeps a machine, a pass can only drop.  It drops nothing while `now`
        is below the least `drop_at` in the queue, because the drop test
        `now >= drop_at` is the SLA test `now - arrival > sla` exactly.
        `_walk_at` is that least `drop_at`, or -inf after such an enqueue or
        release; a pass before it returns at once.
        """
        if self.now < self._walk_at:
            return
        now = self.now
        stuck, fresh = self._stuck, self._fresh
        ranked = self.ranked
        failed = set()  # the demands that found no machine in this pass
        waiting = []
        next_drop = math.inf
        for entry in self.ready:
            state = entry.state
            if state.dropped:  # dropped earlier in this pass
                continue
            demand = entry.demand
            if demand not in failed:
                if demand in stuck:
                    memory_gb, cores = demand
                    machines = [m for m in fresh.values() if m.fits(memory_gb, cores)]
                    machines.sort(key=_RANK)
                else:
                    machines = ranked
                if machines or machines is ranked:  # else no machine can fit
                    preds = self._pred_placements(entry)
                    choice = self._select_machine(entry, preds, machines)
                    if choice is not None:
                        self._place(entry, choice, preds)
                        continue
                failed.add(demand)
            if now >= state.drop_at:
                self._drop(state)
            else:
                waiting.append(entry)
                if state.drop_at < next_drop:
                    next_drop = state.drop_at
        self.ready = waiting
        self._walk_at = next_drop
        self._stuck = failed
        if fresh:
            self._fresh = {}

    def _freed(self, machine):
        """Re-rank `machine` after a release or its boot; while some demand
        is stuck, keep it as fresh if it fits one, and wake the next pass."""
        self._rerank(machine)
        for memory_gb, cores in self._stuck:
            if machine.fits(memory_gb, cores):
                self._fresh[machine.machine_id] = machine
                self._walk_at = -math.inf
                return

    def _select_machine(self, entry, preds, machines):
        memory_gb, cores = entry.demand
        if self._greedy:
            return greedy_select_machine(memory_gb, cores, machines,
                                         self.topology, self.scenario.catalog)
        return select_machine_fws(memory_gb, cores, preds, machines,
                                  self.topology, self.scenario.catalog)

    def _pred_placements(self, entry):
        """(pred, machine, data_out_kb) per predecessor, in ascending id
        order: traffic and link-load sums accumulate in this order."""
        state = entry.state
        placed = state.placed
        return [(pred, placed[pred], data_out_kb) for pred, data_out_kb
                in self._services[state.request.chain_id, entry.service_id][3]]

    def _provision(self, node_id, vm_type, active_at_ms):
        node = self.topology.nodes[node_id]
        machine = provision_machine(node, vm_type, len(self.machines),
                                    active_at_ms=active_at_ms)
        self.machines.append(machine)
        self._rerank(machine)
        self._push(active_at_ms, EVENT_BOOT, machine)
        return machine

    def _rerank(self, machine):
        """Keep `ranked` in order: the active machines with a free core, each
        filed under its `rank`."""
        key = self._rank_key(machine) if machine.active_at_ms <= self.now \
            and machine.used_cores < machine.vm_type.cores else None
        old = machine.rank
        if key == old:
            return
        ranked = self.ranked
        if old is not None:
            i = bisect.bisect_left(ranked, old, key=_RANK)
            if i == len(ranked) or ranked[i] is not machine:
                raise AssertionError(f"machine {machine.machine_id} not at its rank")
            del ranked[i]
        machine.rank = key
        if key is not None:
            bisect.insort_left(ranked, machine, key=_RANK)

    def _place(self, entry, choice, preds):
        """Dispatch `entry` by `choice`; `preds` is its `_pred_placements`."""
        key = (entry.instance_id, entry.service_id)
        state = entry.state
        if entry.service_id in state.placed:
            raise AssertionError(f"{key} placed twice")
        t = self.now
        boot_ms = 0.0  # a selected machine is active; only a new one boots
        if choice[0] == "provision":
            _, node_id, vm_type = choice
            boot_ms = self.scenario.provision_latency_ms
            machine = self._provision(node_id, vm_type, active_at_ms=t + boot_ms)
        else:
            machine = choice[1]
        memory_gb, cores = entry.demand
        machine.allocate(key, memory_gb, cores)
        self._rerank(machine)

        transfers_in = {}
        transfer_ms = 0.0
        for pred, pred_machine, data_out_kb in preds:
            if pred_machine.machine_id == machine.machine_id:
                continue
            self.traffic_kb += data_out_kb
            delay_ms, transfer = self.topology.start_transfer(
                pred_machine, machine, data_out_kb)
            if transfer is not None:
                self._push(t + delay_ms, EVENT_TRANSFER, transfer)
            transfers_in[pred] = delay_ms
            transfer_ms = max(transfer_ms, delay_ms)

        start = t + boot_ms + transfer_ms + self.scenario.resume_latency_ms
        finish = start + entry.exec_time_ms
        self.placements.append(Placement(
            entry.instance_id, entry.service_id, machine.machine_id, start,
            finish, t, boot_ms, transfer_ms, transfers_in or _NO_TRANSFERS))
        state.placed[entry.service_id] = machine
        self._push(start, EVENT_START, None)
        self._push(finish, EVENT_FINISH,
                   (entry.instance_id, entry.service_id, machine))

    def _drop(self, state):
        state.dropped = True
        self.dropped += 1
        state.placed = state.unfinished_preds = None


def run(scenario: Scenario) -> MetricsReport:
    """Simulate one scenario to quiescence and aggregate its metrics."""
    return SimulationRun(scenario).execute()
