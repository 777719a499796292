"""Discrete-event simulation of chain scheduling across the multi-cloud.

One run owns all mutable state (event heap, machines, link loads, request
progress) and executes on a single logical thread.  Event ordering at equal
timestamps is fixed: finish < transfer < start < arrival, then sequence
number, so identical inputs replay identically.  A start carries nothing
but its time, so start times sit in a heap of their own, merged in at
their rank.

Timing model for one placed service:

    dispatch ─ boot wait ─ inbound transfers ─ resume ─ execute ─ finish

Machine capacity is held from dispatch until finish.  A transfer is charged
only when a predecessor sits on a different machine; its delay and link
load follow `Topology.start_transfer`.
"""

import bisect
import heapq
import math
from dataclasses import dataclass, field

from .chains import ServiceChain, ready_services
from .fws import (TRANSITIVE, LabeledService, assign_labels, priority_key,
                  rank_key_fws, select_machine_fws)
from .greedy import GREEDY_POLICIES, greedy_select_machine
from .infrastructure import provision_machine
from .metrics import MetricsReport, report
from .scenario import Scenario, generate_workload, sample_service_defs

EVENT_FINISH = 0
EVENT_TRANSFER = 1
EVENT_START = 2
EVENT_ARRIVAL = 3


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
    # per-predecessor inbound transfer delays, {pred_service_id: ms}
    transfers_in: dict = field(default_factory=dict)


@dataclass(slots=True)
class _RequestState:
    request: object
    unfinished_preds: dict     # service_id -> predecessors not yet finished
    remaining: int             # services not yet finished
    drop_at: float             # the request expires at any now >= drop_at
    dropped: bool = False
    completed_ms: float = None
    placed: dict = field(default_factory=dict)  # service_id -> Machine


def _drop_time(arrival_ms, sla_ms):
    """The least float `now` with `now - arrival_ms > sla_ms`.

    Float subtraction is monotone in `now`, so that test holds exactly from
    this value on.  The rounded sum lies within a step or two of it.
    """
    t = arrival_ms + sla_ms
    while not t - arrival_ms > sla_ms and t < math.inf:
        t = math.nextafter(t, math.inf)
    while (below := math.nextafter(t, -math.inf)) - arrival_ms > sla_ms:
        t = below
    return t


class SimulationRun:
    """Executes one scenario under one policy and collects the schedule."""

    def __init__(self, scenario: Scenario, topology=None, requests=None,
                 service_defs=None, initial_machines=None):
        scenario.validate()
        self.scenario = scenario
        self.topology = topology if topology is not None \
            else scenario.topology_spec.build()
        self.topology.set_background_load(scenario.background_load_fraction)
        self.chains = {c.chain_id: c for c in scenario.chains}
        self.defs = service_defs if service_defs is not None \
            else sample_service_defs(scenario)
        self.requests = requests if requests is not None \
            else generate_workload(scenario)
        # every request of a chain shares its service definitions, so one
        # labeling per chain serves the whole run
        self.labels = {
            cid: assign_labels(chain, {sid: self.defs[sid].exec_time_ms
                                       for sid in chain.nodes})
            for cid, chain in self.chains.items()}
        # Per-service facts, tabled once: (chain_id, service_id) -> (label,
        # dependents in the run's mode, def, ((pred, its data_out_kb), ...)),
        # and per chain the unfinished-predecessor counts an arrival copies.
        dependents = ServiceChain.transitive_dependents \
            if scenario.weights.dependents == TRANSITIVE \
            else ServiceChain.immediate_dependents
        self._services = {
            (cid, sid): (self.labels[cid][sid], dependents(chain, sid), self.defs[sid],
                         tuple((p, self.defs[p].data_out_kb)
                               for p in chain.predecessors(sid)))
            for cid, chain in self.chains.items() for sid in chain.nodes}
        self._templates = {
            cid: ({sid: len(chain.predecessors(sid)) for sid in chain.nodes},
                  chain.sources())
            for cid, chain in self.chains.items()}

        self.now = 0.0
        self._seq = 0
        self._events = []          # heap of (time_ms, kind, seq, payload)
        self._starts = []          # heap of start times; see execute
        self.machines = []
        self.placements = []
        self.ready = []            # LabeledService entries, in _priority_key order
        self.states = {}           # request_id -> _RequestState
        self.arrived = 0
        self.completed = 0
        self.dropped = 0
        self.traffic_kb = 0.0      # online crossing-edge accumulator

        self._greedy = scenario.policy in GREEDY_POLICIES
        self._rank_key, self._priority_key = GREEDY_POLICIES.get(
            scenario.policy, (rank_key_fws, priority_key(scenario.weights)))
        # Selection sees only `ranked`: the free-core machines in the policy's
        # order (a core-full machine fits no demand; every service needs a
        # core).  Keys alongside, for bisection; `_rank_of`: id -> key or None.
        self.ranked, self._ranked_keys, self._rank_of = [], [], {}
        # (memory_gb, cores) demands that found no machine; see _dispatch
        self._failed = set()
        self._booting = []         # heap of (active_at_ms, machine_id)
        # no pass before this time can change anything; see _dispatch
        self._walk_at = math.inf

        if initial_machines:
            for node_id, vm_type in initial_machines:
                self._provision(node_id, vm_type, active_at_ms=0.0)
        for req in self.requests:
            self._push(req.arrival_time_ms, EVENT_ARRIVAL, req)

    # ------------------------------------------------------------------ events

    def _push(self, time_ms, kind, payload):
        self._seq += 1
        heapq.heappush(self._events, (time_ms, kind, self._seq, payload))

    def execute(self):
        events, starts = self._events, self._starts
        while events or starts:
            # A start sorts after the finishes and transfers of its time and
            # before its arrivals.  It frees nothing, but it is a dispatch
            # time: queued entries may first see a machine that has finished
            # booting, and entries past their delay SLA are dropped.  Without
            # this pass the seeded schedules change.
            if starts and (not events or starts[0] < events[0][0] or (
                    starts[0] == events[0][0] and events[0][1] > EVENT_START)):
                time_ms, kind, payload = heapq.heappop(starts), EVENT_START, None
            else:
                time_ms, kind, _, payload = heapq.heappop(events)
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
        # Anything still queued can never be placed: no capacity-releasing
        # event remains.  Those requests count as dropped.
        for entry in self.ready:
            state = self.states[entry.instance_id]
            if not state.dropped:
                self._drop(state)
        self.ready.clear()
        return report(self)

    def _on_arrival(self, request):
        counts, sources = self._templates[request.chain_id]
        state = _RequestState(
            request, counts.copy(), len(counts),
            _drop_time(request.arrival_time_ms, request.delay_sla_ms))
        self.states[request.request_id] = state
        self.arrived += 1
        for sid in sources:
            self._enqueue(state, sid)
        self._dispatch()

    def _on_finish(self, instance_id, service_id, machine):
        state = self.states[instance_id]
        sdef = self.defs[service_id]
        machine.buffer_service((instance_id, service_id),
                               sdef.memory_gb, sdef.cores)
        self._rerank(machine)
        if self._failed:
            self._unmemo(machine)
        state.remaining -= 1
        if not state.dropped:
            if state.remaining == 0:
                state.completed_ms = self.now
                self.completed += 1
            else:
                chain = self.chains[state.request.chain_id]
                for succ in ready_services(chain, service_id,
                                           state.unfinished_preds):
                    self._enqueue(state, succ)
        self._dispatch()

    # ---------------------------------------------------------------- dispatch

    def _enqueue(self, state, service_id):
        request = state.request
        label, dependents, sdef, _ = self._services[request.chain_id, service_id]
        if (sdef.memory_gb, sdef.cores) not in self._failed:
            self._walk_at = -math.inf
        elif state.drop_at < self._walk_at:
            self._walk_at = state.drop_at
        bisect.insort(self.ready, LabeledService(
            request.request_id, service_id, label, self.now,
            sdef.exec_time_ms, dependents), key=self._priority_key)

    def _dispatch(self):
        """One pass over the ready queue, which is kept in priority order.

        A selection fails, with no side effects, only when no active machine
        fits the (memory, cores) demand and no node can take a machine of a
        type covering it.  Node slots are never freed, placements only take
        capacity and link load decides no fit, so a failed demand joins
        `_failed` and stays unplaceable across passes until a release on a
        machine that then fits it (`_on_finish`) or the boot of one (popped
        from `_booting` here).  Entries with a memoised demand skip selection
        and go straight to the SLA-drop check.  The entries neither placed
        nor dropped, still in order, form the next queue.

        After a walked pass every waiting demand is memoised, so until an
        unmemoised demand is enqueued or a demand is retried, a pass can
        only drop.  It drops nothing while `now` is below the least
        `drop_at` in the queue, because the drop test `now >= drop_at` is
        the SLA test `now - arrival > sla` exactly.  `_walk_at` is that
        least `drop_at`, or -inf after such an enqueue or retry; a pass
        before it returns at once.
        """
        while self._booting and self._booting[0][0] <= self.now:
            self._unmemo(self.machines[heapq.heappop(self._booting)[1]])
        if self.now < self._walk_at:
            return
        now = self.now
        failed = self._failed
        waiting = []
        next_drop = math.inf
        for entry in self.ready:
            state = self.states[entry.instance_id]
            if state.dropped:  # dropped earlier in this pass
                continue
            sdef = self.defs[entry.service_id]
            demand = (sdef.memory_gb, sdef.cores)
            if demand not in failed:
                preds = self._pred_placements(entry)
                choice = self._select_machine(entry, preds)
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

    def _unmemo(self, machine):
        """Retry every failed demand that the active `machine` now fits."""
        fit = {d for d in self._failed if machine.fits(*d)}
        if fit:
            self._failed -= fit
            self._walk_at = -math.inf

    def _select_machine(self, entry, preds):
        sdef = self.defs[entry.service_id]
        if self._greedy:
            return greedy_select_machine(
                sdef.memory_gb, sdef.cores, self.ranked, self.topology,
                self.scenario.catalog, self.now)
        return select_machine_fws(
            sdef.memory_gb, sdef.cores, preds,
            self.ranked, self.topology, self.scenario.catalog, self.now)

    def _pred_placements(self, entry):
        """(pred, machine, data_out_kb) per predecessor, in ascending id
        order: traffic and link-load sums accumulate in this order."""
        state = self.states[entry.instance_id]
        placed = state.placed
        return [(pred, placed[pred], data_out_kb) for pred, data_out_kb
                in self._services[state.request.chain_id, entry.service_id][3]]

    def _provision(self, node_id, vm_type, active_at_ms):
        node = self.topology.nodes[node_id]
        machine = provision_machine(node, vm_type, len(self.machines),
                                    active_at_ms=active_at_ms)
        self.machines.append(machine)
        self._rerank(machine)
        heapq.heappush(self._booting, (active_at_ms, machine.machine_id))
        return machine

    def _rerank(self, machine):
        """Keep `ranked` in order after a machine is provisioned or loaded."""
        key = self._rank_key(machine) \
            if machine.used_cores < machine.vm_type.cores else None
        old = self._rank_of.get(machine.machine_id)
        if key == old:
            return
        if old is not None:
            i = bisect.bisect_left(self._ranked_keys, old)
            if i == len(self.ranked) or self.ranked[i] is not machine:
                raise AssertionError(f"machine {machine.machine_id} not at its rank")
            del self._ranked_keys[i], self.ranked[i]
        if key is not None:
            i = bisect.bisect_left(self._ranked_keys, key)
            self._ranked_keys.insert(i, key)
            self.ranked.insert(i, machine)
        self._rank_of[machine.machine_id] = key

    def _place(self, entry, choice, preds):
        """Dispatch `entry` by `choice`; `preds` is its `_pred_placements`."""
        key = (entry.instance_id, entry.service_id)
        state = self.states[entry.instance_id]
        if entry.service_id in state.placed:
            raise AssertionError(f"{key} placed twice")
        t = self.now
        sdef = self.defs[entry.service_id]
        if choice[0] == "provision":
            _, node_id, vm_type = choice
            machine = self._provision(
                node_id, vm_type, active_at_ms=t + self.scenario.provision_latency_ms)
            boot_ms = self.scenario.provision_latency_ms
        else:
            machine = choice[1]
            boot_ms = max(0.0, machine.active_at_ms - t)
        machine.allocate(key, sdef.memory_gb, sdef.cores)
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
        finish = start + sdef.exec_time_ms
        self.placements.append(Placement(
            entry.instance_id, entry.service_id, machine.machine_id, start,
            finish, t, boot_ms, transfer_ms, transfers_in))
        state.placed[entry.service_id] = machine
        heapq.heappush(self._starts, start)
        self._push(finish, EVENT_FINISH,
                   (entry.instance_id, entry.service_id, machine))

    def _drop(self, state):
        state.dropped = True
        self.dropped += 1


def run(scenario: Scenario) -> MetricsReport:
    """Simulate one scenario to quiescence and aggregate its metrics."""
    return SimulationRun(scenario).execute()
