"""Discrete-event simulation of chain scheduling across the multi-cloud.

One run owns all mutable state (event heap, machines, link loads, request
progress) and executes on a single logical thread.  Event ordering at equal
timestamps is fixed: finish < transfer < start < arrival, then sequence
number, so identical inputs replay identically.

Timing model for one placed service:

    dispatch ─ boot wait ─ inbound transfers ─ resume ─ execute ─ finish

Machine capacity is held from dispatch until finish.  A transfer is charged
only when a predecessor sits on a different machine; it serializes the
predecessor's output at the slower of the two machine NICs and, when the
machines sit on different nodes, additionally waits out the M/D/1 sojourn of
every link on the min-hop route.  While in flight, a transfer contributes
its line rate to those links, so concurrent transfers see each other's load.
"""

import bisect
import heapq
import math
from dataclasses import dataclass, field

from .chains import ready_services
from .fws import (LabeledService, assign_labels, priority_key, rank_key_fws,
                  select_machine_fws)
from .greedy import GREEDY_POLICIES, greedy_select_machine
from .infrastructure import provision_machine
from .metrics import MetricsReport, RequestRecord, check_sla, total_cost
from .scenario import Scenario, generate_workload, sample_service_defs

EVENT_FINISH = 0
EVENT_TRANSFER = 1
EVENT_START = 2
EVENT_ARRIVAL = 3


@dataclass
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


@dataclass
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

        self.now = 0.0
        self._seq = 0
        self._events = []
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
        while self._events:
            time_ms, kind, _, payload = heapq.heappop(self._events)
            # every event is pushed at `now` plus a nonnegative delay
            if time_ms < self.now:
                raise AssertionError("event dequeued out of time order")
            self.now = time_ms
            if kind == EVENT_ARRIVAL:
                self._on_arrival(payload)
            elif kind == EVENT_FINISH:
                self._on_finish(*payload)
            elif kind == EVENT_START:
                # A start frees nothing, but it is a dispatch time: queued
                # entries may first see a machine that has finished booting,
                # and entries past their delay SLA are dropped.  Without
                # this pass the seeded schedules change.
                self._dispatch()
            elif kind == EVENT_TRANSFER:
                self._on_transfer_done(payload)
        # Anything still queued can never be placed: no capacity-releasing
        # event remains.  Those requests count as dropped.
        for entry in self.ready:
            state = self.states[entry.instance_id]
            if not state.dropped:
                self._drop(state)
        self.ready.clear()
        return self._report()

    def _on_arrival(self, request):
        chain = self.chains[request.chain_id]
        state = _RequestState(
            request, {n: len(chain.predecessors(n)) for n in chain.nodes},
            len(chain.nodes),
            _drop_time(request.arrival_time_ms, request.delay_sla_ms))
        self.states[request.request_id] = state
        self.arrived += 1
        for sid in chain.sources():
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

    def _on_transfer_done(self, transfer):
        route, rate_pps = transfer
        for key in route:
            link = self.topology.links[key]
            link.transfer_pps = max(0.0, link.transfer_pps - rate_pps)

    # ---------------------------------------------------------------- dispatch

    def _enqueue(self, state, service_id):
        chain = self.chains[state.request.chain_id]
        if self.scenario.weights.dependents == "transitive":
            dependents = chain.transitive_dependents(service_id)
        else:
            dependents = chain.immediate_dependents(service_id)
        sdef = self.defs[service_id]
        if (sdef.memory_gb, sdef.cores) not in self._failed:
            self._walk_at = -math.inf
        elif state.drop_at < self._walk_at:
            self._walk_at = state.drop_at
        bisect.insort(self.ready, LabeledService(
            instance_id=state.request.request_id,
            service_id=service_id,
            label=self.labels[chain.chain_id][service_id],
            enqueue_time_ms=self.now,
            exec_time_ms=sdef.exec_time_ms,
            dependents=dependents,
        ), key=self._priority_key)

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
        chain = self.chains[state.request.chain_id]
        return [(pred, state.placed[pred], self.defs[pred].data_out_kb)
                for pred in chain.predecessors(entry.service_id)]

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
            bw = min(pred_machine.vm_type.max_bandwidth_mbps,
                     machine.vm_type.max_bandwidth_mbps)
            delay_ms = data_out_kb / bw  # kB over MB/s serializes in ms
            if pred_machine.node_id != machine.node_id:
                route = self.topology.route(pred_machine.node_id, machine.node_id)
                delay_ms += 1000.0 * sum(
                    self.topology.links[k].delay_s(self.topology.rho_max)
                    for k in route)
                rate_pps = self.topology.line_rate_pps(bw)
                for k in route:
                    self.topology.links[k].transfer_pps += rate_pps
                self._push(t + delay_ms, EVENT_TRANSFER, (route, rate_pps))
            transfers_in[pred] = delay_ms
            transfer_ms = max(transfer_ms, delay_ms)

        start = t + boot_ms + transfer_ms + self.scenario.resume_latency_ms
        finish = start + sdef.exec_time_ms
        placement = Placement(
            instance_id=entry.instance_id, service_id=entry.service_id,
            machine_id=machine.machine_id, start_ms=start, finish_ms=finish,
            dispatch_ms=t, boot_wait_ms=boot_ms, transfer_ms=transfer_ms,
            transfers_in=transfers_in)
        self.placements.append(placement)
        state.placed[entry.service_id] = machine
        self._push(start, EVENT_START, None)
        self._push(finish, EVENT_FINISH,
                   (entry.instance_id, entry.service_id, machine))

    def _drop(self, state):
        state.dropped = True
        self.dropped += 1

    # ----------------------------------------------------------------- report

    def makespan_ms(self):
        return max((p.finish_ms for p in self.placements), default=0.0)

    def _attributed_costs(self):
        """Split each machine's hourly cost across requests by held time."""
        held_by_machine = {}
        held_by_request = {}
        for p in self.placements:
            span = p.finish_ms - p.dispatch_ms
            held_by_machine[p.machine_id] = held_by_machine.get(p.machine_id, 0.0) + span
            spans = held_by_request.setdefault(p.instance_id, {})
            spans[p.machine_id] = spans.get(p.machine_id, 0.0) + span
        costs = {}
        for rid, spans in held_by_request.items():
            total = 0.0
            for mid, span in spans.items():
                held = held_by_machine[mid]
                # every span on a machine is 0 only once the clock is too
                # large to resolve them; no request then held it measurably
                total += (span / held if held else 0.0) * \
                    self.machines[mid].vm_type.hourly_cost
            costs[rid] = total
        return costs

    def _report(self):
        if self.completed + self.dropped != self.arrived:
            raise AssertionError("requests lost: conservation violated")
        costs = self._attributed_costs()
        records = []
        for rid in sorted(self.states):
            state = self.states[rid]
            req = state.request
            turnaround = None
            if state.completed_ms is not None:
                turnaround = state.completed_ms - req.arrival_time_ms
            cost = costs.get(rid, 0.0)
            satisfied = check_sla(req, turnaround, cost, dropped=state.dropped)
            records.append(RequestRecord(
                request_id=rid, chain_id=req.chain_id,
                arrival_ms=req.arrival_time_ms, turnaround_ms=turnaround,
                attributed_cost=cost, satisfied=satisfied,
                dropped=state.dropped))
        finished = [r.turnaround_ms for r in records if r.turnaround_ms is not None]
        avg_turnaround = sum(finished) / len(finished) if finished else 0.0
        satisfied_pct = (100.0 * sum(1 for r in records if r.satisfied) /
                         len(records)) if records else 100.0
        return MetricsReport(
            policy=self.scenario.policy,
            total_traffic_kb=self.traffic_kb,
            avg_turnaround_ms=avg_turnaround,
            satisfied_pct=satisfied_pct,
            total_cost_per_hour=total_cost(self.machines),
            per_request=records,
        )


def run(scenario: Scenario) -> MetricsReport:
    """Simulate one scenario to quiescence and aggregate its metrics."""
    return SimulationRun(scenario).execute()
