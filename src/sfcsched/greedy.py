"""Biased-greedy baseline policies: LFFF, MFFF, LFDT, MFDT.

Each baseline is one machine order crossed with one ready-queue order:

            first_finish   decreasing_time
  least_full    lfff           lfdt
  most_full     mfff           mfdt

Labeling is shared with the fair weighted scheduler; the ready-queue orders
break label ties by execution time (shortest or longest first) and the
machine orders prefer the least or the most utilized machine.  They never
consult affinity or inter-machine traffic.
"""

from .infrastructure import provision_choice


def least_full(m):
    """Machine order: ascending utilization, ties to the lowest machine id."""
    return (m.utilization(), m.machine_id)


def most_full(m):
    """Machine order: descending utilization, ties to the lowest machine id."""
    return (-m.utilization(), m.machine_id)


def first_finish(e):
    """Ready-queue order: highest label, shortest execution, lowest ids."""
    return (-e.label, e.exec_time_ms, e.instance_id, e.service_id)


def decreasing_time(e):
    """Ready-queue order: highest label, longest execution, lowest ids."""
    return (-e.label, -e.exec_time_ms, e.instance_id, e.service_id)


# policy name -> (machine order, ready-queue order)
GREEDY_POLICIES = {
    "lfff": (least_full, first_finish),
    "mfff": (most_full, first_finish),
    "lfdt": (least_full, decreasing_time),
    "mfdt": (most_full, decreasing_time),
}


def greedy_select_machine(demand_memory_gb, demand_cores, machines,
                          topology, catalog):
    """Utilization-biased machine choice with a provisioning fallback.

    `machines` holds machines that can take work now (active, with a free
    core) in the policy's machine order, every one that fits the demand
    among them: all such machines, or for a demand stuck in the last walked
    pass only those released or booted since that fit it.  So the first
    machine with room is the least (or most) utilized one.  With none,
    `provision_choice` with no predecessors: the lowest free node.  Returns
    ("existing", machine) or ("provision", node_id, vm_type), or None when
    no machine fits and every node is full or no catalog type covers it.
    """
    for m in machines:
        if m.fits(demand_memory_gb, demand_cores):
            return ("existing", m)
    return provision_choice(demand_memory_gb, demand_cores, (), topology, catalog)
