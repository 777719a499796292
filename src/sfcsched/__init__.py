"""Micro-service chain scheduling simulator.

Schedules service chain instances across a 20-node multi-cloud under a fair
weighted affinity-based policy and four biased-greedy baselines, and reports
inter-machine traffic, turnaround, SLA satisfaction and hourly cost.
"""

from .chains import (MicroServiceDef, ServiceChain, UserRequest, canonical_sfcs,
                     ready_services)
from .engine import Placement, SimulationRun, run
from .fws import (LabeledService, WeightParams, assign_labels, compute_weight,
                  select_machine_fws)
from .greedy import GREEDY_POLICIES, greedy_select_machine
from .infrastructure import (CloudNode, Link, Machine, Topology, TopologySpec,
                             VmType, default_catalog, default_topology,
                             link_delay, nearest_vm_type, provision_machine)
from .metrics import (MetricsReport, RequestRecord, check_sla, total_cost,
                      validate_run)
from .reporting import (ResultRow, SweepSpec, emit_results, load_results,
                        parse_scenario, parse_sweep, render_results, run_sweep)
from .scenario import POLICY_NAMES, Scenario, generate_workload, sample_service_defs

__version__ = "0.1.0"
