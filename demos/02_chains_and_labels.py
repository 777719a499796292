"""Service chains, bottom-up labeling, and fair weights.

A chain is a DAG of micro-services; an edge (i, j) means j starts only after
i finishes.  The scheduler labels each chain bottom-up, once per run:
sinks first, shortest execution time breaking ties, so the label of a
service grows with its remaining depth.  The highest label dispatches first;
equal labels fall back to the fair weight.
"""

from sfcsched import (LabeledService, WeightParams, assign_labels,
                      canonical_sfcs, compute_weight)

chains = canonical_sfcs()
for chain in chains:
    print(f"chain {chain.chain_id}: nodes {sorted(chain.nodes)}")
    print(f"  edges {sorted(chain.edges)}")

# Label the first chain (1 -> 2 -> 3 -> {4, 5}) with made-up execution times.
chain = chains[0]
exec_ms = {1: 80.0, 2: 40.0, 3: 55.0, 4: 30.0, 5: 50.0}
labels = assign_labels(chain, exec_ms)
print("\nlabels (higher dispatches first):", dict(sorted(labels.items())))
# The two sinks 4 and 5 take labels 1 and 2; the shorter one (4) goes first.

# Weights settle ties between instances at the same label: one point per
# (transitive) dependent plus 0.01 per millisecond spent waiting.
params = WeightParams(alpha_dep=1.0, beta_wait=0.01)
for sid in (3, 4):
    entry = LabeledService(instance_id=0, service_id=sid, label=labels[sid],
                           enqueue_time_ms=0.0, exec_time_ms=exec_ms[sid],
                           dependents=chain.transitive_dependents(sid))
    for now in (0.0, 200.0):
        w = compute_weight(entry, now, params)
        print(f"service {sid}: dependents={entry.dependents} "
              f"wait={now:5.0f} ms -> weight {w:.2f}")
