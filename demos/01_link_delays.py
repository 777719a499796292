"""Link delay curves.

Every inter-cloud link is an M/D/1 queue: deterministic per-packet service
at rate mu, Poisson arrivals at rate lambda.  The sojourn time is

    T = (1 / 2mu) * (2 - rho) / (1 - rho),   rho = lambda / mu

which equals the service time 1/mu at zero load and diverges as rho -> 1.
The default topology, `TopologySpec()`, sets one mu on the micro-cloud
access links and another on the core mesh.
"""

from sfcsched import TopologySpec, link_delay

spec = TopologySpec()
micro_mu, core_mu = spec.micro_link_mu_pps, spec.core_link_mu_pps

print(f"{'rho':>5} {'micro link (ms)':>16} {'core link (ms)':>15}")
for i in range(10):
    rho = i / 10
    micro = link_delay(rho * micro_mu, micro_mu) * 1000
    core = link_delay(rho * core_mu, core_mu) * 1000
    print(f"{rho:5.1f} {micro:16.3f} {core:15.3f}")

# The zero-load value is exactly the deterministic service time.
assert link_delay(0, micro_mu) == 1 / micro_mu

# Delay grows without bound near saturation; the simulator therefore clamps
# the effective utilisation at spec.rho_max when links are overloaded by
# in-flight transfers.
print()
for rho in (0.95, 0.99, spec.rho_max):
    print(f"rho={rho}: micro link delay {link_delay(rho * micro_mu, micro_mu) * 1000:7.2f} ms")
