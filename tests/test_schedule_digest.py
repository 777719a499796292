"""Schedule digests: the equivalence oracle for engine refactors.

Each case pins the sha256 (first 16 hex digits) of the sorted
``(instance, service, machine, start_ms, finish_ms)`` rows of one seeded run,
together with its drop count.  A change that claims to keep behaviour must
leave every digest as it is.  The configurations reach past saturation, where
the dispatcher fails most machine selections, and include demands that no
catalog type fits.
"""

import hashlib

import pytest

from sfcsched.engine import SimulationRun
from sfcsched.infrastructure import VmType
from sfcsched.scenario import Scenario, TopologySpec

SEEDS = (1, 2, 3)
TINY = VmType("tiny", 2.0, 1, 25.0, 0.03)
BURST = Scenario(request_count=150, arrival_rate_rps=2000.0)

CONFIGS = {
    "burst": BURST,
    "burst_no_boot": BURST.with_overrides(provision_latency_ms=0.0),
    "small_topology": BURST.with_overrides(
        topology_spec=TopologySpec(micro_count=4, core_count=1, core_slots=4)),
    # most demands exceed the only type: every request drops
    "one_type_catalog": BURST.with_overrides(catalog=[TINY]),
    # a few services exceed the only type: some chains finish, some drop
    "one_type_mostly_fits": BURST.with_overrides(
        catalog=[TINY], service_memory_range_gb=(0.5, 2.3),
        service_cores_choices=(1,)),
}


def schedule_digest(sim):
    rows = sorted((p.instance_id, p.service_id, p.machine_id, p.start_ms,
                   p.finish_ms) for p in sim.placements)
    text = "\n".join(",".join(repr(v) for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# {config: {policy: [(digest, dropped) per seed in SEEDS]}}
EXPECTED = {
    "burst": {
        "fws": [('ded7f82930b1c3a1', 0), ('bf85c600807cca1d', 0), ('e6eb2e2359001209', 0)],
        "lfff": [('eda3794e636c6535', 0), ('a260aeae3a9b0c59', 0), ('5c2ecd25ccd4a929', 0)],
        "mfff": [('e20428c913793619', 0), ('2304206f1a480f9e', 0), ('0aa9eb7f491bae88', 0)],
        "lfdt": [('0f27908d67cc73b1', 0), ('b703546a19619bcd', 0), ('f52c7ec48b165526', 0)],
        "mfdt": [('e20428c913793619', 0), ('2304206f1a480f9e', 0), ('54fb080e9e9d4a9b', 1)],
    },
    "burst_no_boot": {
        "fws": [('1d0d7f8f6d1a6fe5', 0), ('1c88fe4a7ee11db3', 0), ('a6e8f67d1f4e2a8d', 0)],
        "lfff": [('5b720a38b0aeca1f', 0), ('1a7f3f7709d40c3a', 0), ('083be069a217c32f', 0)],
        "mfff": [('f868b196d93087a9', 0), ('1b53ee45da2d24a1', 0), ('a681c306b9c197e9', 0)],
        "lfdt": [('326d600c2cce8995', 0), ('1a7f3f7709d40c3a', 0), ('82a119eb486f63e0', 0)],
        "mfdt": [('f868b196d93087a9', 0), ('1b53ee45da2d24a1', 0), ('e201844f811ee9eb', 0)],
    },
    "small_topology": {
        "fws": [('c0e3593cb5211440', 140), ('2347b33e19a92943', 138), ('941e79111564a277', 150)],
        "lfff": [('94a2bbc219270bef', 138), ('374d2bf718a33f4c', 138), ('09c05e8c883b8690', 140)],
        "mfff": [('a7e482da8c6baad4', 136), ('fd7625b0d060cf7c', 141), ('b0bfa571191e8cd4', 142)],
        "lfdt": [('112671265cae87ff', 142), ('ea1fe344f4129963', 136), ('d2a68242773fdf92', 143)],
        "mfdt": [('7a394894d287adbf', 137), ('44a263ebe39bde8a', 134), ('2960efc1a27832f8', 144)],
    },
    "one_type_catalog": {
        "fws": [('e3b0c44298fc1c14', 150), ('d35493015f9b8d5d', 150), ('f2a80ccc85a57db1', 150)],
        "lfff": [('e3b0c44298fc1c14', 150), ('fe9a38f770a7573f', 150), ('ffcff9e26e2d3beb', 150)],
        "mfff": [('e3b0c44298fc1c14', 150), ('fe9a38f770a7573f', 150), ('ffcff9e26e2d3beb', 150)],
        "lfdt": [('e3b0c44298fc1c14', 150), ('fe9a38f770a7573f', 150), ('ffcff9e26e2d3beb', 150)],
        "mfdt": [('e3b0c44298fc1c14', 150), ('fe9a38f770a7573f', 150), ('ffcff9e26e2d3beb', 150)],
    },
    "one_type_mostly_fits": {
        "fws": [('7d0bc8da7dfe7abd', 75), ('f8bda0f9846de462', 108), ('44a3a6698df84bb6', 81)],
        "lfff": [('ea451bfff4a5b825', 75), ('f6d0f799bd8ab01d', 108), ('e5bbdb4f50e9ab8d', 81)],
        "mfff": [('ea451bfff4a5b825', 75), ('f6d0f799bd8ab01d', 108), ('e5bbdb4f50e9ab8d', 81)],
        "lfdt": [('7753ed0d424ed518', 75), ('f6d0f799bd8ab01d', 108), ('e5bbdb4f50e9ab8d', 81)],
        "mfdt": [('7753ed0d424ed518', 75), ('f6d0f799bd8ab01d', 108), ('e5bbdb4f50e9ab8d', 81)],
    },
}


@pytest.mark.parametrize("config, policy", [
    (config, policy) for config in EXPECTED for policy in EXPECTED[config]])
def test_schedule_digest(config, policy):
    got = []
    for seed in SEEDS:
        sim = SimulationRun(CONFIGS[config].with_overrides(policy=policy,
                                                           rng_seed=seed))
        sim.execute()
        got.append((schedule_digest(sim), sim.dropped))
    assert got == EXPECTED[config][policy]
