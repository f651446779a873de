"""Golden trace digests: the determinism contract for both protocols.

A change that claims to keep behaviour (a refactor, a speedup) must leave
every digest below byte-identical. A change that moves one on purpose
re-records it here and says why.
"""

from pathlib import Path

import pytest

from manetsim import parse_scenario, run_scenario

BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.scn"

# (protocol, node_count, seed) -> sha256 of the run's trace text
GOLDEN = {
    ("aodv", 20, 1): "153eeca5642facd65d0e2bb85fad5396620d293ed7d6d2011650ed07faa065e7",
    ("aodv", 20, 2): "f0b09322609a5fc3b38ef5bb8ad1f408d3d451582cfea17eb59f34103458b39a",
    ("aodv", 20, 3): "f77737cc61879cc973f781bb63b8f75db8c4c7f5512fc3006ff3945cf9ba421a",
    ("maodv", 20, 1): "9fb4f6e50e9d420609e338324575601cf68a4138f2928e3c6d1ac130f6179634",
    ("maodv", 20, 2): "75cdee965e7a77efd001a0b1f0bd196124f31e3711c771173f5c3ee361d9dae6",
    ("maodv", 20, 3): "bf2f9fd29872d9093d2e217c00e4fb6d9a26e892cb8a99aeae80fd6725416599",
    ("aodv", 100, 1): "18fc2cc18f960fd27b4368ca307bdc40f5314c578634931f17e04314888b0830",
    ("aodv", 100, 2): "c65453e514e1d08714a97cdbc986948394d0953dbb6b2f69909c1c0fdd3257ed",
    ("aodv", 100, 3): "515917023705ded4176a169d25fea81306da492e8d50e263f5b2f05789fbaf77",
    ("maodv", 100, 1): "c92acd168ddc149b4a64fa645ad396964a1a287a03e7318d3dad5aa758c4c4e8",
    ("maodv", 100, 2): "10fa4b55e6f0161e2875d90c3780d91faa213dd748de4107429cc2bad1c47420",
    ("maodv", 100, 3): "912fbb6f3a499d03359874400b7ed6c5705ef2a90c1b5a27c17f88cd2d82d54f",
}


@pytest.mark.parametrize("protocol,node_count,seed", sorted(GOLDEN))
def test_baseline_trace_digest(protocol, node_count, seed):
    base = parse_scenario(BASELINE.read_text(), "baseline")
    sc = base.variant(protocol=protocol, node_count=node_count, master_seed=seed)
    result = run_scenario(sc, with_trace=True)
    assert result.energy_closed
    assert result.trace_digest() == GOLDEN[protocol, node_count, seed]
