"""Unit tests for the configuration dataclasses (Table 1 / TSE parameters)."""

import pathlib

import pytest

from repro.common.config import (
    PAPER_LOOKAHEAD,
    InterconnectConfig,
    SystemConfig,
    TSEConfig,
)


class TestCacheConfig:
    def test_paper_l2_timing(self):
        """The Table 1 L2 parameters the timing model reads."""
        l2 = SystemConfig.isca2005().l2
        assert l2.hit_latency == 25
        assert l2.mshrs == 32


class TestTSEConfig:
    def test_paper_default_matches_section5(self):
        config = TSEConfig.paper_default()
        assert config.compared_streams == 2
        assert config.svb_entries * 64 == 2048  # 2 KB of 64-byte blocks
        assert config.cmob_capacity * config.cmob_entry_bytes == 1.5 * 1024 * 1024

    def test_auto_queue_depth_and_refill(self):
        config = TSEConfig(stream_lookahead=8)
        assert config.queue_depth == 16
        assert config.refill_threshold == 8

    def test_with_override(self):
        config = TSEConfig.paper_default().with_(svb_entries=64)
        assert config.svb_entries == 64
        assert config.compared_streams == 2

    def test_unconstrained_is_huge(self):
        config = TSEConfig.unconstrained()
        assert config.svb_entries >= 1 << 20
        assert config.cmob_capacity >= 1 << 24

    @pytest.mark.parametrize("field,value", [
        ("cmob_capacity", 0), ("compared_streams", 0), ("svb_entries", 0),
        ("stream_queues", 0), ("stream_lookahead", -1),
        ("cmob_pointers_per_block", 1), ("cmob_pointers_per_block", 0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            TSEConfig(**{field: value})

    def test_paper_lookahead_table(self):
        assert PAPER_LOOKAHEAD["em3d"] == 18
        assert PAPER_LOOKAHEAD["ocean"] == 24
        assert all(PAPER_LOOKAHEAD[w] == 8 for w in ("apache", "db2", "oracle", "zeus"))


class TestSystemConfig:
    def test_isca2005_is_16_node_torus(self):
        system = SystemConfig.isca2005()
        assert system.num_nodes == 16
        assert system.interconnect.width == 4 and system.interconnect.height == 4
        assert system.clock_ghz == 4.0

    def test_cycle_conversions_round_trip(self):
        system = SystemConfig.isca2005()
        assert system.ns_to_cycles(25.0) == pytest.approx(100.0)
        assert system.ns_to_cycles(60.0) == pytest.approx(240.0)

    def test_mismatched_interconnect_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(num_nodes=8, interconnect=InterconnectConfig(width=4, height=4))

    def test_readme_table_1_lists_the_modelled_values(self):
        """README's Table 1 shows the values ``isca2005()`` carries."""
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("## Simulated system (Table 1)")[1].split("\n## ")[0]
        rows = {
            cells[1].strip(): cells[2]
            for cells in (line.split("|") for line in table.splitlines())
            if len(cells) > 3
        }
        system = SystemConfig.isca2005()
        processor, l2, net = system.processor, system.l2, system.interconnect
        assert rows["Nodes"].strip() == str(system.num_nodes)
        assert f"{processor.clock_ghz:g} GHz" in rows["Processor"]
        assert f"{processor.rob_entries}-entry ROB" in rows["Processor"]
        assert f"{l2.hit_latency}-cycle hit, {l2.mshrs} MSHRs" in rows["L2 cache"]
        assert f"{system.memory.access_latency_ns:g} ns access" in rows["Memory"]
        assert (f"{net.width}×{net.height} 2D torus, {net.hop_latency_ns:g} ns per hop, "
                f"{net.bisection_bandwidth_gbps:g} GB/s") in rows["Interconnect"]
        assert (f"{system.protocol_controller_occupancy_ns:g} ns occupancy"
                in rows["Protocol controller"])
