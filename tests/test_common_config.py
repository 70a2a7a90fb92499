"""Unit tests for the configuration dataclasses (Table 1 / TSE parameters)."""

import pytest

from repro.common.config import (
    PAPER_LOOKAHEAD,
    CacheConfig,
    InterconnectConfig,
    SystemConfig,
    TSEConfig,
)


class TestCacheConfig:
    def test_paper_l2_geometry(self):
        l2 = SystemConfig.isca2005().l2
        assert l2.size_bytes == 8 * 1024 * 1024
        assert l2.associativity == 8
        assert l2.num_blocks == 131072
        assert l2.num_sets == 16384

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size_bytes": 0, "associativity": 2},
            {"size_bytes": 1024, "associativity": 0},
            {"size_bytes": 1024, "associativity": 2, "block_size": 48},
            {"size_bytes": 1000, "associativity": 2},
        ],
    )
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CacheConfig(**kwargs)


class TestTSEConfig:
    def test_paper_default_matches_section5(self):
        config = TSEConfig.paper_default()
        assert config.compared_streams == 2
        assert config.svb_entries == 32
        assert config.svb_bytes == 2048
        assert config.cmob_capacity_bytes == pytest.approx(1.5 * 1024 * 1024)

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
        assert system.cycles_to_ns(system.ns_to_cycles(60.0)) == pytest.approx(60.0)

    def test_mismatched_interconnect_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(num_nodes=8, interconnect=InterconnectConfig(width=4, height=4))

    def test_small_config_builds_valid_torus(self):
        for nodes in (2, 4, 8, 16):
            system = SystemConfig.small(nodes)
            assert system.num_nodes == nodes
            assert system.interconnect.num_nodes == nodes
