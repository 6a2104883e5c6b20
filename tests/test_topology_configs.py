"""Tests for the Table-2 configuration selection."""

import pytest

from repro.topology.configs import (
    TABLE2,
    TABLE2_SIZES,
    TOPOLOGY_KINDS,
    build_all,
    build_topology,
    config_for,
    dragonfly_params_for,
    fat_tree_stages_for,
    torus_dims_for,
)

# the paper's Table 2, verbatim
PAPER_TABLE2 = {
    8: ((2, 2, 2), 1, (4, 2, 2)),
    9: ((3, 2, 2), 1, (4, 2, 2)),
    10: ((3, 2, 2), 1, (4, 2, 2)),
    18: ((3, 3, 2), 1, (4, 2, 2)),
    27: ((3, 3, 3), 1, (4, 2, 2)),
    64: ((4, 4, 4), 2, (4, 2, 2)),
    100: ((5, 5, 4), 2, (6, 3, 3)),
    125: ((5, 5, 5), 2, (6, 3, 3)),
    144: ((6, 6, 4), 2, (6, 3, 3)),
    168: ((7, 6, 4), 2, (6, 3, 3)),
    216: ((6, 6, 6), 2, (6, 3, 3)),
    256: ((8, 8, 4), 2, (6, 3, 3)),
    512: ((8, 8, 8), 2, (8, 4, 4)),
    1000: ((10, 10, 10), 3, (8, 4, 4)),
    1024: ((16, 8, 8), 3, (8, 4, 4)),
    1152: ((12, 12, 8), 3, (10, 5, 5)),
    1728: ((12, 12, 12), 3, (10, 5, 5)),
}


class TestTable2Verbatim:
    @pytest.mark.parametrize("size", sorted(PAPER_TABLE2))
    def test_row(self, size):
        torus, stages, ahp = PAPER_TABLE2[size]
        cfg = TABLE2[size]
        assert cfg.torus_dims == torus
        assert cfg.fat_tree_stages == stages
        assert cfg.dragonfly_ahp == ahp

    def test_sizes(self):
        assert TABLE2_SIZES == tuple(sorted(PAPER_TABLE2))

    @pytest.mark.parametrize(
        "size,nodes", [(8, 8), (100, 100), (1024, 1024), (1728, 1728)]
    )
    def test_torus_node_counts(self, size, nodes):
        assert TABLE2[size].torus_nodes >= size

    def test_paper_node_columns(self):
        cfg = TABLE2[1152]
        assert cfg.torus_nodes == 1152
        assert cfg.fat_tree_nodes == 13824
        assert cfg.dragonfly_nodes == 2550


class TestSelectors:
    def test_torus_fits(self):
        for n in (5, 50, 300, 2000):
            dims = torus_dims_for(n)
            assert dims[0] * dims[1] * dims[2] >= n
            assert dims[0] >= dims[1] >= dims[2]

    def test_fat_tree_stage_thresholds(self):
        assert fat_tree_stages_for(48) == 1
        assert fat_tree_stages_for(49) == 2
        assert fat_tree_stages_for(576) == 2
        assert fat_tree_stages_for(577) == 3
        with pytest.raises(ValueError):
            fat_tree_stages_for(20000)

    def test_dragonfly_smallest_standard(self):
        assert dragonfly_params_for(72) == (4, 2, 2)
        assert dragonfly_params_for(73) == (6, 3, 3)
        assert dragonfly_params_for(2550) == (10, 5, 5)

    def test_config_for_off_table_size(self):
        cfg = config_for(40)
        assert cfg.torus_nodes >= 40
        assert cfg.fat_tree_nodes >= 40
        assert cfg.dragonfly_nodes >= 40

    def test_validation(self):
        with pytest.raises(ValueError):
            torus_dims_for(0)
        with pytest.raises(ValueError):
            fat_tree_stages_for(-1)
        with pytest.raises(ValueError):
            dragonfly_params_for(0)


class TestBuildAll:
    def test_builds_three_topologies(self):
        topos = build_all(64)
        assert set(topos) == {"torus3d", "fattree", "dragonfly"}
        assert topos["torus3d"].num_nodes == 64
        assert topos["fattree"].num_nodes == 576
        assert topos["dragonfly"].num_nodes == 72
        for t in topos.values():
            assert t.num_nodes >= 64

    def test_keys_follow_topology_kinds(self):
        assert tuple(build_all(100)) == TOPOLOGY_KINDS


class TestBuildTopology:
    @pytest.mark.parametrize("ranks", [8, 100, 1000])
    def test_matches_config_builders(self, ranks):
        cfg = config_for(ranks)
        built = {kind: build_topology(kind, ranks) for kind in TOPOLOGY_KINDS}
        assert built["torus3d"].fingerprint() == cfg.build_torus().fingerprint()
        assert built["fattree"].fingerprint() == cfg.build_fat_tree().fingerprint()
        assert built["dragonfly"].fingerprint() == cfg.build_dragonfly().fingerprint()
        for kind, topo in built.items():
            assert topo.kind == kind

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown topology 'hypercube'"):
            build_topology("hypercube", 64)
