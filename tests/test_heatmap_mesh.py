"""Tests for heat-map summaries and the Mesh3D ablation topology."""

import numpy as np
import pytest

from repro.metrics.heatmap import downsample, heatmap_summary, render_ascii
from repro.topology.mesh import Mesh3D
from repro.topology.torus import Torus3D

from helpers import make_matrix


class TestDownsample:
    def test_preserves_total_bytes(self):
        m = make_matrix(16, [(0, 1, 100), (15, 3, 50), (7, 8, 25)])
        grid = downsample(m, bins=4)
        assert grid.sum() == 175

    def test_bins_capped_at_ranks(self):
        m = make_matrix(3, [(0, 1, 10)])
        grid = downsample(m, bins=100)
        assert grid.shape == (3, 3)

    def test_blocks_aggregate(self):
        m = make_matrix(4, [(0, 2, 10), (1, 3, 20)])
        grid = downsample(m, bins=2)
        assert grid[0, 1] == 30  # both pairs land in block (0, 1)

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            downsample(make_matrix(4, [(0, 1, 1)]), bins=0)


class TestRenderAscii:
    def test_shape(self):
        m = make_matrix(64, [(i, (i + 1) % 64, 100) for i in range(64)])
        art = render_ascii(m, bins=16)
        lines = art.split("\n")
        assert len(lines) == 16
        assert all(len(line) == 16 for line in lines)

    def test_empty_matrix_blank(self):
        art = render_ascii(make_matrix(8, []), bins=4)
        assert set(art) <= {" ", "\n"}

    def test_heavier_cells_darker(self):
        m = make_matrix(4, [(0, 1, 10**9), (2, 3, 1)])
        art = render_ascii(m, bins=4).split("\n")
        shades = " .:-=+*#%@"
        assert shades.index(art[0][1]) > shades.index(art[2][3])


class TestHeatmapSummary:
    def test_diagonal_share(self):
        m = make_matrix(8, [(0, 1, 90), (0, 7, 10)])
        s = heatmap_summary(m, band=1)
        assert s.diagonal_band_share == pytest.approx(0.9)

    def test_fill(self):
        m = make_matrix(4, [(0, 1, 1), (2, 3, 1)])
        s = heatmap_summary(m)
        assert s.fill == pytest.approx(2 / 12)

    def test_self_traffic_excluded(self):
        m = make_matrix(4, [(0, 0, 10**9), (0, 1, 5)])
        s = heatmap_summary(m)
        assert s.fill == pytest.approx(1 / 12)
        assert s.diagonal_band_share == pytest.approx(1.0)

    def test_concentration(self):
        m = make_matrix(8, [(0, 1, 10**6)] + [(i, 7 - i, 1) for i in range(3)])
        s = heatmap_summary(m)
        assert s.top_pairs_for_90pct == 1
        assert s.concentration < 0.05

    def test_empty(self):
        s = heatmap_summary(make_matrix(4, []))
        assert s.fill == 0.0 and s.gini == 0.0

    def test_lulesh_structure(self, lulesh64_p2p):
        s = heatmap_summary(lulesh64_p2p)
        assert 0.1 < s.fill < 0.5  # 26 of 63 partners
        assert s.gini > 0.3  # faces dominate


class TestMesh3D:
    def test_no_wraparound(self):
        mesh = Mesh3D((4, 1, 1))
        torus = Torus3D((4, 1, 1))
        assert mesh.hops(0, 3) == 3  # torus would wrap in 1
        assert torus.hops(0, 3) == 1

    def test_diameter(self):
        assert Mesh3D((4, 4, 4)).diameter == 9
        assert Torus3D((4, 4, 4)).diameter == 6

    def test_mesh_hops_at_least_torus(self):
        mesh = Mesh3D((4, 4, 4))
        torus = Torus3D((4, 4, 4))
        rng = np.random.default_rng(0)
        src = rng.integers(0, 64, 500)
        dst = rng.integers(0, 64, 500)
        assert np.all(mesh.hops_array(src, dst) >= torus.hops_array(src, dst))

    def test_route_length_equals_hops(self):
        mesh = Mesh3D((3, 3, 3))
        rng = np.random.default_rng(1)
        src = rng.integers(0, 27, 200)
        dst = rng.integers(0, 27, 200)
        inc = mesh.route_incidence(src, dst)
        counted = np.bincount(inc.pair_index, minlength=200)
        assert np.array_equal(counted, mesh.hops_array(src, dst))

    def test_link_count(self):
        mesh = Mesh3D((4, 3, 2))
        assert mesh.num_links == 3 * 3 * 2 + 4 * 2 * 2 + 4 * 3 * 1

    def test_nominal_links_scales(self):
        mesh = Mesh3D((4, 4, 4))
        assert mesh.nominal_links(64) == pytest.approx(mesh.num_links)
        assert mesh.nominal_links(32) == pytest.approx(mesh.num_links / 2)

    def test_wrap_links_never_used(self):
        mesh = Mesh3D((4, 4, 4))
        n = mesh.num_nodes
        src, dst = np.meshgrid(np.arange(n), np.arange(n))
        inc = mesh.route_incidence(src.ravel(), dst.ravel())
        # only (dims-1) links per row exist; all used ids must be owned by
        # nodes that are not at the +end of their dimension
        coords = mesh.coordinates(inc.link_id // 3)
        dims = np.array(mesh.dims)
        owner_dim = (inc.link_id % 3).astype(int)
        at_edge = coords[np.arange(len(owner_dim)), owner_dim] == dims[owner_dim] - 1
        assert not at_edge.any()

    def test_describe(self):
        assert "mesh link" in Mesh3D((2, 2, 2)).describe_link(0)
