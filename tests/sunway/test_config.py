"""Tests for the SW26010 / TaihuLight machine parameters (paper Table II, Sec. IV)."""

import pytest

from repro.sunway.config import SunwayMachine, CoreGroupConfig, SW26010, table2_rows


def test_cg_core_counts_match_paper():
    # "each CG is made up of one MPE and 64 CPEs"
    assert SW26010.num_cpes == 64
    # "an on-chip 64KB scratch pad memory ... attached to each CPE"
    assert SW26010.ldm_bytes == 64 * 1024


def test_cg_peak_rates_match_paper():
    # "Performance of the MPE is 23.2 Gflop/s, and that is 742.4 Gflop/s
    #  for the cluster of CPEs."
    assert SW26010.mpe_peak_flops == pytest.approx(23.2e9)
    assert SW26010.cpe_cluster_peak_flops == pytest.approx(742.4e9)
    assert SW26010.peak_flops == pytest.approx(765.6e9)
    # single CPE: 11.6 Gflop/s
    assert SW26010.cpe_cluster_peak_flops / SW26010.num_cpes == pytest.approx(11.6e9)


def test_mpe_contributes_three_percent():
    # "the MPE only contributes 3% of the aggregated performance"
    share = SW26010.mpe_peak_flops / SW26010.peak_flops
    assert 0.025 < share < 0.035


def test_node_performance_matches_table2():
    # Table II: node (4 CGs) performance 3.06 Tflop/s
    assert 4 * SW26010.peak_flops == pytest.approx(3.0624e12)


def test_machine_aggregates():
    m = SunwayMachine(num_cgs=128)
    assert m.total_cores == 128 * 65  # 8320 cores, as in Sec. VII-A
    assert m.peak_flops == pytest.approx(128 * 765.6e9)


def test_machine_rejects_zero_cgs():
    with pytest.raises(ValueError):
        SunwayMachine(num_cgs=0)


def test_config_is_hashable_and_frozen():
    cfg = CoreGroupConfig()
    assert hash(cfg) == hash(CoreGroupConfig())
    with pytest.raises(Exception):
        cfg.num_cpes = 32  # type: ignore[misc]


def test_table2_rows_shape():
    rows = table2_rows()
    assert len(rows) == 6
    items = dict(rows)
    assert items["Node cores"] == "4 MPEs + 256 CPEs, 260 cores"
    assert "3.06" in items["Node Performance"]
