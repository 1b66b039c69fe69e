"""Cluster configuration knobs and presets."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.file_service.cache import WritePolicy
from repro.rpc.bus import FaultProfile
from repro.simdisk.geometry import DiskGeometry
from repro.transactions.lock_manager import TimeoutPolicy


class TestDefaults:
    def test_paper_shaped_defaults(self):
        config = ClusterConfig()
        server = RhodosCluster(config).disk_servers[0]
        table = server.extent_table
        assert (table.rows, table.columns) == (64, 64)  # the paper's array
        assert server.cache.readahead is True  # the paper's track cache
        assert config.commit_technique == "auto"  # the paper's WAL/shadow rule
        assert config.write_policy is WritePolicy.DELAYED
        assert config.fault_profile is None  # direct calls by default

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_machines=0)
        with pytest.raises(ValueError):
            ClusterConfig(n_disks=-1)
        for knob in (
            "client_cache_blocks", "server_cache_blocks", "disk_cache_tracks"
        ):
            with pytest.raises(ValueError, match=knob):
                ClusterConfig(**{knob: -1})
            assert getattr(ClusterConfig(**{knob: 0}), knob) == 0  # 0 = off
        with pytest.raises(ValueError, match="replication degree"):
            ClusterConfig(replication_degree=0)


class TestPresets:
    def test_bullet_style(self):
        config = ClusterConfig.bullet_style()
        assert config.client_cache_blocks == 0
        assert config.server_cache_blocks > 0  # server caching stays

    def test_bullet_style_accepts_overrides(self):
        config = ClusterConfig.bullet_style(n_disks=3, seed=7)
        assert config.n_disks == 3
        assert config.seed == 7
        assert config.client_cache_blocks == 0

    def test_uncached(self):
        config = ClusterConfig.uncached()
        assert config.client_cache_blocks == 0
        assert config.server_cache_blocks == 0
        assert config.disk_cache_tracks == 0
        # No track cache, so nothing reads ahead.
        assert RhodosCluster(config).disk_servers[0].cache is None


class TestComposition:
    def test_custom_everything(self):
        config = ClusterConfig(
            n_machines=4,
            n_disks=2,
            geometry=DiskGeometry.small(),
            timeout_policy=TimeoutPolicy(lt_us=123_000, max_renewals=7),
            commit_technique="shadow",
            fault_profile=FaultProfile(latency_us=250),
            replication_degree=2,
        )
        assert config.timeout_policy.lt_us == 123_000
        assert config.commit_technique == "shadow"
        assert config.fault_profile.latency_us == 250

    def test_geometry_objects_shared_not_copied(self):
        geometry = DiskGeometry.small()
        config = ClusterConfig(geometry=geometry)
        assert config.geometry is geometry
