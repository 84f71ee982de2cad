"""Version specs, profiles, and the world builder."""

import pytest

from repro.experiments.configs import VERSIONS, version
from repro.experiments.profiles import SMALL, TINY
from repro.experiments.runner import build_world
from repro.faults.types import FaultKind


class TestVersionSpecs:
    def test_all_paper_versions_defined(self):
        for name in ("INDEP", "FE-X-INDEP", "COOP", "FE-X", "MEM", "QMON",
                     "MQ", "FME", "S-FME", "C-MON", "X-SW", "X-SW-RAID"):
            assert name in VERSIONS

    def test_unknown_version(self):
        with pytest.raises(KeyError):
            version("NOPE")

    def test_membership_replaces_ring(self):
        assert version("COOP").ring_detection
        assert not version("MEM").ring_detection

    def test_server_count_includes_extra(self):
        assert version("COOP").server_count == 4
        assert version("FE-X").server_count == 5

    def test_with_nodes(self):
        spec = version("FME").with_nodes(8)
        assert spec.n_nodes == 8 and spec.server_count == 9
        assert spec.name == "FME-8"

    def test_with_nodes_name_resolves_to_the_spec(self):
        for registered in VERSIONS.values():
            for n in (4, 8):
                spec = registered.with_nodes(n)
                assert version(spec.name) == spec
                assert version(spec.name.lower()) == spec

    def test_catalog_transforms_applied(self):
        from repro.faults.faultload import YEAR, table1_catalog

        cat = version("X-SW").transform_catalog(
            table1_catalog(5, with_frontend=True))
        assert cat[FaultKind.SWITCH_DOWN].mttf > 100 * YEAR
        plain = version("C-MON").transform_catalog(
            table1_catalog(5, with_frontend=True))
        assert plain[FaultKind.SWITCH_DOWN].mttf == YEAR


class TestProfiles:
    def test_scaled_rates(self):
        scaled = SMALL.scaled_rates(8)
        assert scaled.coop_rate == pytest.approx(2 * SMALL.coop_rate)

    def test_with_cache_files(self):
        assert SMALL.with_cache_files(60).press.cache_files == 60

    def test_tiny_is_lighter(self):
        assert TINY.coop_rate < SMALL.coop_rate


class TestBuildWorld:
    def test_coop_world_shape(self):
        world = build_world(version("COOP"), SMALL)
        assert len(world.hosts) == 4
        assert len(world.disks) == 8
        assert world.frontend is None
        assert not world.membership_daemons and not world.fme_daemons
        assert world.offered_rate == SMALL.coop_rate

    def test_full_stack_world_shape(self):
        world = build_world(version("C-MON"), SMALL)
        assert len(world.hosts) == 5
        assert world.frontend is not None
        assert world.sfme is not None
        assert len(world.membership_daemons) == 5
        assert len(world.fme_daemons) == 5
        for srv in world.servers:
            assert srv.shared_view is not None
            assert srv.config.queue_monitoring
            assert not srv.config.ring_detection

    def test_indep_world_has_no_cluster_faults(self):
        world = build_world(version("INDEP"), SMALL)
        kinds = world.injectable_kinds()
        assert FaultKind.LINK_DOWN not in kinds
        assert FaultKind.SWITCH_DOWN not in kinds
        assert FaultKind.NODE_CRASH in kinds

    def test_frontend_fault_only_with_frontend(self):
        assert FaultKind.FRONTEND_FAILURE not in build_world(
            version("COOP"), SMALL).injectable_kinds()
        assert FaultKind.FRONTEND_FAILURE in build_world(
            version("FE-X"), SMALL).injectable_kinds()

    def test_default_targets(self):
        world = build_world(version("FE-X"), SMALL)
        assert world.default_target(FaultKind.NODE_CRASH) == "n1"
        assert world.default_target(FaultKind.SCSI_TIMEOUT) == "n1.disk0"
        assert world.default_target(FaultKind.SWITCH_DOWN) == "switch0"
        assert world.default_target(FaultKind.FRONTEND_FAILURE) == "fe0"

    def test_rate_scales_with_nodes(self):
        world = build_world(version("COOP").with_nodes(8), SMALL)
        assert world.offered_rate == pytest.approx(2 * SMALL.coop_rate)

    def test_catalog_counts_match_cluster(self):
        world = build_world(version("FE-X"), SMALL)
        assert world.catalog[FaultKind.NODE_CRASH].count == 5
        assert world.catalog[FaultKind.SCSI_TIMEOUT].count == 10

    def test_host_and_server_lookup(self):
        world = build_world(version("COOP"), SMALL)
        assert world.host_by_name("n2").node_id == 2
        assert world.server_on("n2").node_id == 2
        with pytest.raises(KeyError):
            world.host_by_name("zz")
