"""The availability campaign: determinism, SLO verdicts, CLI surface."""

import json
from pathlib import Path

import pytest

from repro.chaos.availability import (
    BREAKER,
    SCENARIOS,
    decode_version,
    recovery_allowance_us,
    run_campaign,
    run_scenario,
    version_content,
)

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[2] / "AVAILABILITY_pr39.json").read_text()
)["scenarios"]


def run(name):
    return run_scenario(SCENARIOS[name])


def assert_golden(name, report):
    """The report is, value for value, the committed artifact's entry."""
    assert json.loads(json.dumps(report)) == GOLDEN[name]


class TestScenarioCatalogue:
    def test_one_registry_in_campaign_order(self):
        # --all and --list run in this order; a duplicate name would
        # silently drop an entry and show up here.
        assert list(SCENARIOS) == [
            "clean_restarts",
            "lossy_bus",
            "reorder_heavy",
            "back_to_back",
            "scrub_latent_rot",
            "scrub_media_errors",
            "raid_member_loss",
            "raid_rebuild_interrupted",
            "shard_death_metadata_storm",
            "rebalance_interrupted",
        ]
        assert all(name == s.name for name, s in SCENARIOS.items())
        assert set(SCENARIOS) == set(GOLDEN)

    def test_smoke_is_the_fast_subset(self):
        smoke = [name for name, s in SCENARIOS.items() if s.smoke]
        assert smoke == ["clean_restarts", "lossy_bus"]

    def test_allowance_is_parametric(self):
        scenario = SCENARIOS["clean_restarts"]
        allowance = recovery_allowance_us(scenario, 20_000)
        # The bound is built from configured constants: breaker
        # cooldown plus one worst-case slow call plus slack — so it
        # moves when the policies move, never by empirical tuning.
        assert allowance > 150_000  # at least the breaker cooldown
        assert allowance < 2_000_000  # and far below a whole run
        # The RPC timeout is read from the client the cluster built:
        # move the client's timeout and the bound moves with it.
        campaign = scenario.runner(scenario)
        client = campaign.cluster.file_client
        assert campaign.allowance_us() == recovery_allowance_us(
            scenario, client.timeout_us
        )
        before = campaign.allowance_us()
        client.timeout_us += 5_000
        assert campaign.allowance_us() == before + BREAKER.threshold * 5_000


class TestDecodeVersion:
    """``decode_version`` picks the match nearest the reference."""

    @pytest.mark.parametrize("reference", [0, 250, 300, 600])
    def test_versions_around_the_reference(self, reference):
        for version in (reference - 1, reference, reference + 1):
            if version >= 0:
                data = version_content(version, 8)
                assert decode_version(data, reference) == version

    def test_wrap_around_does_not_read_as_stale(self):
        # 301 and 50 share a byte; near reference 300 it is 301.
        assert decode_version(version_content(301, 8), 300) == 301

    def test_torn_and_empty_input(self):
        assert decode_version(b"", 5) is None
        assert decode_version(b"\x05\x05\x06", 5) is None
        assert decode_version(b"\x00" * 8, 5) is None  # never written


class TestCleanRestarts:
    """One full scenario execution, shared across the assertions."""

    @pytest.fixture(scope="class")
    def report(self):
        return run("clean_restarts")

    def test_matches_the_committed_artifact(self, report):
        assert_golden("clean_restarts", report)

    def test_passes_its_slo(self, report):
        assert report["status"] == "pass"
        assert report["violations"] == []

    def test_crashes_really_happened(self, report):
        counters = report["counters"]
        assert counters["recovery.crashes_injected"] == 2
        assert counters["recovery.restarts_injected"] == 2
        assert counters["cluster.volume_failures"] == 2
        # The workload really hit the dead volumes: failovers and
        # skip-down routing occurred, then resync repaired the replicas.
        assert counters["replication.failovers"] > 0
        assert counters["replication.resyncs_verified"] > 0
        assert counters["health.recoveries"] >= 2

    def test_writes_made_progress(self, report):
        acked = report["final_versions"]["acked"]
        assert all(version > 0 for version in acked.values())
        assert report["final_versions"]["agent_writes_acked"] > 0

    def test_unavailability_bounded(self, report):
        unavailability = report["unavailability"]
        assert unavailability["out_of_bound"] == []
        allowance = recovery_allowance_us(SCENARIOS["clean_restarts"], 20_000)
        assert unavailability["allowance_us"] == allowance

    def test_deterministic_and_json_clean(self, report):
        # Byte-for-byte reproducibility is the whole contract: the
        # same scenario serialises identically on a second run.
        again = run("clean_restarts")
        assert json.dumps(report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )


class TestScrubScenarios:
    """PR 6: the two media-failure scenarios and their SLOs."""

    @pytest.fixture(scope="class")
    def rot_report(self):
        return run("scrub_latent_rot")

    @pytest.fixture(scope="class")
    def media_report(self):
        return run("scrub_media_errors")

    def test_match_the_committed_artifact(self, rot_report, media_report):
        assert_golden("scrub_latent_rot", rot_report)
        assert_golden("scrub_media_errors", media_report)

    def test_rot_scenario_passes_both_slos(self, rot_report):
        assert rot_report["status"] == "pass"
        assert rot_report["violations"] == []

    def test_injected_corruptions_all_found_and_repaired(self, rot_report):
        scenario = SCENARIOS["scrub_latent_rot"]
        injected = set(rot_report["injected"]["fragments"])
        assert len(injected) == scenario.targets
        found = {start for _, _, _, start, _, _ in rot_report["findings"]}
        assert injected <= found
        # SLO-1: the volume is clean within the bounded cycle budget.
        assert 1 <= rot_report["cycles_to_clean"] <= scenario.max_cycles

    def test_repairs_used_both_redundancy_tiers(self, rot_report):
        counters = rot_report["counters"]
        # Mirrored extents (the FIT) healed locally from stable...
        assert counters["disk_server.0.stable_repairs"] >= 1
        # ...and plain data fragments were quarantined and resynced
        # from a peer replica through the recovery health machinery.
        assert rot_report["routed_to_replication"] > 0
        assert counters["replication.media_quarantines"] >= 1
        assert counters["replication.resyncs_verified"] >= 1

    def test_no_corrupt_byte_reached_a_client(self, rot_report):
        # SLO-2: every client-path read during the scenario was either
        # bit-exact or a loud error — reads_checked counts the former,
        # direct_read_errors the latter; a silent wrong byte would have
        # been a violation.
        assert rot_report["reads_checked"] > 0
        assert rot_report["violations"] == []

    def test_media_error_scenario_passes(self, media_report):
        assert media_report["status"] == "pass"
        assert media_report["violations"] == []
        assert media_report["injected"]["kind"] == "media"
        assert any(
            kind == "media" for _, _, kind, _, _, _ in media_report["findings"]
        )

    def test_scrub_reports_are_deterministic(self, rot_report):
        again = run("scrub_latent_rot")
        assert json.dumps(rot_report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )


class TestRaidScenarios:
    """PR 9: the two RAID-tier scenarios and their SLOs."""

    @pytest.fixture(scope="class")
    def loss_report(self):
        return run("raid_member_loss")

    @pytest.fixture(scope="class")
    def interrupted_report(self):
        return run("raid_rebuild_interrupted")

    def test_match_the_committed_artifact(self, loss_report, interrupted_report):
        assert_golden("raid_member_loss", loss_report)
        assert_golden("raid_rebuild_interrupted", interrupted_report)

    def test_member_loss_passes_its_slo(self, loss_report):
        assert loss_report["status"] == "pass"
        assert loss_report["violations"] == []

    def test_volume_served_through_the_degraded_window(self, loss_report):
        # Zero failed operations is the whole point: unlike a volume
        # crash, member loss must cost no availability at all — and the
        # coverage counters prove the window was actually traversed.
        ops = loss_report["ops"]
        assert ops["reads_degraded"] > 0
        assert ops["writes_degraded"] > 0
        counters = loss_report["counters"]
        assert counters["raid.0.degraded_reads"] > 0
        assert counters["raid.0.degraded_writes"] > 0
        # Degraded partial-row updates armed the write-intent journal.
        assert counters["raid.0.journal_arms"] > 0

    def test_member_loss_walks_the_state_machine(self, loss_report):
        transitions = [
            (old, new) for _, old, new in loss_report["state_log"]
        ]
        assert transitions == [
            ("OPTIMAL", "DEGRADED"),
            ("DEGRADED", "REBUILDING"),
            ("REBUILDING", "OPTIMAL"),
        ]
        assert loss_report["counters"]["raid.0.rebuild.chunks"] > 0
        assert len(loss_report["member_windows"]) == 1

    def test_interrupted_rebuild_degrades_instead_of_failing(
        self, interrupted_report
    ):
        assert interrupted_report["status"] == "pass"
        assert interrupted_report["violations"] == []
        transitions = [
            (old, new) for _, old, new in interrupted_report["state_log"]
        ]
        # The second kill lands mid-rebuild: REBUILDING -> DEGRADED
        # (never FAILED — three healthy members remain), then the
        # second replacement rebuilds to OPTIMAL before the finale.
        assert ("REBUILDING", "DEGRADED") in transitions
        assert transitions.count(("REBUILDING", "OPTIMAL")) == 1
        scripted = transitions[: transitions.index(("REBUILDING", "OPTIMAL")) + 1]
        assert all(new != "FAILED" for _, new in scripted)
        assert interrupted_report["counters"]["cluster.member_replacements"] == 2

    def test_exhausted_redundancy_fails_loudly(self, interrupted_report):
        finale = interrupted_report["finale"]
        assert finale["state"] == "FAILED"
        assert finale["reads_served"] == 0
        assert finale["reads_refused"] > 0
        assert finale["health_down"] is True

    def test_raid_reports_are_deterministic(self, loss_report):
        again = run("raid_member_loss")
        assert json.dumps(loss_report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )


class TestShardScenarios:
    """PR 10: the two sharded-namespace scenarios and their SLOs."""

    @pytest.fixture(scope="class")
    def storm_report(self):
        return run("shard_death_metadata_storm")

    @pytest.fixture(scope="class")
    def rebalance_report(self):
        return run("rebalance_interrupted")

    def test_match_the_committed_artifact(self, storm_report, rebalance_report):
        assert_golden("shard_death_metadata_storm", storm_report)
        assert_golden("rebalance_interrupted", rebalance_report)

    def test_storm_passes_its_slo(self, storm_report):
        assert storm_report["status"] == "pass"
        assert storm_report["violations"] == []

    def test_storm_really_killed_a_shard(self, storm_report):
        counters = storm_report["counters"]
        assert counters["recovery.shard_kills_injected"] == 1
        assert counters["recovery.shard_restarts_injected"] == 1
        assert counters["cluster.shard_failures"] == 1
        # Reads of acked names crossed the dead shard and failed over
        # to the replica peer; the restart resynced the primary table.
        assert counters["naming_shard.failovers"] > 0
        assert counters["naming_shard.resyncs"] >= 1
        assert len(storm_report["shard_windows"]) == 1

    def test_storm_resolves_never_failed(self, storm_report):
        ops = storm_report["ops"]
        assert ops["failed_resolves"] == 0
        assert ops["resolves"] > 0
        # Binds may fail while the shard is down — but only there; an
        # out-of-window failure would have been a violation.
        assert storm_report["final_versions"]["acked_bindings"] > 0

    def test_rebalance_passes_its_slo(self, rebalance_report):
        assert rebalance_report["status"] == "pass"
        assert rebalance_report["violations"] == []

    def test_rebalance_aborted_then_completed(self, rebalance_report):
        counters = rebalance_report["counters"]
        assert counters["naming_shard.migrations_started"] == 2
        assert counters["naming_shard.migrations_aborted"] == 1
        assert counters["naming_shard.migrations_completed"] == 1
        assert counters["cluster.shards_added"] == 1
        # Not one resolve missed at any watermark position.
        assert rebalance_report["ops"]["failed_resolves"] == 0

    def test_shard_reports_are_deterministic(self, storm_report):
        again = run("shard_death_metadata_storm")
        assert json.dumps(storm_report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )


class TestCampaign:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            run_campaign(["no_such_scenario"])

    def test_document_shape(self):
        document = run_campaign(["clean_restarts"])
        assert document["schema_version"] == 1
        assert document["suite"] == "repro-availability"
        assert set(document["scenarios"]) == {"clean_restarts"}

    @pytest.mark.parametrize(
        "name", ["lossy_bus", "reorder_heavy", "back_to_back"]
    )
    def test_remaining_scenarios_match_the_committed_artifact(self, name):
        assert_golden(name, run(name))

    def test_campaign_dispatches_scrub_scenarios(self):
        document = run_campaign(["scrub_media_errors"])
        assert set(document["scenarios"]) == {"scrub_media_errors"}
        assert document["scenarios"]["scrub_media_errors"]["status"] == "pass"
