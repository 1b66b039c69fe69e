"""End-to-end detector checks through the real concurrent pipeline.

The positive control: racecheck's ``plant`` scenario wires a rogue
``add_done_callback`` callback that mutates the disk server's
protection map from the completion-delivery task while a concurrent
batch reads it — the detector MUST flag it, or it could not be trusted
to clear the real pipeline.  The negative side: the genuine pipeline
and scrubber traffic must come out clean, and byte-identically so.
"""

from __future__ import annotations

import json

from repro.tools import racecheck


class TestPlantedInterference:
    def test_the_plant_is_flagged(self):
        result = racecheck.run_scenario("plant")
        assert result["expect_findings"] is True
        assert result["ok"] is True
        assert result["findings"], "the planted race went undetected"
        finding = result["findings"][0]
        sites = {finding["first"]["site"], finding["second"]["site"]}
        assert "server.record_checksums" in sites
        assert "server.verify_extent" in sites
        # (chaos volumes run the audited subclass of the disk server)
        assert "DiskServer.protection" in finding["structure"]

    def test_plant_endpoints_are_the_rogue_tasks(self):
        result = racecheck.run_scenario("plant")
        finding = result["findings"][0]
        labels = {
            finding["first"]["task_label"],
            finding["second"]["task_label"],
        }
        # one side delivered in an event task, the other a service batch
        assert any("event" in label for label in labels)
        assert any("batch" in label for label in labels)

    def test_no_hb_invariant_violations(self):
        result = racecheck.run_scenario("plant")
        assert result["hb_violations"] == []


class TestRealPipelineIsClean:
    def test_pipeline_scenario_has_no_findings(self):
        result = racecheck.run_scenario("pipeline")
        assert result["findings"] == []
        assert result["hb_violations"] == []
        assert result["ok"] is True
        # the scenario exercised real concurrency, not a trivial run
        assert result["tasks"] > 10
        assert result["accesses"] > 50

    def test_report_is_byte_deterministic(self):
        first = json.dumps(racecheck.run(["plant"]), sort_keys=True)
        second = json.dumps(racecheck.run(["plant"]), sort_keys=True)
        assert first == second
