"""Template generality: the methodology applied to the 3-tier bookstore.

The paper: "we have also applied the same template to a 3-tier on-line
bookstore based on the TPC-W benchmark".  This benchmark fits templates
for the bookstore's characteristic faults and evaluates the analytic
model under the bookstore's fault catalog.
"""

from repro.bookstore import build_bookstore
from repro.core.model import AvailabilityModel, EnvironmentParams
from repro.core.report import format_model_result
from repro.core.template import TemplateFitter
from repro.faults.campaign import CampaignConfig, SingleFaultCampaign
from repro.faults.types import FaultKind

CAMPAIGN = CampaignConfig(warmup=40.0, normal_window=15.0, fault_active=60.0,
                          post_repair_observe=45.0, post_reset_observe=30.0)

KINDS = (FaultKind.NODE_CRASH, FaultKind.NODE_FREEZE, FaultKind.APP_CRASH,
         FaultKind.APP_HANG, FaultKind.SCSI_TIMEOUT)


def quantify_bookstore(db_faults: bool):
    fitter = TemplateFitter()
    templates = {}
    normals = []
    for kind in KINDS:
        world = build_bookstore(rate=120.0, seed=13)
        target = world.db_target(kind) if db_faults else world.default_target(kind)
        trace = SingleFaultCampaign(world, CAMPAIGN).run(kind, target)
        templates[kind] = fitter.fit(trace)
        normals.append(trace.normal_tput)
    world = build_bookstore(rate=120.0, seed=13)
    model = AvailabilityModel(world.catalog, EnvironmentParams())
    label = "BOOKSTORE-db" if db_faults else "BOOKSTORE-app"
    result = model.evaluate(templates, sum(normals) / len(normals),
                            world.offered_rate, version=label)
    return result, templates


def test_bookstore_availability_quantified():
    result, templates = quantify_bookstore(db_faults=True)
    print()
    print(format_model_result(result))
    # Failover makes db-node crashes short outages: availability stays high.
    assert result.availability > 0.995
    # The template structure holds: crash = stall (A) then failover (C).
    crash = templates[FaultKind.NODE_CRASH]
    assert crash.stage("A").throughput < 0.5 * crash.normal_tput
    assert crash.stage("C").throughput > 0.7 * crash.normal_tput
    # The disk fault is the worst per-fault contributor relative to its
    # MTTR: nothing detects it, so the whole MTTR is degraded.
    scsi = templates[FaultKind.SCSI_TIMEOUT]
    assert scsi.stage("C").throughput < 0.6 * scsi.normal_tput


def test_bookstore_app_tier_faults_are_cheaper():
    result, templates = quantify_bookstore(db_faults=False)
    print(f"\napp-tier fault load: availability {result.availability:.5f}")
    # App-tier nodes are replicated and stateless: crashes barely dent
    # the service compared to database faults.
    crash = templates[FaultKind.NODE_CRASH]
    assert crash.stage("C").throughput > 0.8 * crash.normal_tput
