//! Pins the one NVM write-stream model — `PlacementPlan`'s per-update
//! `mram_trainable_weight_bytes` and per-frame `mram_gradient_bytes`,
//! shared by `DeploymentSim`, the DSE and the `EnduranceScheduler` —
//! through the deployment simulator's report: an independent
//! `WearTracker` fed the reported byte count must land on the same wear
//! fraction, the frozen trunk is never billed, and the
//! `EnduranceScheduler`'s baseline stream must reproduce the
//! iteration-side write traffic.

use mramrl_core::{DeploymentSim, Platform, Topology, PAPER_DESIGN_POINTS};
use mramrl_env::EnvKind;
use mramrl_mem::tech::TechParams;
use mramrl_mem::{EnduranceScheduler, SchedulerPolicy, WearTracker};

const FRAMES: u64 = 120;

fn paper_platform(topo: Topology) -> Platform {
    let (t, sram, mram) = PAPER_DESIGN_POINTS
        .into_iter()
        .find(|(t, _, _)| *t == topo)
        .expect("topology in paper table");
    Platform::new(t, sram, mram).expect("paper point places")
}

/// L3 on an undersized 20 MB SRAM: FC4/FC5 fit on-die, FC3
/// (8,392,704 B) keeps its weights in MRAM and spills its gradient
/// accumulator.
fn tight_l3() -> Platform {
    Platform::new(Topology::L3, 20.0, 128.0).expect("L3 places at 20 MB")
}

#[test]
fn deployment_wear_matches_independent_tracker() {
    let platform = paper_platform(Topology::E2E);
    let capacity = (platform.mram_capacity_mb() * 1.0e6) as u64;
    let report = DeploymentSim::new(platform, EnvKind::IndoorApartment, 7).fly(FRAMES);

    let mut tracker = WearTracker::new(TechParams::stt_mram(), capacity);
    tracker.record_write_bytes(report.nvm_bytes_written);
    assert_eq!(
        tracker.wear_fraction().to_bits(),
        report.nvm_wear_fraction.to_bits(),
        "deployment wear fraction must equal a WearTracker fed the same bytes"
    );
    // The fraction is exactly cycles / endurance for the stack technology.
    let endurance = TechParams::stt_mram().endurance_writes.unwrap() as f64;
    assert!((tracker.cell_cycles() / endurance - report.nvm_wear_fraction).abs() < 1e-15);
}

#[test]
fn write_free_paper_points_report_zero_wear() {
    for (topo, _, _) in PAPER_DESIGN_POINTS {
        if topo == Topology::E2E {
            continue;
        }
        let report =
            DeploymentSim::new(paper_platform(topo), EnvKind::IndoorApartment, 7).fly(FRAMES);
        assert_eq!(report.nvm_bytes_written, 0, "{topo}");
        assert_eq!(report.nvm_wear_fraction, 0.0, "{topo}");
    }
}

#[test]
fn tight_sram_bills_only_trainable_weights() {
    // Each of the 30 updates writes FC3 back; each of the 120 frames
    // pays FC3's RMW. The frozen trunk (≈100 MB) is never written.
    let report = DeploymentSim::new(tight_l3(), EnvKind::IndoorApartment, 7).fly(FRAMES);
    assert_eq!(
        report.nvm_bytes_written,
        FRAMES / 4 * 8_392_704 + FRAMES * 8_392_704
    );
}

#[test]
fn scheduler_baseline_reproduces_deployment_iteration_traffic() {
    for platform in [paper_platform(Topology::E2E), tight_l3()] {
        let topo = platform.topology();
        let capacity = (platform.mram_capacity_mb() * 1.0e6) as u64;
        // A passthrough scheduler's baseline stream, advanced one update
        // per iteration, accounts for the per-update half exactly; the
        // per-frame spilled-gradient RMW is the rest.
        let mut sched = EnduranceScheduler::for_plan(
            platform.placement(),
            TechParams::stt_mram(),
            capacity,
            SchedulerPolicy::passthrough(),
        );
        let per_frame = platform.placement().mram_gradient_bytes();
        let report = DeploymentSim::new(platform, EnvKind::IndoorApartment, 7).fly(FRAMES);

        sched.advance_to(FRAMES / 4);
        assert!(sched.is_active(), "{topo}");
        assert_eq!(
            sched.baseline_wear().bytes_written() + FRAMES * per_frame,
            report.nvm_bytes_written,
            "{topo}"
        );
    }
}
