//! Campaign-level chaos suite (`CIMON_CHAOS=1 cargo test -p
//! cimon-faults --test chaos_campaign`).
//!
//! With chaos enabled, the campaign worker pool injects panics into
//! seeded plans; the campaign must quarantine exactly those plans and
//! classify every other plan identically to an injection-free
//! from-scratch loop. The checkpoint disk spill is hostile too: its
//! writer flips frame bits and tears segment tails, and a disk-spilled
//! campaign must still classify exactly like one that keeps its
//! checkpoints in RAM. Without `CIMON_CHAOS` the same differentials
//! assert zero quarantines.

use cimon_asm::assemble;
use cimon_core::CicConfig;
use cimon_faults::{Campaign, CampaignConfig, CampaignResult, FaultModel, FaultSite};
use cimon_hashgen::static_fht;
use cimon_sim::HashAlgoKind;
use cimon_sim::{chaos, SpillMode};

const PROGRAM: &str = "
    .text
main:
    li   $t0, 20
    li   $t1, 0
loop:
    addu $t1, $t1, $t0
    addiu $t0, $t0, -1
    bnez $t0, loop
    move $a0, $t1
    li   $v0, 10
    syscall
";

#[test]
fn chaos_quarantines_exactly_the_injected_plans() {
    let prog = assemble(PROGRAM).expect("program assembles");
    let (fht, _) = static_fht(&prog.image, &[], HashAlgoKind::Xor, 0).expect("static analysis");
    let (lo, hi) = prog.image.text_range();
    let targets: Vec<u32> = (lo..hi).step_by(4).collect();
    let campaign = Campaign::new(prog.image, CicConfig::with_entries(8), fht);
    let config = CampaignConfig {
        runs: 40,
        seed: 0x5eed,
        model: FaultModel::SingleBit,
        site: FaultSite::StoredImage,
        targets,
        max_cycles: 60_000,
        max_wall: None,
    };

    let result = campaign
        .run_with_workers(&config, 4)
        .expect("campaign runs");

    // Injection-free oracle: the same plans through the public
    // from-scratch runner, with chaos-selected indices quarantined.
    let mut expected = CampaignResult::default();
    for (i, plan) in campaign.plans(&config).iter().enumerate() {
        if chaos::panics_at("campaign", i) {
            expected.quarantined += 1;
        } else {
            expected.record(campaign.run_one(plan, config.max_cycles));
        }
    }

    assert_eq!(
        CampaignResult {
            saved_cycles: 0,
            ..result
        },
        expected
    );
    assert_eq!(result.total(), config.runs);
    if !chaos::enabled() {
        assert_eq!(result.quarantined, 0);
    }
}

#[test]
fn disk_spill_under_chaos_classifies_like_ram() {
    let prog = assemble(PROGRAM).expect("program assembles");
    let (fht, _) = static_fht(&prog.image, &[], HashAlgoKind::Xor, 0).expect("static analysis");
    let (lo, hi) = prog.image.text_range();
    let targets: Vec<u32> = (lo..hi).step_by(4).collect();
    let cic = CicConfig::with_entries(8);
    let ram = Campaign::new_with_spill(prog.image.clone(), cic, fht.clone(), SpillMode::Ram);
    let disk = Campaign::new_with_spill(prog.image, cic, fht, SpillMode::Disk);

    // The writer damages frames by append index and tears the close by
    // frame count, so which frames the scan quarantines is predictable.
    let (spilled, quarantined) = disk.spill_stats();
    assert!(spilled > 0, "reference snapshots must have spilled");
    let damaged = (0..spilled).any(chaos::flips_segment_at) || chaos::tears_segment_at(spilled);
    assert_eq!(
        quarantined > 0,
        damaged,
        "{quarantined} of {spilled} quarantined"
    );
    assert_eq!(
        damaged,
        chaos::enabled(),
        "chaos must damage the spilled segment"
    );

    let config = CampaignConfig {
        runs: 60,
        seed: 0xd15c,
        model: FaultModel::SingleBit,
        site: FaultSite::StoredImage,
        targets,
        max_cycles: 60_000,
        max_wall: None,
    };
    let from_ram = ram.run_with_workers(&config, 2).expect("RAM campaign runs");
    let from_disk = disk
        .run_with_workers(&config, 2)
        .expect("disk campaign runs");
    // A quarantined frame costs its runs their restart, never their
    // classification.
    assert_eq!(
        CampaignResult {
            saved_cycles: 0,
            ..from_disk
        },
        CampaignResult {
            saved_cycles: 0,
            ..from_ram
        }
    );
    assert!(from_disk.saved_cycles <= from_ram.saved_cycles);
    if !chaos::enabled() {
        assert_eq!(from_disk.saved_cycles, from_ram.saved_cycles);
    }
}
