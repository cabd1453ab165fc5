//! The static experiment registry: every paper figure/table (plus the
//! repo's extensions) as one addressable, machine-readable list — the
//! single source behind `cloud-ckpt exp list|run|all`.

use crate::exp::Experiment;
use crate::experiments::*;
use ckpt_report::{row, Frame};

/// Every registered experiment, in the paper's presentation order
/// (figures/tables first, then the extensions).
pub static EXPERIMENTS: &[&dyn Experiment] = &[
    &fig04_interval_cdf::Fig04IntervalCdf,
    &fig05_mle_fit::Fig05MleFit,
    &fig07_ckpt_cost::Fig07CkptCost,
    &table2_simultaneous::Table2Simultaneous,
    &table3_dmnfs::Table3DmNfs,
    &table4_op_cost::Table4OpCost,
    &table5_restart_cost::Table5RestartCost,
    &table7_mnof_mtbf::Table7MnofMtbf,
    &fig08_job_dist::Fig08JobDist,
    &table6_precise::Table6Precise,
    &fig09_wpr_cdf::Fig09WprCdf,
    &fig10_wpr_priority::Fig10WprPriority,
    &fig11_wpr_restricted::Fig11WprRestricted,
    &fig12_wallclock::Fig12Wallclock,
    &fig13_paired::Fig13Paired,
    &fig14_dynamic::Fig14Dynamic,
    &cluster_validation::ClusterValidation,
    &ext_penalty::ExtPenalty,
    &ext_random_ckpt::ExtRandomCkpt,
    &ext_host_failures::ExtHostFailures,
    &ext_bootstrap::ExtBootstrap,
    &ext_policy_cost_grid::ExtPolicyCostGrid,
    &ext_stress_fleet::ExtStressFleet,
    &ext_hazard_robustness::ExtHazardRobustness,
    &ext_heavy_tail_fleet::ExtHeavyTailFleet,
    &ext_limit_robustness::ExtLimitRobustness,
];

/// All experiments, in registry order.
pub fn all() -> &'static [&'static dyn Experiment] {
    EXPERIMENTS
}

/// Look an experiment up by id.
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    EXPERIMENTS.iter().copied().find(|e| e.id() == id)
}

/// All registered ids, in registry order.
pub fn ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.id()).collect()
}

/// The catalog as a frame: id, paper anchor, default scale, claim.
pub fn catalog() -> Frame {
    let mut frame = Frame::new(
        "experiment_catalog",
        vec!["id", "paper_ref", "default_scale", "claim"],
    )
    .with_title("Registered experiments (cloud-ckpt exp run <id>)")
    .with_meta("count", EXPERIMENTS.len().to_string());
    for e in EXPERIMENTS {
        frame.push_row(row![
            e.id(),
            e.paper_ref(),
            e.default_scale().label(),
            e.claim()
        ]);
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_has_26_unique_ids() {
        let ids = ids();
        assert_eq!(ids.len(), 26, "{ids:?}");
        let set: HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len(), "duplicate experiment ids");
    }

    #[test]
    fn every_experiment_has_paper_ref_and_claim() {
        for e in all() {
            assert!(!e.paper_ref().is_empty(), "{} paper_ref empty", e.id());
            assert!(!e.claim().is_empty(), "{} claim empty", e.id());
            assert!(
                e.id()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{} id not snake_case",
                e.id()
            );
        }
    }

    #[test]
    fn find_resolves_every_id_and_rejects_unknown() {
        for id in ids() {
            assert_eq!(find(id).unwrap().id(), id);
        }
        assert!(find("fig99_nope").is_none());
    }

    #[test]
    fn catalog_frame_covers_the_registry() {
        let frame = catalog();
        assert_eq!(frame.rows.len(), EXPERIMENTS.len());
        assert_eq!(frame.columns[0], "id");
    }

    /// The README's experiment-catalog table must not drift from the
    /// registry: every registered id appears as exactly one table row
    /// whose command column reproduces the experiment, and there are no
    /// extra rows for unregistered ids.
    #[test]
    fn readme_catalog_matches_registry() {
        let readme = include_str!("../../../README.md");
        let section = readme
            .split("### Experiment catalog")
            .nth(1)
            .expect("README has an '### Experiment catalog' section");
        let section = section.split("\n##").next().unwrap_or(section);
        let rows: Vec<&str> = section.lines().filter(|l| l.starts_with("| `")).collect();
        assert_eq!(
            rows.len(),
            EXPERIMENTS.len(),
            "README catalog has {} rows but the registry has {} experiments",
            rows.len(),
            EXPERIMENTS.len()
        );
        for e in EXPERIMENTS {
            let id = e.id();
            let row = rows
                .iter()
                .find(|r| r.starts_with(&format!("| `{id}`")))
                .unwrap_or_else(|| panic!("README catalog is missing a row for {id}"));
            assert!(
                row.contains(&format!("cloud-ckpt exp run {id}")),
                "README row for {id} must show its reproducing command: {row}"
            );
        }
    }
}
