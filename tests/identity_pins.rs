//! Pinned store identities: the sweep digest of every spec in `specs/`
//! and the record digest of its first cell.
//!
//! A checkpoint store keeps these digests. If one of them moves, every
//! store an earlier build wrote stops resuming. Such a change must raise
//! `ckpt_store::FORMAT_VERSION`, so the old stores fail with the named
//! version error, and then re-pin the values here.

use ckpt_scenario::ckpt::{record_digest, sweep_digest};
use ckpt_scenario::SweepSpec;

/// `(spec file stem, sweep digest, first cell's record digest)`.
const PINS: &[(&str, u64, u64)] = &[
    (
        "exp_fig07_ckpt_cost",
        0x9ccd9ab32c51838f,
        0x0d722eb0f907b0a7,
    ),
    (
        "exp_fig10_wpr_priority",
        0xd139284d612f103f,
        0xdaa01f57ee2fedfb,
    ),
    (
        "exp_table2_simultaneous",
        0x9fe03a33786cce44,
        0x7b0e6349c1a1a948,
    ),
    ("hazard_robustness", 0xcc5fc9ce78712e54, 0x8247066dc71c7b0a),
    ("heavy_tail_fleet", 0x42a40a4b2dc64864, 0xef4e8140efdf0329),
    ("limit_robustness", 0x4eabb550d2d14365, 0xb6d76c7c14d58413),
    ("policy_x_ckpt_cost", 0x5e6e363efa1e9b3d, 0x0efee362c569dc24),
    ("stress_fleet", 0xed3038f39389d196, 0xe689ee935a0cda7f),
    ("stress_long_tasks", 0x940b6d125dc6ee54, 0x25737695444fa4f4),
];

#[test]
fn spec_identities_are_pinned() {
    assert_eq!(
        ckpt_store::FORMAT_VERSION,
        2,
        "these digests were pinned for store format version 2"
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let pinned: Vec<&str> = PINS.iter().map(|p| p.0).collect();
    assert_eq!(on_disk, pinned, "every spec is pinned");

    let mut drift = Vec::new();
    for &(stem, sweep, first) in PINS {
        let text = std::fs::read_to_string(dir.join(format!("{stem}.toml"))).unwrap();
        let spec = SweepSpec::from_str(&text).unwrap();
        let params: Vec<(String, String)> = spec
            .cell_values(0)
            .map(|(k, v)| (k.to_string(), v.render()))
            .collect();
        let got = (
            sweep_digest(&spec),
            record_digest(&spec.cell(0).unwrap(), &params),
        );
        if got != (sweep, first) {
            drift.push(format!(
                "    (\"{stem}\", {:#018x}, {:#018x}),",
                got.0, got.1
            ));
        }
    }
    assert!(drift.is_empty(), "identity drift:\n{}", drift.join("\n"));
}
