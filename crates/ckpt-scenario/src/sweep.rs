//! [`SweepSpec`] — a base [`ScenarioSpec`] plus sweep axes, expanded into
//! the full cartesian grid of scenarios.
//!
//! Axes come in two shapes:
//!
//! * explicit lists — `policy = ["formula3", "young", "daly", "none"]`;
//! * ranges — `ckpt_cost_scale = { from = 0.25, to = 8, steps = 6 }`,
//!   linearly spaced (or geometrically with `log = true`).
//!
//! Expansion order is row-major over the axes in file order: the last axis
//! varies fastest. Cell `i` therefore has a stable meaning independent of
//! thread count — the executor keys its per-cell RNG streams off `i`.

use crate::parse::{self, Value};
use crate::spec::ScenarioSpec;

/// One sweep axis: a scenario key and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// The scenario key this axis assigns (any key
    /// [`ScenarioSpec::apply`] accepts).
    pub param: String,
    /// The values, in sweep order.
    pub values: Vec<Value>,
}

/// A declarative sweep: base scenario × axes.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (output files derive from it).
    pub name: String,
    /// The base scenario every cell starts from.
    pub base: ScenarioSpec,
    /// Sweep axes, slowest-varying first.
    pub axes: Vec<Axis>,
    /// Default worker threads (0 ⇒ one per core); the CLI can override.
    pub threads: usize,
}

/// Errors building or expanding a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepError(pub String);

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep spec error: {}", self.0)
    }
}

impl std::error::Error for SweepError {}

/// The most cells a grid may hold: 333× the 30 000-cell cost grid. Range
/// steps and the axis product are checked against it at parse time, before
/// anything is allocated, so a count no grid can hold is a named error
/// rather than a capacity-overflow panic or a product that wraps.
const MAX_GRID_CELLS: usize = 10_000_000;

fn expand_range(table: &std::collections::BTreeMap<String, Value>) -> Result<Vec<Value>, String> {
    let get = |k: &str| -> Result<f64, String> {
        table
            .get(k)
            .and_then(Value::as_num)
            .ok_or_else(|| format!("range axis needs numeric {k:?}"))
    };
    let from = get("from")?;
    let to = get("to")?;
    let steps_raw = get("steps")?;
    if steps_raw < 0.0 || steps_raw.fract() != 0.0 {
        return Err(format!(
            "steps must be a non-negative integer, got {steps_raw}"
        ));
    }
    if steps_raw > MAX_GRID_CELLS as f64 {
        return Err(format!(
            "steps = {steps_raw} exceeds the {MAX_GRID_CELLS}-cell grid cap"
        ));
    }
    let steps = steps_raw as usize;
    let log = table.get("log").and_then(Value::as_bool).unwrap_or(false);
    for k in table.keys() {
        if !matches!(k.as_str(), "from" | "to" | "steps" | "log") {
            return Err(format!(
                "unknown range key {k:?} (expected from/to/steps/log)"
            ));
        }
    }
    if steps == 0 {
        return Err("range axis needs steps >= 1".into());
    }
    if steps == 1 {
        // A one-step range silently dropping `to` would masquerade as a
        // completed sweep; make the collapse explicit.
        if from != to {
            return Err(format!(
                "steps = 1 would discard to = {to} (use steps >= 2, or from == to)"
            ));
        }
        return Ok(vec![Value::Num(from)]);
    }
    if log && (from <= 0.0 || to <= 0.0) {
        return Err("log range axis needs positive from/to".into());
    }
    let mut out = Vec::with_capacity(steps);
    for i in 0..steps {
        let t = i as f64 / (steps - 1) as f64;
        let v = if log {
            (from.ln() + t * (to.ln() - from.ln())).exp()
        } else {
            from + t * (to - from)
        };
        out.push(Value::Num(snap(v)));
    }
    Ok(out)
}

/// Round to 12 significant digits, so interpolated axis values render as
/// the numbers the user wrote (`2` rather than `1.9999999999999998`)
/// without perturbing anything beyond float noise.
fn snap(v: f64) -> f64 {
    // Outside this range 10^(11 - mag) itself overflows/underflows,
    // turning the value into NaN; leave such extremes untouched.
    if v == 0.0 || !v.is_finite() || v.abs() < 1e-200 || v.abs() > 1e200 {
        return v;
    }
    let mag = v.abs().log10().floor();
    let scale = 10f64.powf(11.0 - mag);
    (v * scale).round() / scale
}

impl SweepSpec {
    /// The spec with a [`ckpt_report::RunContext`] applied: the context's
    /// seed replaces the base seed and its scale sets the base job count
    /// (per-cell axes still win; analytic engines ignore jobs).
    /// [`crate::exec::run_sweep_ctx`] applies this itself, and the
    /// returned [`crate::exec::SweepResult`] records the effective seed,
    /// so export metadata stays truthful without extra caller work.
    pub fn contextualized(&self, ctx: &ckpt_report::RunContext) -> SweepSpec {
        let mut spec = self.clone();
        spec.base.seed = ctx.seed;
        spec.base.jobs = ctx.scale.jobs();
        if let Some(shards) = ctx.shards {
            spec.base.shards = shards;
        }
        spec
    }

    /// Parse a sweep from spec text (the TOML subset of [`crate::parse`]).
    ///
    /// Layout: `[sweep]` (name/engine/seed/jobs/threads), `[scenario]`,
    /// `[workload]` and `[cluster]` (base-scenario fields), `[axes]`.
    /// (Inherent rather than `std::str::FromStr` so call sites read as
    /// spec vocabulary, like the CLI's parsers.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(input: &str) -> Result<Self, SweepError> {
        let doc = parse::parse(input).map_err(|e| SweepError(e.to_string()))?;

        let name = doc
            .get("sweep", "name")
            .and_then(Value::as_str)
            .unwrap_or("sweep")
            .to_string();
        // The name becomes output file names; separators would escape the
        // --out directory (or fail after the whole sweep has run).
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            || name.contains("..")
        {
            return Err(SweepError(format!(
                "sweep name {name:?} must be non-empty [A-Za-z0-9._-] without \"..\" \
                 (it names the output files)"
            )));
        }
        let mut base = ScenarioSpec::new(name.clone());
        let threads = match doc.get("sweep", "threads").and_then(Value::as_num) {
            None => 0,
            Some(v) if v >= 0.0 && v.fract() == 0.0 => v as usize,
            Some(v) => {
                return Err(SweepError(format!(
                    "key \"threads\": expected a non-negative integer, got {v}"
                )))
            }
        };

        // `[sweep]` carries run-wide keys; everything except the reserved
        // ones is treated as a base-scenario assignment for convenience.
        // The parser already rejects duplicates within a section; track
        // keys across the base-scenario sections too, so `[sweep] jobs`
        // silently overridden by a later `[scenario] jobs` cannot happen.
        let mut seen: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
        for (section, keys) in doc.sections() {
            if matches!(
                section.as_str(),
                "sweep" | "scenario" | "workload" | "cluster"
            ) {
                for (k, _) in keys {
                    if let Some(prev) = seen.insert(k.as_str(), section.as_str()) {
                        return Err(SweepError(format!(
                            "key {k:?} set in both [{prev}] and [{section}]"
                        )));
                    }
                }
            }
            match section.as_str() {
                // Keys before any [section] header have no home — dropping
                // them silently would run the sweep with defaults the user
                // thinks they overrode.
                "" => {
                    if let Some((key, _)) = keys.first() {
                        return Err(SweepError(format!(
                            "key {key:?} appears before any section header; put it under [sweep]"
                        )));
                    }
                }
                "axes" => continue,
                "sweep" => {
                    for (k, v) in keys {
                        if matches!(k.as_str(), "name" | "threads") {
                            continue;
                        }
                        base.apply(k, v)
                            .map_err(|e| SweepError(format!("[sweep] {e}")))?;
                    }
                }
                "scenario" | "workload" | "cluster" => {
                    for (k, v) in keys {
                        base.apply(k, v)
                            .map_err(|e| SweepError(format!("[{section}] {e}")))?;
                    }
                }
                other => {
                    return Err(SweepError(format!(
                        "unknown section [{other}] (expected sweep/scenario/workload/cluster/axes)"
                    )))
                }
            }
        }

        let mut axes = Vec::new();
        let mut cells = 1usize;
        if let Some(axis_keys) = doc.section("axes") {
            for (param, v) in axis_keys {
                let values = match v {
                    Value::Array(xs) => {
                        if xs.is_empty() {
                            return Err(SweepError(format!("axis {param:?} is empty")));
                        }
                        xs.clone()
                    }
                    Value::Table(t) => {
                        expand_range(t).map_err(|e| SweepError(format!("axis {param:?}: {e}")))?
                    }
                    scalar => vec![scalar.clone()],
                };
                cells = cells
                    .checked_mul(values.len())
                    .filter(|&n| n <= MAX_GRID_CELLS)
                    .ok_or_else(|| {
                        SweepError(format!(
                            "axis {param:?} takes the grid past the {MAX_GRID_CELLS}-cell cap"
                        ))
                    })?;
                // Validate every axis value against the base scenario now, so
                // errors surface at parse time rather than mid-sweep.
                for value in &values {
                    let mut probe = base.clone();
                    probe
                        .apply(param, value)
                        .map_err(|e| SweepError(format!("axis {param:?}: {e}")))?;
                }
                axes.push(Axis {
                    param: param.clone(),
                    values,
                });
            }
        }

        Ok(SweepSpec {
            name,
            base,
            axes,
            threads,
        })
    }

    /// Total number of grid cells: the product of the axis lengths (1 with
    /// no axes, a single-cell "sweep" of the base).
    pub fn grid_size(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// The axis assignments of cell `index` (row-major, last axis fastest),
    /// borrowed from the axes, as `(param, value)` pairs in axis order.
    pub fn cell_values(&self, index: usize) -> impl Iterator<Item = (&str, &Value)> + '_ {
        // Axis j's digit is index / (product of the later axes' lengths),
        // modulo its own length.
        let mut stride = self.grid_size();
        self.axes.iter().map(move |axis| {
            let n = axis.values.len();
            stride /= n;
            (axis.param.as_str(), &axis.values[(index / stride) % n])
        })
    }

    /// Materialize cell `index` as a full scenario.
    pub fn cell(&self, index: usize) -> Result<ScenarioSpec, SweepError> {
        let mut s = self.base.clone();
        for (param, value) in self.cell_values(index) {
            s.apply(param, value)
                .map_err(|e| SweepError(format!("cell {index}: {e}")))?;
        }
        Ok(s)
    }

    /// Materialize the whole grid in cell order.
    pub fn cells(&self) -> Result<Vec<ScenarioSpec>, SweepError> {
        let n = self.grid_size();
        let mut cells = Vec::with_capacity(n);
        for i in 0..n {
            cells.push(self.cell(i)?);
        }
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_policy::PolicyKind;

    const SPEC: &str = r#"
        [sweep]
        name = "policy_x_cost"
        engine = "fast"
        seed = 7
        jobs = 400

        [axes]
        policy = ["formula3", "young", "daly", "none"]
        ckpt_cost_scale = { from = 0.5, to = 4.0, steps = 3 }
    "#;

    #[test]
    fn grid_size_is_product_of_axes() {
        let sweep = SweepSpec::from_str(SPEC).unwrap();
        assert_eq!(sweep.grid_size(), 12);
        assert_eq!(sweep.cells().unwrap().len(), 12);
    }

    #[test]
    fn last_axis_varies_fastest() {
        let sweep = SweepSpec::from_str(SPEC).unwrap();
        let c0 = sweep.cell(0).unwrap();
        let c1 = sweep.cell(1).unwrap();
        let c3 = sweep.cell(3).unwrap();
        assert_eq!(c0.policy, PolicyKind::Formula3);
        assert_eq!(c1.policy, PolicyKind::Formula3);
        assert_eq!(c3.policy, PolicyKind::Young);
        assert_eq!(c0.cost.ckpt_scale, 0.5);
        assert!((c1.cost.ckpt_scale - 2.25).abs() < 1e-12);
    }

    #[test]
    fn range_axes_linear_and_log() {
        let lin = expand_range(
            &[("from", 1.0), ("to", 5.0), ("steps", 5.0)]
                .iter()
                .map(|(k, v)| (k.to_string(), Value::Num(*v)))
                .collect(),
        )
        .unwrap();
        let vals: Vec<f64> = lin.iter().map(|v| v.as_num().unwrap()).collect();
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 4.0, 5.0]);

        let mut t: std::collections::BTreeMap<String, Value> =
            [("from", 1.0), ("to", 16.0), ("steps", 5.0)]
                .iter()
                .map(|(k, v)| (k.to_string(), Value::Num(*v)))
                .collect();
        t.insert("log".into(), Value::Bool(true));
        let geo = expand_range(&t).unwrap();
        let vals: Vec<f64> = geo.iter().map(|v| v.as_num().unwrap()).collect();
        for (i, v) in vals.iter().enumerate() {
            assert!((v - 2f64.powi(i as i32)).abs() < 1e-9, "{vals:?}");
        }
    }

    #[test]
    fn no_axes_is_single_cell() {
        let sweep = SweepSpec::from_str("[sweep]\nname = \"one\"\n").unwrap();
        assert_eq!(sweep.grid_size(), 1);
        assert_eq!(sweep.cells().unwrap().len(), 1);
    }

    #[test]
    fn bad_axis_values_fail_at_parse_time() {
        let bad = r#"
            [axes]
            policy = ["formula3", "zebra"]
        "#;
        let e = SweepSpec::from_str(bad).unwrap_err();
        assert!(e.0.contains("zebra"), "{e}");

        let bad_range = r#"
            [axes]
            ckpt_cost_scale = { from = 1, to = 2 }
        "#;
        assert!(SweepSpec::from_str(bad_range).is_err());

        // Counts no grid can hold are named errors: not a capacity-overflow
        // panic, and not an axis product that wraps to a one-cell grid.
        let huge_steps = r#"
            [axes]
            mem_mb = { from = 1, to = 2, steps = 1e18 }
        "#;
        let e = SweepSpec::from_str(huge_steps).unwrap_err();
        assert!(e.0.contains("mem_mb") && e.0.contains("10000000"), "{e}");
        let wrapping = r#"
            [axes]
            mem_mb = { from = 1, to = 2, steps = 65536 }
            ckpt_cost_scale = { from = 1, to = 2, steps = 65536 }
            restart_cost_scale = { from = 1, to = 2, steps = 65536 }
            host_mem_mb = { from = 1, to = 2, steps = 65536 }
        "#;
        let e = SweepSpec::from_str(wrapping).unwrap_err();
        assert!(
            e.0.contains("ckpt_cost_scale") && e.0.contains("10000000"),
            "{e}"
        );
    }

    #[test]
    fn unknown_sections_rejected() {
        assert!(SweepSpec::from_str("[wat]\nx = 1\n").is_err());
    }

    #[test]
    fn path_escaping_names_rejected() {
        for bad in ["grid/v2", "../x", "", "a b"] {
            let spec = format!("[sweep]\nname = \"{bad}\"\n");
            assert!(
                SweepSpec::from_str(&spec).is_err(),
                "name {bad:?} should be rejected"
            );
        }
        assert!(SweepSpec::from_str("[sweep]\nname = \"ok-1.2_x\"\n").is_ok());
    }

    #[test]
    fn nan_and_stray_infinities_rejected() {
        assert!(SweepSpec::from_str("[scenario]\nmax_task_length = nan\n").is_err());
        assert!(SweepSpec::from_str("[scenario]\nmax_task_length = infinity\n").is_err());
        assert!(SweepSpec::from_str("[scenario]\nmax_task_length = inf\n").is_ok());
    }

    #[test]
    fn snap_leaves_extreme_magnitudes_alone() {
        assert_eq!(snap(1e-300), 1e-300);
        assert_eq!(snap(1e250), 1e250);
        assert_eq!(snap(1.9999999999999998), 2.0);
    }

    #[test]
    fn preamble_keys_rejected_not_dropped() {
        // A seed set above the [sweep] header must error, not silently run
        // with the default seed.
        let e = SweepSpec::from_str("seed = 42\n[sweep]\nname = \"x\"\n").unwrap_err();
        assert!(e.0.contains("seed") && e.0.contains("[sweep]"), "{e}");
    }

    #[test]
    fn one_step_range_must_not_discard_to() {
        let bad = r#"
            [axes]
            ckpt_cost_scale = { from = 0.25, to = 8, steps = 1 }
        "#;
        let e = SweepSpec::from_str(bad).unwrap_err();
        assert!(e.0.contains("discard"), "{e}");
        // Degenerate but explicit single-point range is fine.
        let ok = r#"
            [axes]
            ckpt_cost_scale = { from = 2, to = 2, steps = 1 }
        "#;
        let sweep = SweepSpec::from_str(ok).unwrap();
        assert_eq!(sweep.grid_size(), 1);
    }

    #[test]
    fn base_sections_apply() {
        let s = SweepSpec::from_str(
            r#"
            [sweep]
            name = "n"
            jobs = 123
            [scenario]
            policy = "daly"
            [workload]
            bot_fraction = 0.9
            [cluster]
            n_hosts = 8
            "#,
        )
        .unwrap();
        assert_eq!(s.base.jobs, 123);
        assert_eq!(s.base.policy, PolicyKind::Daly);
        assert_eq!(s.base.workload.bot_fraction, Some(0.9));
        assert_eq!(s.base.cluster.n_hosts, 8);
    }
}
