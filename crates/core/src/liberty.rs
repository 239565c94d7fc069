//! Liberty-flavoured export of a characterized library.
//!
//! Downstream STA tools consume standard-cell timing as Liberty (`.lib`) tables.  Two
//! export paths produce the same readable subset of the Liberty syntax
//! (`library`/`cell`/`pin`/`timing` groups with `cell_rise`/`cell_fall`/
//! `rise_transition`/`fall_transition` tables):
//!
//! * [`export_library`] — characterizes every primary arc of a library on a small grid by
//!   **direct simulation** (one transient per table entry);
//! * [`export_fitted_library`] — renders the tables from **already-extracted compact-model
//!   parameters** ([`FittedArc`]), the output of a pipeline run, with optional LVF-style
//!   variation groups ([`ArcVariation`]).  Only zero-cost DC
//!   operating-point evaluations (`Ieff`) are needed, so exporting a characterized library
//!   costs no transient simulations at all.
//!
//! The goal is a faithful, diff-able artefact of a characterization run, not
//! byte-for-byte compatibility with any particular commercial parser.

use slic_cells::{Cell, Library, TimingArc, Transition};
use slic_device::ProcessSample;
use slic_spice::{CharacterizationEngine, InputPoint};
use slic_timing_model::TimingParams;
use slic_units::{Farads, Seconds, Volts};
use std::fmt;

/// An export request that cannot produce a valid Liberty file.
///
/// These used to be assertion panics; they are errors because an export configuration
/// typically arrives from a run artifact or CLI flags, and a bad one should surface as a
/// diagnosable message, not a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportError {
    /// No cells/arcs were given — an empty `.lib` has no meaning downstream.
    EmptyLibrary,
    /// A table axis with fewer than two indices cannot describe a lookup table.
    DegenerateGrid {
        /// Requested input-slew indices.
        slew_levels: usize,
        /// Requested load-capacitance indices.
        load_levels: usize,
    },
    /// A variation table's rows do not match the export grid — emitting it next to the
    /// nominal tables would silently misalign the LVF indices.
    VariationShape {
        /// Arc whose variation tables are misshapen.
        arc_id: String,
        /// `(slew levels, load levels)` the grid expects.
        expected: (usize, usize),
        /// `(rows, columns)` the variation table provides.
        found: (usize, usize),
    },
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::EmptyLibrary => f.write_str("cannot export an empty library"),
            ExportError::DegenerateGrid {
                slew_levels,
                load_levels,
            } => write!(
                f,
                "export grid needs at least 2x2 indices (got {slew_levels}x{load_levels})"
            ),
            ExportError::VariationShape {
                arc_id,
                expected,
                found,
            } => write!(
                f,
                "variation tables of `{arc_id}` are {}x{} but the export grid is {}x{}; \
                 re-characterize variation with the same profile the export uses",
                found.0, found.1, expected.0, expected.1
            ),
        }
    }
}

impl std::error::Error for ExportError {}

/// Grid used for the exported tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExportGrid {
    /// Number of input-slew indices.
    pub slew_levels: usize,
    /// Number of load-capacitance indices.
    pub load_levels: usize,
}

impl Default for ExportGrid {
    fn default() -> Self {
        Self {
            slew_levels: 4,
            load_levels: 4,
        }
    }
}

/// Validates the grid shape shared by both export paths.
fn check_grid(grid: ExportGrid) -> Result<(), ExportError> {
    if grid.slew_levels < 2 || grid.load_levels < 2 {
        return Err(ExportError::DegenerateGrid {
            slew_levels: grid.slew_levels,
            load_levels: grid.load_levels,
        });
    }
    Ok(())
}

/// The `(slew, load)` table axes (seconds, farads) every export path renders `grid` on —
/// linearly spaced over the engine's characterization input space.
///
/// Public so table *producers* (e.g. a Monte Carlo variation extractor) can simulate on
/// bit-identical coordinates to the tables they will be emitted next to: any derivation of
/// their own would risk off-by-one-ULP axes that silently miss the simulation cache.
pub fn export_axes(engine: &CharacterizationEngine, grid: ExportGrid) -> (Vec<f64>, Vec<f64>) {
    let space = engine.input_space();
    let (sin_lo, sin_hi) = space.sin_range();
    let (cl_lo, cl_hi) = space.cload_range();
    (
        slic_units::range::linspace(sin_lo.value(), sin_hi.value(), grid.slew_levels),
        slic_units::range::linspace(cl_lo.value(), cl_hi.value(), grid.load_levels),
    )
}

/// Characterizes `library` at the technology's nominal supply and renders a Liberty-like
/// description.
///
/// Every value is simulated with the engine's transient solver; the returned string is the
/// complete `.lib` text.
///
/// # Errors
///
/// Returns an [`ExportError`] when the library is empty or the grid has fewer than two
/// levels on either axis.
pub fn export_library(
    engine: &CharacterizationEngine,
    library: &Library,
    grid: ExportGrid,
) -> Result<String, ExportError> {
    if library.is_empty() {
        return Err(ExportError::EmptyLibrary);
    }
    check_grid(grid)?;
    let tech = engine.tech();
    let vdd = tech.vdd_nominal();
    let (slew_axis, load_axis) = export_axes(engine, grid);
    let mut out = library_header(tech.name(), vdd, &slew_axis, &load_axis);
    for &cell in library.cells() {
        let groups = Transition::BOTH.map(|transition| {
            let arc = TimingArc::new(cell, 0, transition);
            let (delay, slew) = table_values(engine, cell, &arc, vdd, &slew_axis, &load_axis);
            let (delay_group, slew_group) = nominal_groups(transition);
            TimingGroup {
                related_pin: 0,
                tables: vec![(delay_group, delay), (slew_group, slew)],
            }
        });
        out.push_str(&render_cell(engine, cell, &groups));
    }
    out.push_str("}\n");
    Ok(out)
}

/// The fitted compact models of one timing arc — what a pipeline run archives per arc.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedArc {
    /// The arc the parameters model.
    pub arc: TimingArc,
    /// Compact-model parameters of the propagation delay.
    pub delay: TimingParams,
    /// Compact-model parameters of the output slew.
    pub slew: TimingParams,
}

/// LVF-style variation moments of one arc, on the **same index grid** as its nominal
/// tables: rows are `[slew][load]`, all values in **seconds** (sigma = sample standard
/// deviation, skewness = signed cube root of the third central moment, the unit LVF
/// `ocv_skewness_*` groups use).
#[derive(Debug, Clone, PartialEq)]
pub struct ArcVariation {
    /// The arc the moments describe.
    pub arc: TimingArc,
    /// Delay standard deviation per grid point.
    pub delay_sigma: Vec<Vec<f64>>,
    /// Delay skewness (time-valued) per grid point.
    pub delay_skew: Vec<Vec<f64>>,
    /// Output-slew standard deviation per grid point.
    pub slew_sigma: Vec<Vec<f64>>,
    /// Output-slew skewness (time-valued) per grid point.
    pub slew_skew: Vec<Vec<f64>>,
}

impl ArcVariation {
    /// Validates that every moment table matches the export grid shape.
    fn check_shape(&self, grid: ExportGrid) -> Result<(), ExportError> {
        let expected = (grid.slew_levels, grid.load_levels);
        for rows in [
            &self.delay_sigma,
            &self.delay_skew,
            &self.slew_sigma,
            &self.slew_skew,
        ] {
            // Report the first offending row's width, so a ragged interior row yields an
            // error naming the actual defect instead of two identical shapes.
            let bad_row = rows.iter().find(|r| r.len() != expected.1);
            if rows.len() != expected.0 || bad_row.is_some() {
                return Err(ExportError::VariationShape {
                    arc_id: self.arc.id(),
                    expected,
                    found: (rows.len(), bad_row.map_or(expected.1, Vec::len)),
                });
            }
        }
        Ok(())
    }
}

/// Renders a Liberty-like description from already-extracted compact-model parameters.
///
/// The table values are model evaluations at the grid points; the engine is only consulted
/// for effective currents and input capacitances (DC operating-point evaluations), so this
/// export increments the simulation counter by **zero**.
///
/// Cells are emitted in first-appearance order of `arcs`; a cell's timing group for a
/// transition is omitted when no fitted arc covers it.
///
/// For every fitted arc with an [`ArcVariation`] entry, LVF-style
/// `ocv_sigma_cell_{rise,fall}` / `ocv_skewness_cell_{rise,fall}` (delay moments) and
/// `ocv_sigma_{rise,fall}_transition` / `ocv_skewness_{rise,fall}_transition` (slew
/// moments) tables are emitted next to the nominal tables, on the same `slic_template`
/// index grid.  Arcs without a variation entry keep a purely nominal timing group;
/// variation entries for arcs absent from `arcs` are ignored (there is no nominal table to
/// sit next to).
///
/// # Errors
///
/// Returns an [`ExportError`] when `arcs` is empty, the grid is degenerate, or a
/// variation entry's tables do not match the grid shape.
pub fn export_fitted_library(
    engine: &CharacterizationEngine,
    library_name: &str,
    arcs: &[FittedArc],
    variation: &[ArcVariation],
    grid: ExportGrid,
) -> Result<String, ExportError> {
    if arcs.is_empty() {
        return Err(ExportError::EmptyLibrary);
    }
    check_grid(grid)?;
    for entry in variation {
        entry.check_shape(grid)?;
    }
    let vdd = engine.tech().vdd_nominal();
    let (slew_axis, load_axis) = export_axes(engine, grid);
    let mut out = library_header(library_name, vdd, &slew_axis, &load_axis);
    let mut cells: Vec<Cell> = Vec::new();
    for fitted in arcs {
        if !cells.contains(&fitted.arc.cell()) {
            cells.push(fitted.arc.cell());
        }
    }
    for cell in cells {
        let groups: Vec<TimingGroup> = Transition::BOTH
            .into_iter()
            .filter_map(|transition| {
                let fitted = arcs
                    .iter()
                    .find(|f| f.arc.cell() == cell && f.arc.output_transition() == transition)?;
                let moments = variation.iter().find(|v| v.arc == fitted.arc);
                Some(fitted_group(
                    engine, fitted, moments, vdd, &slew_axis, &load_axis,
                ))
            })
            .collect();
        out.push_str(&render_cell(engine, cell, &groups));
    }
    out.push_str("}\n");
    Ok(out)
}

/// One `timing ()` group of a cell's output pin: the input pin it relates to and its
/// `(group, rows in ps)` tables in emission order.
struct TimingGroup {
    related_pin: usize,
    tables: Vec<(&'static str, Vec<Vec<f64>>)>,
}

/// The delay and output-slew group names of a transition's nominal tables.
fn nominal_groups(transition: Transition) -> (&'static str, &'static str) {
    match transition {
        Transition::Rise => ("cell_rise", "rise_transition"),
        Transition::Fall => ("cell_fall", "fall_transition"),
    }
}

/// The timing group of one fitted arc: model evaluations on the grid, then the arc's
/// variation moments, if any.
fn fitted_group(
    engine: &CharacterizationEngine,
    fitted: &FittedArc,
    moments: Option<&ArcVariation>,
    vdd: Volts,
    slew_axis: &[f64],
    load_axis: &[f64],
) -> TimingGroup {
    let nominal = ProcessSample::nominal();
    let mut delay_rows = Vec::with_capacity(slew_axis.len());
    let mut slew_rows = Vec::with_capacity(slew_axis.len());
    for &sin in slew_axis {
        let mut delay_row = Vec::with_capacity(load_axis.len());
        let mut slew_row = Vec::with_capacity(load_axis.len());
        for &cload in load_axis {
            let point = InputPoint::new(Seconds(sin), Farads(cload), vdd);
            let ieff = engine.ieff(&fitted.arc, &point, &nominal);
            delay_row.push(fitted.delay.evaluate(&point, ieff).picoseconds());
            slew_row.push(fitted.slew.evaluate(&point, ieff).picoseconds());
        }
        delay_rows.push(delay_row);
        slew_rows.push(slew_row);
    }
    let transition = fitted.arc.output_transition();
    let (delay_group, slew_group) = nominal_groups(transition);
    let mut tables = vec![(delay_group, delay_rows), (slew_group, slew_rows)];
    if let Some(moments) = moments {
        let ps = |rows: &[Vec<f64>]| -> Vec<Vec<f64>> {
            rows.iter()
                .map(|row| row.iter().map(|v| v * 1e12).collect())
                .collect()
        };
        let (sigma_delay, skew_delay, sigma_slew, skew_slew) = match transition {
            Transition::Rise => (
                "ocv_sigma_cell_rise",
                "ocv_skewness_cell_rise",
                "ocv_sigma_rise_transition",
                "ocv_skewness_rise_transition",
            ),
            Transition::Fall => (
                "ocv_sigma_cell_fall",
                "ocv_skewness_cell_fall",
                "ocv_sigma_fall_transition",
                "ocv_skewness_fall_transition",
            ),
        };
        tables.extend([
            (sigma_delay, ps(&moments.delay_sigma)),
            (skew_delay, ps(&moments.delay_skew)),
            (sigma_slew, ps(&moments.slew_sigma)),
            (skew_slew, ps(&moments.slew_skew)),
        ]);
    }
    TimingGroup {
        related_pin: fitted.arc.input_pin(),
        tables,
    }
}

/// Opens the `library` group both export paths write: the header and the `slic_template`
/// table template on the `(slew, load)` axes.  The caller appends the cells and the
/// closing brace.
fn library_header(name: &str, vdd: Volts, slew_axis: &[f64], load_axis: &[f64]) -> String {
    let mut out = format!("library ({}_slic) {{\n", name.replace(['-', ' '], "_"));
    out.push_str("  delay_model : table_lookup;\n");
    out.push_str("  time_unit : \"1ps\";\n");
    out.push_str("  capacitive_load_unit (1, ff);\n");
    out.push_str(&format!("  nom_voltage : {:.3};\n", vdd.value()));
    out.push_str(&format!(
        "  lu_table_template (slic_template) {{\n    variable_1 : input_net_transition;\n    variable_2 : total_output_net_capacitance;\n    index_1 (\"{}\");\n    index_2 (\"{}\");\n  }}\n",
        format_axis_ps(slew_axis),
        format_axis_ff(load_axis)
    ));
    out
}

/// Renders one `cell` group: its input pins with their capacitances, then the output pin
/// with `groups` in order.
fn render_cell(engine: &CharacterizationEngine, cell: Cell, groups: &[TimingGroup]) -> String {
    let mut out = String::new();
    out.push_str(&format!("  cell ({}) {{\n", cell.name()));
    let eq = engine.equivalent_inverter(cell, &ProcessSample::nominal());
    for pin in 0..cell.input_count() {
        out.push_str(&format!(
            "    pin (A{pin}) {{\n      direction : input;\n      capacitance : {:.4};\n    }}\n",
            eq.input_cap().femtofarads()
        ));
    }
    out.push_str("    pin (Y) {\n      direction : output;\n");
    for group in groups {
        out.push_str(&format!(
            "      timing () {{\n        related_pin : \"A{}\";\n",
            group.related_pin
        ));
        for (name, rows) in &group.tables {
            out.push_str(&render_table(name, rows));
        }
        out.push_str("      }\n");
    }
    out.push_str("    }\n  }\n");
    out
}

fn table_values(
    engine: &CharacterizationEngine,
    cell: Cell,
    arc: &TimingArc,
    vdd: Volts,
    slew_axis: &[f64],
    load_axis: &[f64],
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let points: Vec<slic_spice::InputPoint> = slew_axis
        .iter()
        .flat_map(|&sin| {
            load_axis
                .iter()
                .map(move |&cload| slic_spice::InputPoint::new(Seconds(sin), Farads(cload), vdd))
        })
        .collect();
    let mut measurements = engine.sweep_nominal(cell, arc, &points).into_iter();
    slew_axis
        .iter()
        .map(|_| {
            measurements
                .by_ref()
                .take(load_axis.len())
                .map(|m| (m.delay.picoseconds(), m.output_slew.picoseconds()))
                .unzip()
        })
        .unzip()
}

fn render_table(group: &str, rows: &[Vec<f64>]) -> String {
    let mut out = format!("        {group} (slic_template) {{\n          values ( \\\n");
    for (i, row) in rows.iter().enumerate() {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.4}")).collect();
        let terminator = if i + 1 == rows.len() {
            " );\n"
        } else {
            ", \\\n"
        };
        out.push_str(&format!("            \"{}\"{terminator}", cells.join(", ")));
    }
    out.push_str("        }\n");
    out
}

fn format_axis_ps(axis: &[f64]) -> String {
    axis.iter()
        .map(|v| format!("{:.3}", v * 1e12))
        .collect::<Vec<_>>()
        .join(", ")
}

fn format_axis_ff(axis: &[f64]) -> String {
    axis.iter()
        .map(|v| format!("{:.3}", v * 1e15))
        .collect::<Vec<_>>()
        .join(", ")
}

/// One `values ( ... )` table found by [`scan_liberty_tables`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibertyTableScan {
    /// Name of the enclosing `cell (...)` group.
    pub cell: String,
    /// Table group name, e.g. `cell_rise` or `ocv_sigma_cell_fall`.
    pub group: String,
    /// Number of value rows (slew indices).
    pub rows: usize,
    /// Number of columns per row (load indices).
    pub cols: usize,
}

/// Parses an exported Liberty text back into its table inventory — the round-trip check
/// used by the integration tests and the CI smoke jobs.
///
/// This is deliberately *not* a general Liberty parser: it validates exactly the subset
/// the exporters emit — balanced braces, and for every `<group> (slic_template)` block a
/// `values ( ... )` body whose rows are rectangular and whose every entry parses as a
/// finite number — and returns one [`LibertyTableScan`] per table.
///
/// # Errors
///
/// Returns a message naming the offending line on unbalanced braces, a truncated values
/// block, ragged rows or a non-finite table entry.
pub fn scan_liberty_tables(text: &str) -> Result<Vec<LibertyTableScan>, String> {
    if text.matches('{').count() != text.matches('}').count() {
        return Err(format!(
            "unbalanced braces: {} opening vs {} closing",
            text.matches('{').count(),
            text.matches('}').count()
        ));
    }
    let mut tables = Vec::new();
    let mut cell = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((_, raw)) = lines.next() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("cell (") {
            cell = rest.split(')').next().unwrap_or("").to_string();
            continue;
        }
        let Some(group) = line.strip_suffix("(slic_template) {").map(str::trim) else {
            continue;
        };
        // The template *definition* block has index lines, not values; only consume a
        // values body when one actually follows.
        if !lines
            .peek()
            .is_some_and(|(_, next)| next.trim().starts_with("values ("))
        {
            continue;
        }
        lines.next();
        let mut row_lengths: Vec<usize> = Vec::new();
        loop {
            let Some((row_number, row_raw)) = lines.next() else {
                return Err(format!(
                    "table `{group}` of cell `{cell}` ends mid-values block"
                ));
            };
            let row_line = row_raw.trim();
            let Some(first_quote) = row_line.find('"') else {
                return Err(format!(
                    "line {}: expected a quoted values row in table `{group}`",
                    row_number + 1
                ));
            };
            let Some(last_quote) = row_line.rfind('"').filter(|end| *end > first_quote) else {
                return Err(format!(
                    "line {}: unterminated values row in table `{group}`",
                    row_number + 1
                ));
            };
            let body = &row_line[first_quote + 1..last_quote];
            let mut cols = 0usize;
            for entry in body.split(',') {
                let value: f64 = entry.trim().parse().map_err(|_| {
                    format!(
                        "line {}: `{}` in table `{group}` is not a number",
                        row_number + 1,
                        entry.trim()
                    )
                })?;
                if !value.is_finite() {
                    return Err(format!(
                        "line {}: non-finite entry in table `{group}`",
                        row_number + 1
                    ));
                }
                cols += 1;
            }
            row_lengths.push(cols);
            if row_line.ends_with(");") {
                break;
            }
        }
        let cols = row_lengths[0];
        if row_lengths.iter().any(|c| *c != cols) {
            return Err(format!(
                "table `{group}` of cell `{cell}` has ragged rows: {row_lengths:?}"
            ));
        }
        tables.push(LibertyTableScan {
            cell: cell.clone(),
            group: group.to_string(),
            rows: row_lengths.len(),
            cols,
        });
    }
    if tables.is_empty() {
        return Err("no lookup tables found".to_string());
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slic_cells::{CellKind, DriveStrength};
    use slic_device::TechnologyNode;
    use slic_spice::TransientConfig;

    fn engine() -> CharacterizationEngine {
        CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), TransientConfig::fast())
            .expect("valid transient configuration")
    }

    #[test]
    fn export_contains_library_cells_and_tables() {
        let eng = engine();
        let lib = Library::new(
            "mini",
            [
                Cell::new(CellKind::Inv, DriveStrength::X1),
                Cell::new(CellKind::Nand2, DriveStrength::X1),
            ],
        );
        let grid = ExportGrid {
            slew_levels: 2,
            load_levels: 2,
        };
        let text = export_library(&eng, &lib, grid).expect("export succeeds");
        assert!(text.starts_with("library ("));
        assert!(text.contains("cell (INV_X1)"));
        assert!(text.contains("cell (NAND2_X1)"));
        assert!(text.contains("cell_rise"));
        assert!(text.contains("fall_transition"));
        assert!(text.contains("lu_table_template"));
        // Two cells x two transitions x two tables x 2 rows of values.
        assert!(text.matches("values (").count() == 8);
        // Braces balance.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        // Cost: 2 cells x 2 transitions x 4 grid points.
        assert_eq!(eng.simulation_count(), 16);
    }

    #[test]
    fn delays_in_tables_increase_with_load() {
        let eng = engine();
        let lib = Library::new("inv", [Cell::new(CellKind::Inv, DriveStrength::X1)]);
        let grid = ExportGrid {
            slew_levels: 2,
            load_levels: 3,
        };
        let text = export_library(&eng, &lib, grid).expect("export succeeds");
        // Extract the first values row and check it is increasing (delay vs load).
        let row = text
            .lines()
            .find(|l| l.trim_start().starts_with('"'))
            .expect("at least one values row");
        let nums: Vec<f64> = row
            .trim()
            .trim_start_matches('"')
            .split('"')
            .next()
            .unwrap()
            .split(',')
            .map(|s| s.trim().parse::<f64>().unwrap())
            .collect();
        assert_eq!(nums.len(), 3);
        assert!(nums.windows(2).all(|w| w[1] > w[0]), "row = {nums:?}");
    }

    #[test]
    fn fitted_export_costs_no_simulations_and_tracks_the_model() {
        let eng = engine();
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        // Fit both metrics of both transitions from a handful of direct simulations.
        let mut arcs = Vec::new();
        let points = eng.input_space().lut_grid(3, 3, 2);
        let nominal = slic_device::ProcessSample::nominal();
        for transition in Transition::BOTH {
            let arc = TimingArc::new(cell, 0, transition);
            let ms = eng.sweep_nominal(cell, &arc, &points);
            let fitter = slic_timing_model::LeastSquaresFitter::new();
            let samples = |metric: fn(&slic_spice::TimingMeasurement) -> slic_units::Seconds| {
                points
                    .iter()
                    .zip(&ms)
                    .map(|(p, m)| {
                        slic_timing_model::TimingSample::new(
                            *p,
                            eng.ieff(&arc, p, &nominal),
                            metric(m),
                        )
                    })
                    .collect::<Vec<_>>()
            };
            arcs.push(FittedArc {
                arc,
                delay: fitter.fit(&samples(|m| m.delay)).params,
                slew: fitter.fit(&samples(|m| m.output_slew)).params,
            });
        }
        let before = eng.simulation_count();
        let text = export_fitted_library(
            &eng,
            "run-artifact",
            &arcs,
            &[],
            ExportGrid {
                slew_levels: 3,
                load_levels: 3,
            },
        )
        .expect("export succeeds");
        assert_eq!(
            eng.simulation_count(),
            before,
            "fitted export must not simulate"
        );
        assert!(text.starts_with("library (run_artifact_slic)"));
        assert!(text.contains("cell (INV_X1)"));
        assert!(text.contains("cell_rise"));
        assert!(text.contains("fall_transition"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        // The model-rendered delay row increases with load, like the simulated tables.
        let row = text
            .lines()
            .find(|l| l.trim_start().starts_with('"'))
            .expect("at least one values row");
        let nums: Vec<f64> = row
            .trim()
            .trim_start_matches('"')
            .split('"')
            .next()
            .unwrap()
            .split(',')
            .map(|s| s.trim().parse::<f64>().unwrap())
            .collect();
        assert!(nums.windows(2).all(|w| w[1] > w[0]), "row = {nums:?}");
    }

    #[test]
    fn fitted_export_skips_uncovered_transitions() {
        let eng = engine();
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let arcs = [FittedArc {
            arc,
            delay: slic_timing_model::TimingParams::initial_guess(),
            slew: slic_timing_model::TimingParams::initial_guess(),
        }];
        let text = export_fitted_library(&eng, "partial", &arcs, &[], ExportGrid::default())
            .expect("export succeeds");
        assert!(text.contains("cell_fall"));
        assert!(
            !text.contains("cell_rise"),
            "uncovered rise transition must be omitted"
        );
    }

    /// A uniform moments grid of the given shape, for variation-export tests.
    fn flat_rows(rows: usize, cols: usize, value: f64) -> Vec<Vec<f64>> {
        vec![vec![value; cols]; rows]
    }

    fn variation_for(arc: TimingArc, rows: usize, cols: usize) -> ArcVariation {
        ArcVariation {
            arc,
            delay_sigma: flat_rows(rows, cols, 0.4e-12),
            delay_skew: flat_rows(rows, cols, 0.1e-12),
            slew_sigma: flat_rows(rows, cols, 0.3e-12),
            slew_skew: flat_rows(rows, cols, -0.05e-12),
        }
    }

    #[test]
    fn variation_export_emits_lvf_groups_on_the_nominal_grid() {
        let eng = engine();
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let grid = ExportGrid {
            slew_levels: 3,
            load_levels: 2,
        };
        let arcs: Vec<FittedArc> = Transition::BOTH
            .into_iter()
            .map(|t| FittedArc {
                arc: TimingArc::new(cell, 0, t),
                delay: slic_timing_model::TimingParams::initial_guess(),
                slew: slic_timing_model::TimingParams::initial_guess(),
            })
            .collect();
        // Only the fall arc gets moments: the rise group must stay purely nominal.
        let variation = [variation_for(arcs[1].arc, 3, 2)];
        let text =
            export_fitted_library(&eng, "lvf", &arcs, &variation, grid).expect("export succeeds");
        for group in [
            "ocv_sigma_cell_fall",
            "ocv_skewness_cell_fall",
            "ocv_sigma_fall_transition",
            "ocv_skewness_fall_transition",
        ] {
            assert!(text.contains(group), "missing `{group}`");
        }
        assert!(
            !text.contains("ocv_sigma_cell_rise"),
            "an arc without moments must not grow LVF groups"
        );
        let tables = scan_liberty_tables(&text).expect("export parses back");
        let shape_of = |group: &str| {
            let t = tables
                .iter()
                .find(|t| t.group == group)
                .unwrap_or_else(|| panic!("table `{group}` scanned"));
            (t.rows, t.cols)
        };
        assert_eq!(shape_of("cell_fall"), (3, 2));
        assert_eq!(
            shape_of("ocv_sigma_cell_fall"),
            shape_of("cell_fall"),
            "LVF tables share the nominal index grid"
        );
        assert_eq!(shape_of("ocv_skewness_fall_transition"), (3, 2));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn misshapen_variation_tables_are_rejected() {
        let eng = engine();
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let arcs = [FittedArc {
            arc,
            delay: slic_timing_model::TimingParams::initial_guess(),
            slew: slic_timing_model::TimingParams::initial_guess(),
        }];
        let variation = [variation_for(arc, 2, 2)];
        let err = export_fitted_library(
            &eng,
            "bad",
            &arcs,
            &variation,
            ExportGrid {
                slew_levels: 4,
                load_levels: 4,
            },
        )
        .expect_err("a 2x2 moments grid cannot sit on a 4x4 template");
        assert!(matches!(err, ExportError::VariationShape { .. }), "{err:?}");
        assert!(err.to_string().contains("2x2"), "{err}");
    }

    #[test]
    fn liberty_scanner_round_trips_exports_and_rejects_mangled_text() {
        let eng = engine();
        let lib = Library::new("mini", [Cell::new(CellKind::Inv, DriveStrength::X1)]);
        let grid = ExportGrid {
            slew_levels: 2,
            load_levels: 3,
        };
        let text = export_library(&eng, &lib, grid).expect("export succeeds");
        let tables = scan_liberty_tables(&text).expect("export parses back");
        // One cell x two transitions x two tables.
        assert_eq!(tables.len(), 4);
        assert!(tables
            .iter()
            .all(|t| t.cell == "INV_X1" && t.rows == 2 && t.cols == 3));
        // A dropped closing brace and a corrupted number must both be caught.
        assert!(scan_liberty_tables(&text.replacen('}', "", 1))
            .unwrap_err()
            .contains("unbalanced braces"));
        let first_value = text
            .lines()
            .find(|l| l.trim_start().starts_with('"'))
            .unwrap()
            .trim()
            .trim_start_matches('"')
            .split(',')
            .next()
            .unwrap()
            .to_string();
        let mangled = text.replacen(&first_value, "oops", 1);
        assert!(scan_liberty_tables(&mangled)
            .unwrap_err()
            .contains("not a number"));
    }

    #[test]
    fn empty_library_rejected() {
        let err = export_library(&engine(), &Library::new("none", []), ExportGrid::default())
            .expect_err("empty library must be rejected");
        assert_eq!(err, ExportError::EmptyLibrary);
        assert!(err.to_string().contains("empty library"));
    }

    #[test]
    fn empty_fitted_export_rejected() {
        let err = export_fitted_library(&engine(), "none", &[], &[], ExportGrid::default())
            .expect_err("empty fitted export must be rejected");
        assert_eq!(err, ExportError::EmptyLibrary);
    }

    #[test]
    fn degenerate_grid_rejected() {
        let lib = Library::new("inv", [Cell::new(CellKind::Inv, DriveStrength::X1)]);
        let err = export_library(
            &engine(),
            &lib,
            ExportGrid {
                slew_levels: 1,
                load_levels: 4,
            },
        )
        .expect_err("degenerate grid must be rejected");
        assert_eq!(
            err,
            ExportError::DegenerateGrid {
                slew_levels: 1,
                load_levels: 4
            }
        );
        assert!(err.to_string().contains("at least 2x2"));
    }
}
