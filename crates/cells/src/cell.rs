//! Cell types, drive strengths and transistor-level topology descriptions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The combinational cell types supported by the library.
///
/// Each kind is a static CMOS gate; its pull-up and pull-down networks are described by
/// [`CellKind::pull_up_topology`] / [`CellKind::pull_down_topology`], which is all the
/// equivalent-inverter reduction needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Single-input inverter.
    Inv,
    /// Two-stage buffer (modelled by its output stage, sized up internally).
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-1 AND-OR-invert (`Y = !(A·B + C)`).
    Aoi21,
    /// 2-1 OR-AND-invert (`Y = !((A + B)·C)`).
    Oai21,
}

impl CellKind {
    /// Every supported cell kind, in catalogue order.
    pub const ALL: [CellKind; 8] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Nor2,
        CellKind::Nor3,
        CellKind::Aoi21,
        CellKind::Oai21,
    ];

    /// The three cell kinds used for Table I and most of the paper's plots.
    pub const PAPER_TRIO: [CellKind; 3] = [CellKind::Inv, CellKind::Nand2, CellKind::Nor2];

    /// Parses a kind from its canonical name (case-insensitive), e.g. `"nand2"`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .iter()
            .copied()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Canonical name of the kind (upper-case, as it would appear in a `.lib`).
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nand3 => "NAND3",
            CellKind::Nor2 => "NOR2",
            CellKind::Nor3 => "NOR3",
            CellKind::Aoi21 => "AOI21",
            CellKind::Oai21 => "OAI21",
        }
    }

    /// Number of input pins.
    pub fn input_count(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf => 1,
            CellKind::Nand2 | CellKind::Nor2 => 2,
            CellKind::Nand3 | CellKind::Nor3 | CellKind::Aoi21 | CellKind::Oai21 => 3,
        }
    }

    /// Whether the cell is logically inverting from the switching input to the output.
    ///
    /// All supported static CMOS gates are inverting except the buffer, whose first stage
    /// absorbs the inversion.
    pub fn is_inverting(self) -> bool {
        !matches!(self, CellKind::Buf)
    }

    /// Topology of the pull-up (PMOS) network as seen from the switching input:
    /// `(series_depth, parallel_legs)`.
    ///
    /// `series_depth` is the number of PMOS devices in series along the conducting path of
    /// the worst-case arc and `parallel_legs` is the number of parallel branches hanging on
    /// the output node (used only for parasitic accounting).
    pub fn pull_up_topology(self) -> (usize, usize) {
        match self {
            CellKind::Inv | CellKind::Buf => (1, 1),
            CellKind::Nand2 => (1, 2),
            CellKind::Nand3 => (1, 3),
            CellKind::Nor2 => (2, 1),
            CellKind::Nor3 => (3, 1),
            // AOI21 pull-up: series (A·B branch) in series with C device -> depth 2,
            // one extra parallel leg on the internal node collapsed into parasitics.
            CellKind::Aoi21 => (2, 2),
            // OAI21 pull-up: (A + B) parallel pair in series nothing -> the conducting path
            // through a single device of the pair plus the C device in parallel topologies.
            CellKind::Oai21 => (2, 2),
        }
    }

    /// Topology of the pull-down (NMOS) network: `(series_depth, parallel_legs)`.
    pub fn pull_down_topology(self) -> (usize, usize) {
        match self {
            CellKind::Inv | CellKind::Buf => (1, 1),
            CellKind::Nand2 => (2, 1),
            CellKind::Nand3 => (3, 1),
            CellKind::Nor2 => (1, 2),
            CellKind::Nor3 => (1, 3),
            CellKind::Aoi21 => (2, 2),
            CellKind::Oai21 => (2, 2),
        }
    }

    /// Relative PMOS up-sizing applied at design time to roughly balance rise and fall
    /// delays (a beta ratio on top of the technology's unit PMOS).
    pub fn pmos_sizing(self) -> f64 {
        let (series, _) = self.pull_up_topology();
        1.0 + 0.35 * (series as f64 - 1.0)
    }

    /// Relative NMOS up-sizing applied at design time to compensate series stacks.
    pub fn nmos_sizing(self) -> f64 {
        let (series, _) = self.pull_down_topology();
        1.0 + 0.35 * (series as f64 - 1.0)
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Drive strength multiplier of a cell instance.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum DriveStrength {
    /// Unit drive.
    #[default]
    X1,
    /// Double drive.
    X2,
    /// Quadruple drive.
    X4,
}

impl DriveStrength {
    /// All supported drive strengths.
    pub const ALL: [DriveStrength; 3] = [DriveStrength::X1, DriveStrength::X2, DriveStrength::X4];

    /// Width multiplier relative to the unit cell.
    pub fn multiplier(self) -> f64 {
        match self {
            DriveStrength::X1 => 1.0,
            DriveStrength::X2 => 2.0,
            DriveStrength::X4 => 4.0,
        }
    }

    /// Suffix used in the cell name, e.g. `"_X2"`.
    pub fn suffix(self) -> &'static str {
        match self {
            DriveStrength::X1 => "_X1",
            DriveStrength::X2 => "_X2",
            DriveStrength::X4 => "_X4",
        }
    }

    /// Parses a drive strength from its short name (case-insensitive), e.g. `"X2"`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|d| {
            d.suffix()
                .trim_start_matches('_')
                .eq_ignore_ascii_case(name)
        })
    }
}

impl fmt::Display for DriveStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix().trim_start_matches('_'))
    }
}

/// A concrete cell: a kind at a drive strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Cell {
    kind: CellKind,
    drive: DriveStrength,
}

impl Cell {
    /// Creates a cell instance.
    pub fn new(kind: CellKind, drive: DriveStrength) -> Self {
        Self { kind, drive }
    }

    /// The cell kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// The drive strength.
    pub fn drive(&self) -> DriveStrength {
        self.drive
    }

    /// Full cell name, e.g. `"NAND2_X2"`.
    pub fn name(&self) -> String {
        format!("{}{}", self.kind.name(), self.drive.suffix())
    }

    /// Number of input pins.
    pub fn input_count(&self) -> usize {
        self.kind.input_count()
    }

    /// Effective PMOS width multiplier of the conducting pull-up path (drive × design
    /// sizing).
    pub fn pmos_width_factor(&self) -> f64 {
        self.drive.multiplier() * self.kind.pmos_sizing()
    }

    /// Effective NMOS width multiplier of the conducting pull-down path.
    pub fn nmos_width_factor(&self) -> f64 {
        self.drive.multiplier() * self.kind.nmos_sizing()
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;

    #[test]
    fn names_and_input_counts() {
        assert_eq!(CellKind::Inv.name(), "INV");
        assert_eq!(CellKind::Nand2.input_count(), 2);
        assert_eq!(CellKind::Nor3.input_count(), 3);
        assert_eq!(CellKind::Aoi21.input_count(), 3);
        assert_eq!(CellKind::Buf.input_count(), 1);
        assert_eq!(format!("{}", CellKind::Oai21), "OAI21");
    }

    #[test]
    fn all_kinds_listed_once() {
        let mut names: Vec<&str> = CellKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CellKind::ALL.len());
    }

    #[test]
    fn paper_trio_is_inv_nand_nor() {
        assert_eq!(
            CellKind::PAPER_TRIO,
            [CellKind::Inv, CellKind::Nand2, CellKind::Nor2]
        );
    }

    #[test]
    fn nand_stacks_nmos_and_parallels_pmos() {
        assert_eq!(CellKind::Nand2.pull_down_topology(), (2, 1));
        assert_eq!(CellKind::Nand2.pull_up_topology(), (1, 2));
        assert_eq!(CellKind::Nand3.pull_down_topology(), (3, 1));
    }

    #[test]
    fn nor_stacks_pmos_and_parallels_nmos() {
        assert_eq!(CellKind::Nor2.pull_up_topology(), (2, 1));
        assert_eq!(CellKind::Nor2.pull_down_topology(), (1, 2));
        assert_eq!(CellKind::Nor3.pull_up_topology(), (3, 1));
    }

    #[test]
    fn stacked_networks_get_upsized() {
        assert!(CellKind::Nand2.nmos_sizing() > CellKind::Inv.nmos_sizing());
        assert!(CellKind::Nor2.pmos_sizing() > CellKind::Inv.pmos_sizing());
        assert_eq!(CellKind::Inv.nmos_sizing(), 1.0);
    }

    #[test]
    fn inverting_property() {
        assert!(CellKind::Inv.is_inverting());
        assert!(CellKind::Nand2.is_inverting());
        assert!(!CellKind::Buf.is_inverting());
    }

    #[test]
    fn drive_strength_multipliers() {
        assert_eq!(DriveStrength::X1.multiplier(), 1.0);
        assert_eq!(DriveStrength::X2.multiplier(), 2.0);
        assert_eq!(DriveStrength::X4.multiplier(), 4.0);
        assert_eq!(DriveStrength::default(), DriveStrength::X1);
        assert_eq!(format!("{}", DriveStrength::X2), "X2");
    }

    #[test]
    fn cell_names_and_factors() {
        let c = Cell::new(CellKind::Nand2, DriveStrength::X2);
        assert_eq!(c.name(), "NAND2_X2");
        assert_eq!(format!("{c}"), "NAND2_X2");
        assert_eq!(c.input_count(), 2);
        assert!(c.nmos_width_factor() > 2.0, "stack compensation plus drive");
        let x1 = Cell::new(CellKind::Nand2, DriveStrength::X1);
        assert!((c.nmos_width_factor() / x1.nmos_width_factor() - 2.0).abs() < 1e-12);
        assert_eq!(c.kind(), CellKind::Nand2);
        assert_eq!(c.drive(), DriveStrength::X2);
    }
}
