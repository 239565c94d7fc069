//! Synthetic technology nodes.
//!
//! The paper learns its priors from six historical technologies "from 14-nm to 45-nm, with
//! both bulk-Silicon and SOI technologies and non-FINFET and FINFET technologies" and then
//! characterizes new 14-nm and 28-nm libraries.  The constructors in this module provide an
//! equivalent synthetic family: each node has its own nominal NMOS/PMOS virtual-source
//! parameters, supply range, parasitics and variation level, arranged so that
//!
//! * drive currents and capacitances scale plausibly from node to node, and
//! * the compact-timing-model parameters extracted from them land close to (but not exactly
//!   on) one another — the property Table I demonstrates and the prior-learning step relies
//!   on.
//!
//! The two `target_*` constructors intentionally perturb their parent node: they play the
//! role of the "unknown" new technology that the Bayesian flow must characterize from a
//! handful of simulations.

use crate::mosfet::{DeviceParams, Polarity};
use crate::variation::ProcessVariation;
use serde::{Deserialize, Serialize};
use slic_units::{Farads, Volts};
use std::sync::{Arc, OnceLock};

/// Whether a node is used as historical training data or as the characterization target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TechnologyKind {
    /// A previously characterized library; contributes to the prior.
    Historical,
    /// The new technology being characterized.
    Target,
}

/// Structural / substrate flavor of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcessFlavor {
    /// `true` for FinFET devices, `false` for planar.
    pub finfet: bool,
    /// `true` for silicon-on-insulator, `false` for bulk silicon.
    pub soi: bool,
    /// `true` for a low-power (high-Vt, low-leakage) process variant.
    pub low_power: bool,
}

impl ProcessFlavor {
    /// Convenience constructor.
    pub fn new(finfet: bool, soi: bool, low_power: bool) -> Self {
        Self {
            finfet,
            soi,
            low_power,
        }
    }
}

/// A complete description of one technology node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechnologyNode {
    name: String,
    node_nm: u32,
    kind: TechnologyKind,
    flavor: ProcessFlavor,
    nmos: DeviceParams,
    pmos: DeviceParams,
    vdd_nominal: Volts,
    vdd_min: Volts,
    vdd_max: Volts,
    cell_parasitic_cap: Farads,
    variation: ProcessVariation,
}

impl TechnologyNode {
    /// Creates a technology node from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if either device fails validation or the supply range is inverted.
    #[expect(clippy::too_many_arguments, reason = "one argument per node property")]
    pub fn new(
        name: impl Into<String>,
        node_nm: u32,
        kind: TechnologyKind,
        flavor: ProcessFlavor,
        nmos: DeviceParams,
        pmos: DeviceParams,
        vdd_nominal: Volts,
        vdd_range: (Volts, Volts),
        cell_parasitic_cap: Farads,
        variation: ProcessVariation,
    ) -> Self {
        #[expect(
            clippy::panic,
            reason = "baselined: invalid NMOS parameters are a caller bug, documented under Panics"
        )]
        if let Err(msg) = nmos.validate() {
            panic!("invalid NMOS parameters for technology: {msg}");
        }
        #[expect(
            clippy::panic,
            reason = "baselined: invalid PMOS parameters are a caller bug, documented under Panics"
        )]
        if let Err(msg) = pmos.validate() {
            panic!("invalid PMOS parameters for technology: {msg}");
        }
        assert!(
            vdd_range.0.value() > 0.0 && vdd_range.0 <= vdd_range.1,
            "invalid supply range"
        );
        Self {
            name: name.into(),
            node_nm,
            kind,
            flavor,
            nmos,
            pmos,
            vdd_nominal,
            vdd_min: vdd_range.0,
            vdd_max: vdd_range.1,
            cell_parasitic_cap,
            variation,
        }
    }

    /// Human-readable name, e.g. `"hist-28nm-bulk"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feature size in nanometres.
    pub fn node_nm(&self) -> u32 {
        self.node_nm
    }

    /// Whether this node is historical training data or the characterization target.
    pub fn kind(&self) -> TechnologyKind {
        self.kind
    }

    /// Structural flavor of the node.
    pub fn flavor(&self) -> ProcessFlavor {
        self.flavor
    }

    /// Nominal NMOS parameters of the unit device.
    pub fn nmos(&self) -> &DeviceParams {
        &self.nmos
    }

    /// Nominal PMOS parameters of the unit device.
    pub fn pmos(&self) -> &DeviceParams {
        &self.pmos
    }

    /// Nominal device of the requested polarity.
    pub fn device(&self, polarity: Polarity) -> &DeviceParams {
        match polarity {
            Polarity::Nmos => &self.nmos,
            Polarity::Pmos => &self.pmos,
        }
    }

    /// Nominal supply voltage.
    pub fn vdd_nominal(&self) -> Volts {
        self.vdd_nominal
    }

    /// Supported supply range `(min, max)` — the `Vdd` axis of the characterization space.
    pub fn vdd_range(&self) -> (Volts, Volts) {
        (self.vdd_min, self.vdd_max)
    }

    /// Fixed parasitic capacitance added at every cell output (junctions, local wiring).
    pub fn cell_parasitic_cap(&self) -> Farads {
        self.cell_parasitic_cap
    }

    /// Process-variation magnitudes of the node.
    pub fn variation(&self) -> &ProcessVariation {
        &self.variation
    }

    /// Returns a renamed copy re-tagged with a different [`TechnologyKind`].
    pub fn with_kind(mut self, kind: TechnologyKind) -> Self {
        self.kind = kind;
        self
    }

    // --- The synthetic node family --------------------------------------------------------

    /// 45-nm bulk planar node (oldest historical node).
    pub fn n45_bulk() -> Self {
        Self::node_from_recipe(
            "hist-45nm-bulk",
            45,
            false,
            false,
            false,
            1.1,
            (0.85, 1.2),
            1.0,
        )
    }

    /// 32-nm SOI planar node.
    pub fn n32_soi() -> Self {
        Self::node_from_recipe(
            "hist-32nm-soi",
            32,
            false,
            true,
            false,
            1.0,
            (0.8, 1.15),
            0.9,
        )
    }

    /// 28-nm bulk planar node (low-power flavor).
    pub fn n28_bulk() -> Self {
        Self::node_from_recipe(
            "hist-28nm-bulk",
            28,
            false,
            false,
            true,
            0.95,
            (0.75, 1.1),
            0.85,
        )
    }

    /// 20-nm bulk planar node.
    pub fn n20_bulk() -> Self {
        Self::node_from_recipe(
            "hist-20nm-bulk",
            20,
            false,
            false,
            false,
            0.9,
            (0.7, 1.05),
            0.8,
        )
    }

    /// 16-nm bulk FinFET node.
    pub fn n16_finfet() -> Self {
        Self::node_from_recipe(
            "hist-16nm-finfet",
            16,
            true,
            false,
            false,
            0.8,
            (0.65, 1.0),
            0.75,
        )
    }

    /// 14-nm SOI FinFET node (newest historical node).
    pub fn n14_finfet() -> Self {
        Self::node_from_recipe(
            "hist-14nm-finfet",
            14,
            true,
            true,
            false,
            0.8,
            (0.65, 1.0),
            0.7,
        )
    }

    /// Looks a node of the synthetic family up by name, accepting both the constructor
    /// spelling (`"n28_bulk"`, `"target_14nm"`) and the node's display name
    /// (`"hist-28nm-bulk"`, `"target-14nm-finfet"`) — the name → node mapping used by run
    /// configs and the CLI.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::by_name_shared(name).map(|node| Self::clone(&node))
    }

    /// [`by_name`](Self::by_name) without the copy: the family is built once per process,
    /// and every lookup of one node returns the same [`Arc`], so requests rebuilt from
    /// node names (farm wire lanes) share one node instead of building one each.
    pub fn by_name_shared(name: &str) -> Option<Arc<Self>> {
        static FAMILY: OnceLock<[(&str, Arc<TechnologyNode>); 8]> = OnceLock::new();
        let family = FAMILY.get_or_init(|| {
            [
                ("n45_bulk", Self::n45_bulk()),
                ("n32_soi", Self::n32_soi()),
                ("n28_bulk", Self::n28_bulk()),
                ("n20_bulk", Self::n20_bulk()),
                ("n16_finfet", Self::n16_finfet()),
                ("n14_finfet", Self::n14_finfet()),
                ("target_14nm", Self::target_14nm()),
                ("target_28nm", Self::target_28nm()),
            ]
            .map(|(short, node)| (short, Arc::new(node)))
        });
        family
            .iter()
            .find(|(short, node)| {
                short.eq_ignore_ascii_case(name) || node.name().eq_ignore_ascii_case(name)
            })
            .map(|(_, node)| Arc::clone(node))
    }

    /// The full historical suite used to learn priors (6 nodes, mirroring the paper's
    /// `Ntech = 6`).
    pub fn historical_suite() -> Vec<Self> {
        vec![
            Self::n45_bulk(),
            Self::n32_soi(),
            Self::n28_bulk(),
            Self::n20_bulk(),
            Self::n16_finfet(),
            Self::n14_finfet(),
        ]
    }

    /// The "unknown" state-of-the-art 14-nm FinFET target of the paper's first experiment.
    ///
    /// Derived from [`TechnologyNode::n14_finfet`] but with deliberately shifted threshold,
    /// velocity and parasitics, so the prior is informative yet not exact.
    pub fn target_14nm() -> Self {
        let mut node = Self::node_from_recipe(
            "target-14nm-finfet",
            14,
            true,
            true,
            false,
            0.8,
            (0.65, 1.0),
            0.7,
        );
        node.kind = TechnologyKind::Target;
        node.nmos.vth0 *= 1.06;
        node.pmos.vth0 *= 1.04;
        node.nmos.vx0 *= 1.08;
        node.pmos.vx0 *= 1.05;
        node.nmos.dibl *= 0.9;
        node.pmos.dibl *= 0.92;
        node.cell_parasitic_cap = Farads(node.cell_parasitic_cap.value() * 1.07);
        node.name = "target-14nm-finfet".to_string();
        node
    }

    /// The 28-nm bulk target of the paper's second (statistical) experiment.
    pub fn target_28nm() -> Self {
        let mut node = Self::node_from_recipe(
            "target-28nm-bulk",
            28,
            false,
            false,
            true,
            0.95,
            (0.7, 1.1),
            0.85,
        );
        node.kind = TechnologyKind::Target;
        node.nmos.vth0 *= 0.95;
        node.pmos.vth0 *= 1.05;
        node.nmos.vx0 *= 0.94;
        node.pmos.vx0 *= 0.96;
        node.cell_parasitic_cap = Farads(node.cell_parasitic_cap.value() * 1.1);
        // The 28-nm target is characterized statistically; give it slightly larger local
        // variation than its historical sibling to stress the statistical flow.
        node.variation = ProcessVariation::new(0.026, 0.02, 0.06, 0.025, 0.1);
        node
    }

    /// Shared recipe that turns a coarse node description into concrete device parameters.
    ///
    /// The scaling rules are deliberately simple monotone functions of the feature size and
    /// flavor flags; they produce the ±10 %-ish node-to-node parameter spread that makes
    /// historical priors informative.
    #[expect(clippy::too_many_arguments, reason = "one argument per recipe knob")]
    fn node_from_recipe(
        name: &str,
        node_nm: u32,
        finfet: bool,
        soi: bool,
        low_power: bool,
        vdd_nom: f64,
        vdd_range: (f64, f64),
        cap_scale: f64,
    ) -> Self {
        let shrink = 45.0 / node_nm as f64; // 1.0 at 45 nm, ≈3.2 at 14 nm
        let fin_boost = if finfet { 1.25 } else { 1.0 };
        let soi_boost = if soi { 1.08 } else { 1.0 };
        let lp_vth = if low_power { 1.40 } else { 1.0 };

        let nmos = DeviceParams {
            vth0: 0.30 * lp_vth + 0.02 * (node_nm as f64 / 45.0),
            dibl: (0.045 + 0.05 / shrink.sqrt()) * if finfet { 0.7 } else { 1.0 },
            ss_factor: if finfet { 1.12 } else { 1.28 + 0.04 / shrink },
            vx0: 6.0e4 * (1.0 + 0.35 * (shrink - 1.0) / 2.2) * fin_boost * soi_boost,
            cinv: 1.3e-2 * (1.0 + 0.25 * (shrink - 1.0) / 2.2),
            width: 3.0e-7 / shrink.sqrt(),
            vdsat: 0.26 - 0.03 * (shrink - 1.0) / 2.2,
            beta_sat: if finfet { 1.9 } else { 1.7 },
            gate_cap: 0.5e-15 * cap_scale,
            drain_cap: 0.3e-15 * cap_scale,
        };
        let pmos = DeviceParams {
            vth0: nmos.vth0 * 1.03,
            dibl: nmos.dibl * 1.1,
            ss_factor: nmos.ss_factor * 1.02,
            vx0: nmos.vx0 * if finfet { 0.85 } else { 0.72 },
            width: nmos.width * if finfet { 1.15 } else { 1.4 },
            gate_cap: nmos.gate_cap * if finfet { 1.15 } else { 1.4 },
            drain_cap: nmos.drain_cap * if finfet { 1.15 } else { 1.4 },
            ..nmos.clone()
        };
        let variation = ProcessVariation::new(
            0.014 + 0.004 * (shrink - 1.0) / 2.2,
            0.009 + 0.004 * (shrink - 1.0) / 2.2,
            0.04 + 0.015 * (shrink - 1.0) / 2.2,
            0.02,
            0.08,
        );
        Self::new(
            name,
            node_nm,
            TechnologyKind::Historical,
            ProcessFlavor::new(finfet, soi, low_power),
            nmos,
            pmos,
            Volts(vdd_nom),
            (Volts(vdd_range.0), Volts(vdd_range.1)),
            Farads(0.9e-15 * cap_scale),
            variation,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::Mosfet;

    #[test]
    fn historical_suite_has_six_distinct_nodes() {
        let suite = TechnologyNode::historical_suite();
        assert_eq!(suite.len(), 6);
        let mut names: Vec<&str> = suite.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "node names must be unique");
        assert!(suite.iter().all(|t| t.kind() == TechnologyKind::Historical));
    }

    #[test]
    fn all_nodes_have_valid_devices() {
        for node in TechnologyNode::historical_suite()
            .into_iter()
            .chain([TechnologyNode::target_14nm(), TechnologyNode::target_28nm()])
        {
            assert!(node.nmos().validate().is_ok(), "{}", node.name());
            assert!(node.pmos().validate().is_ok(), "{}", node.name());
            let (lo, hi) = node.vdd_range();
            assert!(lo < hi);
            assert!(node.vdd_nominal() >= lo && node.vdd_nominal() <= hi);
            assert!(node.cell_parasitic_cap().value() > 0.0);
        }
    }

    #[test]
    fn newer_nodes_drive_more_current_per_width() {
        let old = TechnologyNode::n45_bulk();
        let new = TechnologyNode::n14_finfet();
        // Compare current density (A/m) at each node's own nominal Vdd.
        let i_old = Mosfet::nmos(old.nmos().clone())
            .ieff(old.vdd_nominal())
            .value()
            / old.nmos().width;
        let i_new = Mosfet::nmos(new.nmos().clone())
            .ieff(new.vdd_nominal())
            .value()
            / new.nmos().width;
        assert!(i_new > i_old, "old = {i_old}, new = {i_new}");
    }

    #[test]
    fn newer_nodes_have_smaller_parasitics_and_lower_vdd() {
        let old = TechnologyNode::n45_bulk();
        let new = TechnologyNode::n14_finfet();
        assert!(new.cell_parasitic_cap().value() < old.cell_parasitic_cap().value());
        assert!(new.vdd_nominal() < old.vdd_nominal());
    }

    #[test]
    fn finfet_nodes_have_steeper_subthreshold_slope() {
        let finfet = TechnologyNode::n16_finfet();
        let planar = TechnologyNode::n28_bulk();
        assert!(finfet.nmos().ss_factor < planar.nmos().ss_factor);
        assert!(finfet.flavor().finfet);
        assert!(!planar.flavor().finfet);
        assert!(planar.flavor().low_power);
    }

    #[test]
    fn targets_differ_from_their_historical_siblings_but_not_wildly() {
        let hist = TechnologyNode::n14_finfet();
        let target = TechnologyNode::target_14nm();
        assert_eq!(target.kind(), TechnologyKind::Target);
        let rel = (target.nmos().vth0 - hist.nmos().vth0).abs() / hist.nmos().vth0;
        assert!(rel > 0.0 && rel < 0.2, "relative vth shift = {rel}");
        let rel_v = (target.nmos().vx0 - hist.nmos().vx0).abs() / hist.nmos().vx0;
        assert!(rel_v > 0.0 && rel_v < 0.2);
    }

    #[test]
    fn target_28nm_has_enhanced_variation() {
        let hist = TechnologyNode::n28_bulk();
        let target = TechnologyNode::target_28nm();
        assert!(target.variation().vth_sigma_total() > hist.variation().vth_sigma_total());
    }

    #[test]
    fn pmos_is_weaker_than_nmos_at_same_width() {
        for node in TechnologyNode::historical_suite() {
            let n = Mosfet::nmos(node.nmos().clone());
            let p = Mosfet::pmos(node.pmos().clone())
                .scaled_width(node.nmos().width / node.pmos().width);
            let vdd = node.vdd_nominal();
            assert!(
                p.ieff(vdd).value() < n.ieff(vdd).value(),
                "{} PMOS should be weaker per width",
                node.name()
            );
        }
    }

    #[test]
    fn device_accessor_matches_polarity() {
        let node = TechnologyNode::n14_finfet();
        assert_eq!(node.device(Polarity::Nmos), node.nmos());
        assert_eq!(node.device(Polarity::Pmos), node.pmos());
    }

    #[test]
    fn with_kind_retags_node() {
        let node = TechnologyNode::n45_bulk().with_kind(TechnologyKind::Target);
        assert_eq!(node.kind(), TechnologyKind::Target);
    }

    #[test]
    fn nodes_resolve_by_either_name_spelling() {
        assert_eq!(
            TechnologyNode::by_name("n28_bulk").unwrap().name(),
            "hist-28nm-bulk"
        );
        assert_eq!(
            TechnologyNode::by_name("hist-28nm-bulk").unwrap().node_nm(),
            28
        );
        assert_eq!(
            TechnologyNode::by_name("TARGET_14NM").unwrap().name(),
            "target-14nm-finfet"
        );
        assert_eq!(
            TechnologyNode::by_name("target-28nm-bulk")
                .unwrap()
                .node_nm(),
            28
        );
        assert!(TechnologyNode::by_name("n7_gaafet").is_none());

        let short = TechnologyNode::by_name_shared("n28_bulk").expect("catalogue name");
        let display = TechnologyNode::by_name_shared("HIST-28NM-BULK").expect("display name");
        assert!(Arc::ptr_eq(&short, &display), "one node per process");
        assert_eq!(*short, TechnologyNode::n28_bulk());
        assert!(TechnologyNode::by_name_shared("n7_gaafet").is_none());
    }

    #[test]
    fn delays_scale_into_picoseconds() {
        // Sanity-check the absolute magnitude: a fanout-of-4-ish load driven by the unit
        // NMOS should give a CV/I time constant in the 1–100 ps range for every node.
        for node in TechnologyNode::historical_suite() {
            let ieff = Mosfet::nmos(node.nmos().clone()).ieff(node.vdd_nominal());
            let cload = Farads(3.0e-15) + node.cell_parasitic_cap();
            let t = (node.vdd_nominal() * cload) / ieff;
            let ps = t.picoseconds();
            assert!(ps > 1.0 && ps < 500.0, "{}: {ps} ps", node.name());
        }
    }
}
