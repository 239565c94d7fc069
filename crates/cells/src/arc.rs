//! Timing arcs: which input switches and which way the output moves.

use crate::cell::{Cell, CellKind, DriveStrength};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::fmt;

/// Direction of a signal transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Transition {
    /// Low-to-high transition.
    Rise,
    /// High-to-low transition.
    Fall,
}

impl Transition {
    /// Both transition directions.
    pub const BOTH: [Transition; 2] = [Transition::Rise, Transition::Fall];
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transition::Rise => f.write_str("RISE"),
            Transition::Fall => f.write_str("FALL"),
        }
    }
}

/// One timing arc of a cell: a switching input pin and the resulting output transition.
///
/// Following the paper, only one timing arc is modelled at a time (no simultaneous input
/// switching); the other inputs are held at their non-controlling values.
///
/// Deserialization and [`from_id`](Self::from_id) apply the constructor's pin-range
/// check, so an arc read from a cache record, a wire request or an artifact names a pin
/// its cell has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct TimingArc {
    cell: Cell,
    input_pin: usize,
    output_transition: Transition,
}

impl TimingArc {
    /// Creates a timing arc.
    ///
    /// # Panics
    ///
    /// Panics if `input_pin` is out of range for the cell.
    pub fn new(cell: Cell, input_pin: usize, output_transition: Transition) -> Self {
        assert!(
            input_pin < cell.input_count(),
            "{}",
            pin_out_of_range(cell, input_pin)
        );
        Self {
            cell,
            input_pin,
            output_transition,
        }
    }

    /// The cell this arc belongs to.
    pub fn cell(&self) -> Cell {
        self.cell
    }

    /// Index of the switching input pin.
    pub fn input_pin(&self) -> usize {
        self.input_pin
    }

    /// Direction of the output transition.
    pub fn output_transition(&self) -> Transition {
        self.output_transition
    }

    /// Enumerates the characterized arcs of a cell: input pin 0 (the worst-case pin for the
    /// supported topologies), both output transitions.
    pub fn primary_arcs(cell: Cell) -> Vec<TimingArc> {
        Transition::BOTH
            .iter()
            .map(|&t| TimingArc::new(cell, 0, t))
            .collect()
    }

    /// Enumerates every (pin, transition) arc of a cell.
    pub fn all_arcs(cell: Cell) -> Vec<TimingArc> {
        (0..cell.input_count())
            .flat_map(|pin| {
                Transition::BOTH
                    .iter()
                    .map(move |&t| TimingArc::new(cell, pin, t))
            })
            .collect()
    }

    /// Short identifier such as `"NAND2_X1/A0/FALL"`.
    pub fn id(&self) -> String {
        format!(
            "{}/A{}/{}",
            self.cell.name(),
            self.input_pin,
            self.output_transition
        )
    }

    /// Parses an [`id`](Self::id) back into its arc, applying the constructor's pin-range
    /// check.
    ///
    /// # Errors
    ///
    /// Returns the constructor's message when the pin is out of range for the cell, or
    /// says that `id` is not an arc id at all.
    pub fn from_id(id: &str) -> Result<Self, String> {
        let parse = || -> Option<(Cell, usize, Transition)> {
            let mut parts = id.split('/');
            let (kind, drive) = parts.next()?.rsplit_once('_')?;
            let cell = Cell::new(CellKind::from_name(kind)?, DriveStrength::from_name(drive)?);
            let pin = parts.next()?.strip_prefix('A')?;
            if pin.is_empty() || !pin.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let transition = match parts.next()? {
                "RISE" => Transition::Rise,
                "FALL" => Transition::Fall,
                _ => return None,
            };
            parts
                .next()
                .is_none()
                .then_some((cell, pin.parse().ok()?, transition))
        };
        let (cell, input_pin, output_transition) =
            parse().ok_or_else(|| format!("`{id}` is not a timing arc id"))?;
        if input_pin >= cell.input_count() {
            return Err(pin_out_of_range(cell, input_pin));
        }
        Ok(Self {
            cell,
            input_pin,
            output_transition,
        })
    }
}

impl fmt::Display for TimingArc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

/// Why `input_pin` is not an arc of `cell`: the constructor's panic message and the
/// error of [`TimingArc::from_id`] and the deserializer.
fn pin_out_of_range(cell: Cell, input_pin: usize) -> String {
    format!(
        "input pin {input_pin} out of range for {} ({} inputs)",
        cell.name(),
        cell.input_count()
    )
}

impl Deserialize for TimingArc {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| SerdeError::expected("object", value))?;
        let cell: Cell = serde::field(entries, "cell")?;
        let input_pin: usize = serde::field(entries, "input_pin")?;
        let output_transition = serde::field(entries, "output_transition")?;
        if input_pin >= cell.input_count() {
            return Err(SerdeError::custom(pin_out_of_range(cell, input_pin)));
        }
        Ok(Self {
            cell,
            input_pin,
            output_transition,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nand2() -> Cell {
        Cell::new(CellKind::Nand2, DriveStrength::X1)
    }

    #[test]
    fn transition_display() {
        assert_eq!(format!("{}", Transition::Rise), "RISE");
    }

    #[test]
    fn arc_construction_and_accessors() {
        let arc = TimingArc::new(nand2(), 1, Transition::Fall);
        assert_eq!(arc.cell(), nand2());
        assert_eq!(arc.input_pin(), 1);
        assert_eq!(arc.output_transition(), Transition::Fall);
        assert_eq!(arc.id(), "NAND2_X1/A1/FALL");
        assert_eq!(format!("{arc}"), "NAND2_X1/A1/FALL");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pin_rejected() {
        let _ = TimingArc::new(nand2(), 5, Transition::Rise);
    }

    #[test]
    fn arc_enumeration_counts() {
        assert_eq!(TimingArc::primary_arcs(nand2()).len(), 2);
        assert_eq!(TimingArc::all_arcs(nand2()).len(), 4);
        let nor3 = Cell::new(CellKind::Nor3, DriveStrength::X1);
        assert_eq!(TimingArc::all_arcs(nor3).len(), 6);
    }

    #[test]
    fn deserialization_checks_the_pin_like_the_constructor() {
        let arc = TimingArc::new(nand2(), 1, Transition::Fall);
        assert_eq!(TimingArc::from_value(&arc.to_value()), Ok(arc));
        let inv = Cell::new(CellKind::Inv, DriveStrength::X1);
        let bad = Value::Object(vec![
            ("cell".to_string(), inv.to_value()),
            ("input_pin".to_string(), Value::Number(7.0)),
            ("output_transition".to_string(), Transition::Fall.to_value()),
        ]);
        let err = TimingArc::from_value(&bad).expect_err("INV has no pin 7");
        assert_eq!(
            err.to_string(),
            "input pin 7 out of range for INV_X1 (1 inputs)"
        );
    }

    #[test]
    fn ids_parse_back_with_the_constructor_pin_check() {
        for cell in [nand2(), Cell::new(CellKind::Aoi21, DriveStrength::X4)] {
            for arc in TimingArc::all_arcs(cell) {
                assert_eq!(TimingArc::from_id(&arc.id()), Ok(arc));
            }
        }
        assert_eq!(
            TimingArc::from_id("NAND2_X2/A7/FALL"),
            Err("input pin 7 out of range for NAND2_X2 (2 inputs)".to_string())
        );
        for bad in [
            "",
            "NAND2_X1",
            "NAND2_X1/A0",
            "NAND2_X1/A/FALL",
            "NAND2_X1/A+1/FALL",
            "NAND2_X1/A0/DOWN",
            "NAND2_X1/A0/FALL/",
            "NAND9_X1/A0/FALL",
            "NAND2_X3/A0/FALL",
            "NAND2X1/A0/FALL",
        ] {
            let err = TimingArc::from_id(bad).expect_err(bad);
            assert!(err.contains("is not a timing arc id"), "{err}");
        }
    }

    #[test]
    fn arcs_are_hashable_and_unique() {
        use std::collections::BTreeSet;
        let arcs: BTreeSet<TimingArc> = TimingArc::all_arcs(nand2()).into_iter().collect();
        assert_eq!(arcs.len(), 4);
    }
}
