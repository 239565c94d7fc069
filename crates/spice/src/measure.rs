//! Waveform measurement conventions and results.

use slic_units::Seconds;

/// Fraction of the supply at which propagation delay is measured (50 %).
pub const DELAY_THRESHOLD: f64 = 0.5;

/// Lower threshold of the output-slew measurement window (20 %).
pub const SLEW_LOW_THRESHOLD: f64 = 0.2;

/// Upper threshold of the output-slew measurement window (80 %).
pub const SLEW_HIGH_THRESHOLD: f64 = 0.8;

/// Scale factor converting the 20–80 % crossing time into an equivalent full-swing
/// transition time (`1 / (0.8 − 0.2)`), the convention used consistently for both the input
/// stimulus and the reported output slew.
pub const SLEW_SCALE: f64 = 1.0 / (SLEW_HIGH_THRESHOLD - SLEW_LOW_THRESHOLD);

/// The result of one switching-event simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingMeasurement {
    /// Propagation delay: 50 % of input swing to 50 % of output swing.
    pub delay: Seconds,
    /// Output transition time: 20–80 % crossing time scaled to full swing.
    pub output_slew: Seconds,
}

impl TimingMeasurement {
    /// Creates a measurement.
    ///
    /// # Panics
    ///
    /// Panics on any value [`try_new`](Self::try_new) refuses.
    pub fn new(delay: Seconds, output_slew: Seconds) -> Self {
        let checked = Self::try_new(delay, output_slew);
        assert!(checked.is_ok(), "{}", checked.err().unwrap_or_default());
        Self { delay, output_slew }
    }

    /// Creates a measurement, or says which invariant the values break: both must be
    /// finite, the delay non-negative and the slew positive (a delay of exactly zero is
    /// tolerated; a *negative* delay indicates the output crossed before the input, which
    /// the solver never produces for the supported single-arc stimuli).
    ///
    /// # Errors
    ///
    /// Returns the broken invariant, rendered as text.
    pub fn try_new(delay: Seconds, output_slew: Seconds) -> Result<Self, String> {
        if !(delay.is_finite() && delay.value() >= 0.0) {
            return Err(format!(
                "delay must be finite and non-negative (got {delay})"
            ));
        }
        if !(output_slew.is_finite() && output_slew.value() > 0.0) {
            return Err(format!(
                "output slew must be finite and positive (got {output_slew})"
            ));
        }
        Ok(Self { delay, output_slew })
    }

    /// Returns the delay in picoseconds (convenience for reports).
    pub fn delay_ps(&self) -> f64 {
        self.delay.picoseconds()
    }

    /// Returns the output slew in picoseconds (convenience for reports).
    pub fn output_slew_ps(&self) -> f64 {
        self.output_slew.picoseconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::assertions_on_constants,
        reason = "pins the ordering of the threshold constants"
    )]
    fn thresholds_are_consistent() {
        assert!(SLEW_LOW_THRESHOLD < DELAY_THRESHOLD);
        assert!(DELAY_THRESHOLD < SLEW_HIGH_THRESHOLD);
        assert!((SLEW_SCALE - 1.0 / 0.6).abs() < 1e-12);
    }

    #[test]
    fn measurement_construction_and_conversion() {
        let m = TimingMeasurement::new(
            Seconds::from_picoseconds(12.5),
            Seconds::from_picoseconds(8.0),
        );
        assert!((m.delay_ps() - 12.5).abs() < 1e-9);
        assert!((m.output_slew_ps() - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "delay must be finite")]
    fn negative_delay_rejected() {
        let _ = TimingMeasurement::new(Seconds(-1e-12), Seconds(1e-12));
    }

    #[test]
    #[should_panic(expected = "output slew must be finite")]
    fn zero_slew_rejected() {
        let _ = TimingMeasurement::new(Seconds(1e-12), Seconds(0.0));
    }
}
