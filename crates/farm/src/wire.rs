//! The farm wire protocol: versioned JSON-lines messages between broker and worker.
//!
//! One message per line, each a JSON object with a `"type"` tag, sent in one write of
//! the line and its newline.  The conversation is a strict request/response alternation
//! on one connection:
//!
//! ```text
//! worker → broker   {"type":"hello","protocol":3,"kernel":"2","worker":"w0"}
//! broker → worker   {"type":"ping","id":3}
//! worker → broker   {"type":"pong","id":3}
//! broker → worker   {"type":"batch","id":7,"requests":["<coordinate words>", ...]}
//! worker → broker   {"type":"results","id":7,"results":["<delay> <slew>", {"error":"..."}, ...]}
//! broker → worker   {"type":"shutdown"}
//! ```
//!
//! `ping`/`pong` (protocol 2) is the broker-initiated heartbeat: a trivial round trip the
//! broker can run between batches with a short read deadline, so a half-open connection
//! (worker host vanished, NAT state expired) is detected in milliseconds instead of
//! stalling the next batch into its full 60 s deadline.  A `pong` echoes the `ping`'s
//! correlation id.
//!
//! Protocol 3 carries each lane in the [codec] that `DiskSimCache`
//! logs use: a request is one JSON string of a coordinate's sixteen words (technology
//! by name, arc by id, every float as a fixed-width hexadecimal bit pattern), and a
//! result is a string of the measurement's two words, or `{"error": ...}` for a lane the
//! worker could not solve.  A request therefore decodes to the bit-identical simulation
//! the broker asked for, and farm results are cache-compatible with local runs: the
//! broker stores them under the same keys a local solve would produce.  Each lane is
//! decoded on its own, so a lane that fails to decode gets an error entry instead of
//! poisoning its batch.
//!
//! The handshake carries both the protocol version and the transient-kernel version
//! ([`KERNEL_VERSION`]).  A peer speaking another protocol version — a protocol-2
//! worker, whose lanes are JSON objects — is refused at connect time, and so is a worker
//! built from a different kernel generation, because its bitwise-correct-for-*its*-kernel
//! results would silently mix solver generations inside one artifact.
//!
//! NaN is rejected at both ends: it cannot be a simulation coordinate (see
//! [`SimKey`](slic_spice::SimKey)) and a NaN measurement is never produced by a valid
//! solve.

use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use slic_device::{ProcessSample, TechnologyNode};
use slic_spice::codec::{self, Coordinate, Decoder};
use slic_spice::{InputPoint, SimRequest, SimResult, KERNEL_VERSION};
use slic_units::{Farads, Seconds, Volts};
use std::fmt;
use std::io::Write;

/// Version of the wire protocol itself (message shapes and framing).
///
/// History: v1 = hello/batch/results/shutdown; v2 adds the `ping`/`pong` heartbeat
/// pair; v3 sends each request and result as a string of [codec]
/// words instead of a JSON object.
pub const PROTOCOL_VERSION: u64 = 3;

/// Anything that can go wrong encoding, decoding or validating wire traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A line that is not valid JSON or not a known message shape.
    Malformed(String),
    /// A coordinate that cannot travel (NaN) or cannot be reconstructed.
    InvalidRequest(String),
    /// A measurement that no valid solve produces (NaN, negative delay, ...).
    InvalidResult(String),
    /// The peer speaks a different protocol version.
    ProtocolMismatch {
        /// The peer's announced worker name (who to go fix).
        worker: String,
        /// Our protocol version.
        ours: u64,
        /// The peer's protocol version.
        theirs: u64,
    },
    /// The peer runs a different transient-kernel generation.
    KernelMismatch {
        /// The peer's announced worker name (who to go fix).
        worker: String,
        /// Our kernel version.
        ours: u64,
        /// The peer's kernel version.
        theirs: u64,
    },
    /// A technology that the worker-side catalogue cannot reconstruct by name.
    UnknownTechnology(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Malformed(msg) => write!(f, "malformed wire message: {msg}"),
            WireError::InvalidRequest(msg) => write!(f, "invalid simulation request: {msg}"),
            WireError::InvalidResult(msg) => write!(f, "invalid simulation result: {msg}"),
            WireError::ProtocolMismatch {
                worker,
                ours,
                theirs,
            } => write!(
                f,
                "worker `{worker}`: protocol version mismatch: peer speaks v{theirs}, \
                 this build expects v{ours}"
            ),
            WireError::KernelMismatch {
                worker,
                ours,
                theirs,
            } => write!(
                f,
                "worker `{worker}`: transient-kernel version mismatch: peer runs kernel \
                 {theirs:#x}, this build expects kernel {ours:#x} — mixed-kernel results \
                 would silently corrupt an artifact"
            ),
            WireError::UnknownTechnology(name) => {
                write!(f, "technology `{name}` is not in the built-in catalogue")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<SerdeError> for WireError {
    fn from(err: SerdeError) -> Self {
        WireError::Malformed(err.to_string())
    }
}

/// The handshake a worker sends as its first line on every connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Wire-protocol version the worker speaks.
    pub protocol: u64,
    /// Transient-kernel generation the worker solves with.
    pub kernel: u64,
    /// Free-form worker name, for logs.
    pub worker: String,
}

impl Hello {
    /// The handshake of this build.
    pub fn current(worker: impl Into<String>) -> Self {
        Self {
            protocol: PROTOCOL_VERSION,
            kernel: KERNEL_VERSION,
            worker: worker.into(),
        }
    }

    /// Checks that the peer is compatible with this build.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError::ProtocolMismatch`] or [`WireError::KernelMismatch`] naming
    /// the offending worker plus both the observed and the expected version — a mixed
    /// fleet is debugged by reading the rejection, not by guessing which binary is stale.
    pub fn validate(&self) -> Result<(), WireError> {
        if self.protocol != PROTOCOL_VERSION {
            return Err(WireError::ProtocolMismatch {
                worker: self.worker.clone(),
                ours: PROTOCOL_VERSION,
                theirs: self.protocol,
            });
        }
        if self.kernel != KERNEL_VERSION {
            return Err(WireError::KernelMismatch {
                worker: self.worker.clone(),
                ours: KERNEL_VERSION,
                theirs: self.kernel,
            });
        }
        Ok(())
    }
}

/// One simulation request as it travels: a [`Coordinate`]'s codec words, with the
/// request's raw bit patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest(String);

/// The bit pattern of a float that is allowed on the wire (anything but NaN).
fn checked_bits(value: f64, field: &str) -> Result<u64, WireError> {
    if value.is_nan() {
        return Err(WireError::InvalidRequest(format!(
            "field `{field}` is NaN, which is not a simulation coordinate"
        )));
    }
    Ok(value.to_bits())
}

/// Reconstructs a finite float from its wire bit pattern.
fn finite_from_bits(bits: u64, field: &str) -> Result<f64, WireError> {
    let value = f64::from_bits(bits);
    if !value.is_finite() {
        return Err(WireError::InvalidRequest(format!(
            "field `{field}` decodes to the non-finite value {value}"
        )));
    }
    Ok(value)
}

impl WireRequest {
    /// Encodes a [`SimRequest`] for transport.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError::UnknownTechnology`] when the technology is not
    /// reconstructable by name on the far side (the wire sends names, not device
    /// parameters), or a [`WireError::InvalidRequest`] on a NaN coordinate or a `cell`
    /// that is not the arc's (the wire sends the arc alone, and a worker takes the cell
    /// from it, so such a lane must stay with the local backend, which refuses it).
    pub fn encode(request: &SimRequest) -> Result<Self, WireError> {
        request.check_cell().map_err(WireError::InvalidRequest)?;
        // The worker rebuilds the node from the catalogue; a custom node whose name does
        // not round-trip would silently simulate different device physics.
        match TechnologyNode::by_name_shared(request.tech.name()) {
            Some(catalogued) if *catalogued == *request.tech => {}
            _ => {
                return Err(WireError::UnknownTechnology(
                    request.tech.name().to_string(),
                ))
            }
        }
        let coordinate = Coordinate {
            tech: request.tech.name().into(),
            arc: request.arc,
            point: [
                checked_bits(request.point.sin.value(), "point.sin")?,
                checked_bits(request.point.cload.value(), "point.cload")?,
                checked_bits(request.point.vdd.value(), "point.vdd")?,
            ],
            seed: [
                checked_bits(request.seed.delta_vth_n, "seed.delta_vth_n")?,
                checked_bits(request.seed.delta_vth_p, "seed.delta_vth_p")?,
                checked_bits(request.seed.vx0_scale_n, "seed.vx0_scale_n")?,
                checked_bits(request.seed.vx0_scale_p, "seed.vx0_scale_p")?,
                checked_bits(request.seed.cinv_scale, "seed.cinv_scale")?,
                checked_bits(request.seed.dibl_scale_n, "seed.dibl_scale_n")?,
                checked_bits(request.seed.dibl_scale_p, "seed.dibl_scale_p")?,
            ],
            config: [
                checked_bits(request.config.dv_max_fraction, "config.dv_max_fraction")?,
                request.config.min_steps_per_ramp as u64,
                checked_bits(request.config.max_time_factor, "config.max_time_factor")?,
                checked_bits(request.config.miller_fraction, "config.miller_fraction")?,
            ],
        };
        let mut words = String::with_capacity(288);
        coordinate.write(&mut words);
        Ok(Self(words))
    }

    /// Reconstructs the bit-identical [`SimRequest`] this wire form encodes, reading its
    /// words through `decoder`: the lanes of one batch share a decoder, so the batch
    /// allocates a technology name once per technology it names.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the words are not a coordinate (including an arc
    /// whose pin its cell lacks), the technology name is unknown, a coordinate is
    /// non-finite or out of its physical range, or the transient configuration fails
    /// validation.
    pub fn decode(&self, decoder: &mut Decoder) -> Result<SimRequest, WireError> {
        let coordinate = decoder
            .coordinate(&self.0)
            .map_err(WireError::InvalidRequest)?;
        let tech = TechnologyNode::by_name_shared(&coordinate.tech)
            .ok_or_else(|| WireError::UnknownTechnology(coordinate.tech.to_string()))?;
        let [sin, cload, vdd] = coordinate.point;
        let sin = finite_from_bits(sin, "point.sin")?;
        let cload = finite_from_bits(cload, "point.cload")?;
        let vdd = finite_from_bits(vdd, "point.vdd")?;
        if sin <= 0.0 || cload <= 0.0 || vdd <= 0.0 {
            return Err(WireError::InvalidRequest(format!(
                "input point ({sin}, {cload}, {vdd}) has a non-positive component"
            )));
        }
        let point = InputPoint::new(Seconds(sin), Farads(cload), Volts(vdd));
        let seed = coordinate.seed;
        let seed = ProcessSample {
            delta_vth_n: finite_from_bits(seed[0], "seed.delta_vth_n")?,
            delta_vth_p: finite_from_bits(seed[1], "seed.delta_vth_p")?,
            vx0_scale_n: finite_from_bits(seed[2], "seed.vx0_scale_n")?,
            vx0_scale_p: finite_from_bits(seed[3], "seed.vx0_scale_p")?,
            cinv_scale: finite_from_bits(seed[4], "seed.cinv_scale")?,
            dibl_scale_n: finite_from_bits(seed[5], "seed.dibl_scale_n")?,
            dibl_scale_p: finite_from_bits(seed[6], "seed.dibl_scale_p")?,
        };
        let config = coordinate.config;
        let config = slic_spice::TransientConfig {
            dv_max_fraction: finite_from_bits(config[0], "config.dv_max_fraction")?,
            min_steps_per_ramp: usize::try_from(config[1]).map_err(|_| {
                WireError::InvalidRequest("config.min_steps_per_ramp overflows usize".to_string())
            })?,
            max_time_factor: finite_from_bits(config[2], "config.max_time_factor")?,
            miller_fraction: finite_from_bits(config[3], "config.miller_fraction")?,
        };
        config
            .validate()
            .map_err(|msg| WireError::InvalidRequest(format!("transient config: {msg}")))?;
        Ok(SimRequest {
            tech,
            cell: coordinate.arc.cell(),
            arc: coordinate.arc,
            point,
            seed,
            config,
        })
    }
}

impl Serialize for WireRequest {
    fn to_value(&self) -> Value {
        Value::String(self.0.clone())
    }
}

impl Deserialize for WireRequest {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let words = value
            .as_str()
            .ok_or_else(|| SerdeError::expected("string of coordinate words", value))?;
        Ok(Self(words.to_string()))
    }
}

/// One lane's outcome as it travels: a measurement's codec words, or a rendered error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResultEntry {
    /// A completed measurement, as its `<delay> <slew>` words.
    Measurement(String),
    /// A solver failure, rendered as text.
    Error(String),
}

impl WireResultEntry {
    /// Encodes one lane result for transport.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError::InvalidResult`] on a NaN measurement component (never
    /// produced by a valid solve).
    pub fn encode(result: &SimResult) -> Result<Self, WireError> {
        match result {
            Ok(measurement) => {
                if measurement.delay.value().is_nan() || measurement.output_slew.value().is_nan() {
                    return Err(WireError::InvalidResult(
                        "NaN measurement component".to_string(),
                    ));
                }
                let mut words = String::with_capacity(33);
                codec::write_measurement(&mut words, measurement);
                Ok(Self::Measurement(words))
            }
            Err(message) => Ok(Self::Error(message.clone())),
        }
    }

    /// Reconstructs the bit-identical [`SimResult`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError::InvalidResult`] when the words are not a measurement or
    /// violate the measurement invariants (finite, non-negative delay, positive slew).
    pub fn decode(&self) -> Result<SimResult, WireError> {
        match self {
            Self::Measurement(words) => codec::parse_measurement(words)
                .map(Ok)
                .map_err(WireError::InvalidResult),
            Self::Error(message) => Ok(Err(message.clone())),
        }
    }
}

impl Serialize for WireResultEntry {
    fn to_value(&self) -> Value {
        match self {
            Self::Measurement(words) => Value::String(words.clone()),
            Self::Error(message) => {
                Value::Object(vec![("error".to_string(), Value::String(message.clone()))])
            }
        }
    }
}

impl Deserialize for WireResultEntry {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        if let Some(words) = value.as_str() {
            return Ok(Self::Measurement(words.to_string()));
        }
        let error = value
            .get("error")
            .ok_or_else(|| SerdeError::expected("measurement words or an error", value))?;
        let message = error
            .as_str()
            .ok_or_else(|| SerdeError::expected("error string", error))?;
        Ok(Self::Error(message.to_string()))
    }
}

/// Every message that travels on a farm connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker handshake (first line of every connection).
    Hello(Hello),
    /// A broker-assigned batch of simulation requests.
    Batch {
        /// Broker-chosen correlation id, echoed in the response.
        id: u64,
        /// The lanes to solve, in order.
        requests: Vec<WireRequest>,
    },
    /// The worker's results for one batch, in request order.
    Results {
        /// The correlation id of the batch being answered.
        id: u64,
        /// One entry per request.
        results: Vec<WireResultEntry>,
    },
    /// Broker-initiated heartbeat probe (protocol 2): "are you still there?".
    Ping {
        /// Broker-chosen correlation id, echoed in the pong.
        id: u64,
    },
    /// The worker's heartbeat answer, echoing the ping's id.
    Pong {
        /// The correlation id of the ping being answered.
        id: u64,
    },
    /// Orderly termination: the worker exits its serve loop.
    Shutdown,
}

/// Renders a message as its single JSON line (no trailing newline).
///
/// # Panics
///
/// Never in practice: every numeric field is a small integer and every float travels as a
/// hex word inside a string, so the JSON writer cannot encounter a non-finite number.
pub fn encode_message(message: &Message) -> String {
    let value = match message {
        Message::Hello(hello) => Value::Object(vec![
            ("type".to_string(), Value::String("hello".to_string())),
            ("protocol".to_string(), hello.protocol.to_value()),
            (
                "kernel".to_string(),
                Value::String(format!("{:x}", hello.kernel)),
            ),
            ("worker".to_string(), hello.worker.to_value()),
        ]),
        Message::Batch { id, requests } => Value::Object(vec![
            ("type".to_string(), Value::String("batch".to_string())),
            ("id".to_string(), id.to_value()),
            ("requests".to_string(), requests.to_value()),
        ]),
        Message::Results { id, results } => Value::Object(vec![
            ("type".to_string(), Value::String("results".to_string())),
            ("id".to_string(), id.to_value()),
            ("results".to_string(), results.to_value()),
        ]),
        Message::Ping { id } => Value::Object(vec![
            ("type".to_string(), Value::String("ping".to_string())),
            ("id".to_string(), id.to_value()),
        ]),
        Message::Pong { id } => Value::Object(vec![
            ("type".to_string(), Value::String("pong".to_string())),
            ("id".to_string(), id.to_value()),
        ]),
        Message::Shutdown => Value::Object(vec![(
            "type".to_string(),
            Value::String("shutdown".to_string()),
        )]),
    };
    #[expect(
        clippy::expect_used,
        reason = "structural: every float crosses the wire as a hex word inside a string (see WireRequest), so Value serialization cannot fail"
    )]
    serde_json::to_string(&value).expect("wire messages contain no non-finite numbers")
}

/// Renders a message as the line that travels: its JSON and the newline.
pub(crate) fn encode_line(message: &Message) -> String {
    let mut line = encode_message(message);
    line.push('\n');
    line
}

/// Sends one line (newline included) in a single write and flushes it.  Writing the
/// JSON and the newline separately would cost two writes on an unbuffered stream, and
/// two TCP segments under `TCP_NODELAY`.
pub(crate) fn send_line(mut writer: impl Write, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Parses one wire line into a message.
///
/// # Errors
///
/// Returns a [`WireError::Malformed`] for anything that is not a known message shape.
pub fn decode_message(line: &str) -> Result<Message, WireError> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| WireError::Malformed(e.to_string()))?;
    let entries = value
        .as_object()
        .ok_or_else(|| WireError::Malformed("message is not an object".to_string()))?;
    let kind = value
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| WireError::Malformed("message has no `type` tag".to_string()))?;
    match kind {
        "hello" => {
            let kernel_field = value
                .get("kernel")
                .ok_or_else(|| WireError::Malformed("hello has no `kernel`".to_string()))?;
            let kernel_text = kernel_field
                .as_str()
                .ok_or_else(|| WireError::Malformed("hello `kernel` is not hex".to_string()))?;
            let kernel = u64::from_str_radix(kernel_text, 16).map_err(|_| {
                WireError::Malformed(format!("`{kernel_text}` is not a hex kernel version"))
            })?;
            Ok(Message::Hello(Hello {
                protocol: serde::field(entries, "protocol")?,
                kernel,
                worker: serde::field(entries, "worker")?,
            }))
        }
        "batch" => Ok(Message::Batch {
            id: serde::field(entries, "id")?,
            requests: serde::field(entries, "requests")?,
        }),
        "results" => Ok(Message::Results {
            id: serde::field(entries, "id")?,
            results: serde::field(entries, "results")?,
        }),
        "ping" => Ok(Message::Ping {
            id: serde::field(entries, "id")?,
        }),
        "pong" => Ok(Message::Pong {
            id: serde::field(entries, "id")?,
        }),
        "shutdown" => Ok(Message::Shutdown),
        other => Err(WireError::Malformed(format!(
            "unknown message type `{other}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
    use slic_spice::{TimingMeasurement, TransientConfig};
    use std::sync::Arc;

    fn request() -> SimRequest {
        let cell = Cell::new(CellKind::Nand2, DriveStrength::X2);
        SimRequest {
            tech: std::sync::Arc::new(TechnologyNode::n14_finfet()),
            cell,
            arc: TimingArc::new(cell, 0, Transition::Rise),
            point: InputPoint::new(
                Seconds::from_picoseconds(5.000000001),
                Farads::from_femtofarads(2.0),
                Volts(0.8),
            ),
            seed: ProcessSample {
                delta_vth_n: 0.013,
                ..ProcessSample::nominal()
            },
            config: TransientConfig::fast(),
        }
    }

    #[test]
    fn request_round_trips_bit_exactly_through_a_message() {
        let original = request();
        let wire = WireRequest::encode(&original).expect("encodes");
        let line = encode_message(&Message::Batch {
            id: 7,
            requests: vec![wire],
        });
        let Message::Batch { id, requests } = decode_message(&line).expect("decodes") else {
            panic!("wrong message type");
        };
        assert_eq!(id, 7);
        assert_eq!(requests.len(), 1);
        assert_eq!(
            requests[0]
                .decode(&mut Decoder::default())
                .expect("reconstructs"),
            original
        );
    }

    #[test]
    fn lanes_travel_as_codec_word_strings() {
        let wire = WireRequest::encode(&request()).expect("encodes");
        let ok: SimResult = Ok(TimingMeasurement::new(Seconds(1.25e-12), Seconds(2.5e-12)));
        let batch = encode_message(&Message::Batch {
            id: 1,
            requests: vec![wire],
        });
        let results = encode_message(&Message::Results {
            id: 1,
            results: vec![
                WireResultEntry::encode(&ok).expect("encodes"),
                WireResultEntry::Error("diverged".to_string()),
            ],
        });
        let value: Value = serde_json::from_str(&batch).expect("JSON envelope");
        let lane = value
            .get("requests")
            .and_then(Value::as_array)
            .expect("lanes")[0]
            .as_str()
            .expect("a request is one string");
        assert_eq!(lane.split(' ').count(), 16, "{lane}");
        assert!(
            lane.starts_with("hist-14nm-finfet NAND2_X2/A0/RISE "),
            "{lane}"
        );
        let value: Value = serde_json::from_str(&results).expect("JSON envelope");
        let entries = value
            .get("results")
            .and_then(Value::as_array)
            .expect("lanes");
        assert_eq!(
            entries[0].as_str(),
            Some(
                format!(
                    "{:016x} {:016x}",
                    1.25e-12f64.to_bits(),
                    2.5e-12f64.to_bits()
                )
                .as_str()
            )
        );
        assert_eq!(
            entries[1].get("error").and_then(Value::as_str),
            Some("diverged")
        );
        // A lane whose words do not parse decodes to an error of its own.
        let Message::Batch { requests, .. } =
            decode_message(&batch.replace("NAND2_X2/A0/RISE", "NAND2_X2/A7/RISE"))
                .expect("the envelope still decodes")
        else {
            panic!("wrong message type");
        };
        let err = requests[0]
            .decode(&mut Decoder::default())
            .expect_err("NAND2_X2 has no pin 7");
        assert!(
            err.to_string().contains("input pin 7 out of range"),
            "{err}"
        );
    }

    #[test]
    fn the_lanes_of_a_decoded_batch_share_one_technology_node() {
        let n28 = SimRequest {
            tech: Arc::new(TechnologyNode::n28_bulk()),
            ..request()
        };
        // Each `request()` brings its own `n14` `Arc`, as lanes from different engines
        // would.
        let lanes = [request(), n28, request(), request()];
        let line = encode_message(&Message::Batch {
            id: 1,
            requests: lanes
                .iter()
                .map(|lane| WireRequest::encode(lane).expect("catalogue lanes encode"))
                .collect(),
        });
        let Message::Batch { requests, .. } = decode_message(&line).expect("decodes") else {
            panic!("wrong message type");
        };
        let mut decoder = Decoder::default();
        let decoded: Vec<SimRequest> = requests
            .iter()
            .map(|lane| lane.decode(&mut decoder).expect("catalogue lanes decode"))
            .collect();
        assert_eq!(decoded, lanes, "every lane reconstructs bit-exactly");
        assert!(Arc::ptr_eq(&decoded[0].tech, &decoded[2].tech));
        assert!(Arc::ptr_eq(&decoded[0].tech, &decoded[3].tech));
        assert!(!Arc::ptr_eq(&decoded[0].tech, &decoded[1].tech));
    }

    #[test]
    fn nan_coordinates_are_rejected_at_encode_time() {
        let mut bad = request();
        bad.seed.delta_vth_p = f64::NAN;
        let err = WireRequest::encode(&bad).expect_err("NaN must not travel");
        assert!(err.to_string().contains("NaN"), "{err}");
    }

    #[test]
    fn kernel_and_protocol_mismatches_are_rejected() {
        assert!(Hello::current("w").validate().is_ok());
        let stale_kernel = Hello {
            kernel: KERNEL_VERSION + 1,
            ..Hello::current("rack7-w3")
        };
        let err = stale_kernel.validate().expect_err("stale kernel rejected");
        assert!(matches!(err, WireError::KernelMismatch { .. }));
        let rendered = err.to_string();
        // Mixed-fleet debugging: the rejection must name the worker and both versions.
        assert!(rendered.contains("rack7-w3"), "{rendered}");
        assert!(
            rendered.contains(&format!("{KERNEL_VERSION:#x}")),
            "{rendered}"
        );
        assert!(
            rendered.contains(&format!("{:#x}", KERNEL_VERSION + 1)),
            "{rendered}"
        );
        let stale_protocol = Hello {
            protocol: PROTOCOL_VERSION + 1,
            ..Hello::current("rack7-w3")
        };
        let err = stale_protocol
            .validate()
            .expect_err("stale protocol rejected");
        assert!(matches!(err, WireError::ProtocolMismatch { .. }));
        let rendered = err.to_string();
        assert!(rendered.contains("rack7-w3"), "{rendered}");
        assert!(
            rendered.contains(&format!("v{PROTOCOL_VERSION}")),
            "{rendered}"
        );
        assert!(
            rendered.contains(&format!("v{}", PROTOCOL_VERSION + 1)),
            "{rendered}"
        );
    }

    #[test]
    fn ping_and_pong_round_trip() {
        for message in [Message::Ping { id: 41 }, Message::Pong { id: 41 }] {
            let line = encode_message(&message);
            assert_eq!(decode_message(&line).expect("decodes"), message);
        }
        // A v1 peer has never heard of the pair, and a v2 peer sends its lanes as JSON
        // objects — the version bumps are what keep both out of a v3 fleet at connect
        // time rather than at the first unanswerable message.
        assert_eq!(PROTOCOL_VERSION, 3);
    }

    #[test]
    fn hello_round_trips() {
        let hello = Hello::current("worker-3");
        let line = encode_message(&Message::Hello(hello.clone()));
        assert_eq!(
            decode_message(&line).expect("decodes"),
            Message::Hello(hello)
        );
    }

    #[test]
    fn result_entries_round_trip_and_enforce_invariants() {
        let ok: SimResult = Ok(TimingMeasurement::new(Seconds(1.25e-12), Seconds(2.5e-12)));
        let err: SimResult = Err("transition incomplete".to_string());
        for result in [&ok, &err] {
            let entry = WireResultEntry::encode(result).expect("encodes");
            let line = encode_message(&Message::Results {
                id: 3,
                results: vec![entry],
            });
            let Message::Results { results, .. } = decode_message(&line).expect("decodes") else {
                panic!("wrong message type");
            };
            assert_eq!(&results[0].decode().expect("reconstructs"), result);
        }
        // A negative delay can be *encoded* (it is not NaN) but must fail decode: the
        // far side would panic constructing the measurement otherwise.
        let negative = WireResultEntry::Measurement(format!(
            "{:016x} {:016x}",
            (-1.0f64).to_bits(),
            1.0f64.to_bits()
        ));
        assert!(negative.decode().is_err());
    }

    #[test]
    fn malformed_lines_are_rejected_with_context() {
        assert!(decode_message("{").is_err());
        assert!(decode_message("42").is_err());
        assert!(decode_message("{\"type\":\"warp\"}").is_err());
        assert!(decode_message("{\"id\":1}").is_err());
    }

    #[test]
    fn shutdown_round_trips() {
        let line = encode_message(&Message::Shutdown);
        assert_eq!(decode_message(&line).expect("decodes"), Message::Shutdown);
    }
}
