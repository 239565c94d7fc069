//! The worker side of the farm: a serve loop that answers transient batches.
//!
//! A worker is stateless by design: it holds no cache, no counter and no plan — it
//! decodes each [`Batch`](crate::wire::Message::Batch), solves the lanes through the
//! in-process [`LocalBackend`] (the same scalar kernel a local run uses, so results are
//! bitwise identical), and streams the results back.  All policy lives on the other side
//! of the connection — caching and counting in the engine, retry in the broker — which
//! is what makes a worker safe to kill at any moment: the broker simply re-dispatches
//! the batch elsewhere.
//!
//! Lifecycle on every connection:
//!
//! 1. the worker writes its [`Hello`] line (protocol + kernel version handshake);
//! 2. it answers `batch` messages until the broker sends `shutdown` or disconnects;
//! 3. on `shutdown` it exits the serve loop; on disconnect it waits for the next broker
//!    connection.
//!
//! `slic worker --listen <addr>` prints [`WORKER_BANNER`] and its bound address on
//! stdout, and nothing else there.  A broker that spawns its own workers runs them with
//! `--listen 127.0.0.1:0 --spawned` and dials the address the banner names, so spawned
//! and remote workers share one transport.  `--spawned` ends the process when its stdin,
//! a pipe the broker holds, reaches EOF: a spawned worker never outlives its broker.
//!
//! The optional **batch limit** makes the worker die *abruptly* — connection dropped
//! without a response — once it has served its quota.  That is both an operational knob
//! (rolling restarts: drain a worker after N batches) and the deterministic fault
//! injection the failover tests rely on: a worker hitting its limit is indistinguishable
//! from one killed mid-batch.
//!
//! A richer misbehaviour script is the optional [`FaultPlan`]: seeded connection drops,
//! reply delays, garbage replies and refused re-dials, each exercising one broker-side
//! recovery path (see the [`fault`](crate::fault) module docs).  Unlike the batch limit,
//! a fault-dropped worker keeps its listener alive and goes back to `accept` — it is the
//! *flapping* peer the broker's reconnect-with-backoff supervisor must re-admit.

use crate::fault::FaultPlan;
use crate::wire::{decode_message, encode_line, send_line, Hello, Message, WireResultEntry};
use slic_obs::TraceRecorder;
use slic_spice::{LocalBackend, SimResult, SimulationBackend};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;

/// The prefix of the one line `slic worker --listen` prints on stdout, followed by the
/// address it bound (the resolved port when it was asked for port 0).
pub const WORKER_BANNER: &str = "worker listening on ";

/// Worker tuning and identification.
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Name announced in the handshake (for broker-side logs).
    pub name: String,
    /// Serve at most this many batches, then drop the connection without replying —
    /// rolling-restart drain and deterministic fault injection.  `None` = unlimited.
    pub max_batches: Option<u64>,
    /// Seeded misbehaviour script for chaos testing; `None` = behave.
    pub fault: Option<FaultPlan>,
    /// Display-only trace recorder for `worker.batch`/`worker.ping` spans; disabled
    /// (no-op) by default.  Never consulted for protocol decisions, so a traced worker
    /// answers byte-for-byte what an untraced one would.
    pub trace: TraceRecorder,
}

/// How a serve loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The peer disconnected (or sent something unparseable).
    Disconnected,
    /// The broker requested an orderly shutdown.
    Shutdown,
    /// The batch limit was reached: the last batch was received but never answered.
    BatchLimit,
    /// A [`FaultPlan`] dropped the connection on purpose; a TCP listener goes back to
    /// `accept` (after any scripted refusals) instead of exiting.
    FaultDrop,
}

/// Serves one established connection until disconnect, shutdown or the batch limit.
///
/// `served` carries the batch count across connections (TCP workers may serve several
/// brokers over their lifetime; the limit is per worker, not per connection).
///
/// # Errors
///
/// Returns the underlying I/O error when the transport fails mid-message.
pub fn serve_connection(
    mut reader: impl BufRead,
    mut writer: impl Write,
    served: &mut u64,
    options: &WorkerOptions,
) -> std::io::Result<ServeOutcome> {
    send_line(
        &mut writer,
        &encode_line(&Message::Hello(Hello::current(options.name.clone()))),
    )?;
    let backend = LocalBackend::new();
    let fault = options.fault.unwrap_or_default();
    let mut line = String::new();
    // Per-connection message count: a re-admitted flapping worker re-arms its drop.
    let mut messages = 0u64;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(ServeOutcome::Disconnected);
        }
        let message = match decode_message(line.trim_end()) {
            Ok(message) => message,
            Err(err) => {
                eprintln!("slic worker: dropping connection on malformed message: {err}");
                return Ok(ServeOutcome::Disconnected);
            }
        };
        messages += 1;
        if fault
            .drop_after_messages
            .is_some_and(|after| messages > after)
        {
            // Scripted crash: the message (ping or batch) dies unanswered, exactly like
            // a worker whose host vanished mid-conversation.
            return Ok(ServeOutcome::FaultDrop);
        }
        match message {
            Message::Batch { id, requests } => {
                if options.max_batches.is_some_and(|max| *served >= max) {
                    // Quota exhausted: die mid-batch, exactly like a crashed worker —
                    // the broker's failover owns this batch now.
                    return Ok(ServeOutcome::BatchLimit);
                }
                let _span = options.trace.span(
                    "worker.batch",
                    &[
                        ("id", id.to_string()),
                        ("lanes", requests.len().to_string()),
                    ],
                );
                let delay = fault.delay_for_batch_ms(*served);
                if delay > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
                if fault.garbles_batch(*served) {
                    // Scripted protocol violation: bytes that decode to nothing.
                    send_line(
                        &mut writer,
                        "%%% not a farm message (injected garbage) %%%\n",
                    )?;
                    *served += 1;
                    continue;
                }
                let results: Vec<WireResultEntry> = solve_wire_batch(&backend, &requests);
                send_line(&mut writer, &encode_line(&Message::Results { id, results }))?;
                *served += 1;
            }
            Message::Ping { id } => {
                let _span = options.trace.span("worker.ping", &[("id", id.to_string())]);
                send_line(&mut writer, &encode_line(&Message::Pong { id }))?;
            }
            Message::Shutdown => return Ok(ServeOutcome::Shutdown),
            Message::Hello(_) | Message::Results { .. } | Message::Pong { .. } => {
                eprintln!("slic worker: dropping connection on out-of-order message");
                return Ok(ServeOutcome::Disconnected);
            }
        }
    }
}

/// Decodes and solves one wire batch; a lane that fails to decode gets an error entry
/// instead of poisoning its siblings.
fn solve_wire_batch(
    backend: &LocalBackend,
    requests: &[crate::wire::WireRequest],
) -> Vec<WireResultEntry> {
    let mut decoder = slic_spice::codec::Decoder::default();
    let decoded: Vec<Result<slic_spice::SimRequest, String>> = requests
        .iter()
        .map(|wire| wire.decode(&mut decoder).map_err(|e| e.to_string()))
        .collect();
    let solvable: Vec<slic_spice::SimRequest> = decoded
        .iter()
        .filter_map(|r| r.as_ref().ok().cloned())
        .collect();
    let mut solved = backend.solve_batch(&solvable).into_iter();
    decoded
        .into_iter()
        .map(|lane| {
            let result: SimResult = match lane {
                #[expect(
                    clippy::expect_used,
                    reason = "structural: `solved` has exactly one entry per Ok lane by construction of `solvable`"
                )]
                Ok(_) => solved.next().expect("one result per solvable lane"),
                Err(message) => Err(message),
            };
            WireResultEntry::encode(&result)
                .unwrap_or_else(|err| WireResultEntry::Error(err.to_string()))
        })
        .collect()
}

/// Serves a TCP listener: one broker connection at a time, until a broker sends
/// `shutdown` or the batch limit fires.
///
/// A disconnect is not the end of the worker — the broker may have restarted — so the
/// loop goes back to `accept`.  A [`FaultPlan`] drop likewise returns to `accept` (this
/// is the flapping worker the reconnect supervisor re-admits), first refusing the next
/// `refuse_reconnects` dials by closing them before the handshake.
///
/// # Errors
///
/// Returns the underlying I/O error when accepting or serving fails.
pub fn serve_listener(
    listener: &TcpListener,
    options: &WorkerOptions,
) -> std::io::Result<ServeOutcome> {
    let mut served = 0u64;
    let mut refusals_pending = 0u64;
    loop {
        let (stream, peer) = listener.accept()?;
        if refusals_pending > 0 {
            // Scripted refusal: close before the hello, like a host whose port is back
            // up but whose worker process is still starting.
            refusals_pending -= 1;
            drop(stream);
            continue;
        }
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        match serve_connection(reader, &stream, &mut served, options)? {
            ServeOutcome::Disconnected => {
                eprintln!("slic worker: broker at {peer} disconnected; waiting for the next");
            }
            ServeOutcome::FaultDrop => {
                refusals_pending = options.fault.map_or(0, |fault| fault.refuse_reconnects);
                eprintln!(
                    "slic worker: fault plan dropped broker at {peer}; refusing the next \
                     {refusals_pending} dials"
                );
            }
            ended => return Ok(ended),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_message, WireRequest};
    use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
    use slic_device::{ProcessSample, TechnologyNode};
    use slic_spice::{InputPoint, SimRequest, TransientConfig};
    use slic_units::{Farads, Seconds, Volts};

    fn request() -> SimRequest {
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        SimRequest {
            tech: std::sync::Arc::new(TechnologyNode::n14_finfet()),
            cell,
            arc: TimingArc::new(cell, 0, Transition::Fall),
            point: InputPoint::new(
                Seconds::from_picoseconds(5.0),
                Farads::from_femtofarads(2.0),
                Volts(0.8),
            ),
            seed: ProcessSample::nominal(),
            config: TransientConfig::fast(),
        }
    }

    /// Drives a serve loop over in-memory buffers: send `lines`, collect responses.
    fn converse(lines: &[String], options: &WorkerOptions) -> (Vec<String>, ServeOutcome) {
        let input = lines.join("\n") + "\n";
        let mut output = Vec::new();
        let mut served = 0;
        let outcome = serve_connection(input.as_bytes(), &mut output, &mut served, options)
            .expect("in-memory transport cannot fail");
        let responses = String::from_utf8(output)
            .expect("utf8")
            .lines()
            .map(str::to_string)
            .collect();
        (responses, outcome)
    }

    #[test]
    fn worker_answers_batches_and_honours_shutdown() {
        let wire = WireRequest::encode(&request()).expect("encodes");
        let lines = vec![
            encode_message(&Message::Batch {
                id: 11,
                requests: vec![wire],
            }),
            encode_message(&Message::Shutdown),
        ];
        let (responses, outcome) = converse(&lines, &WorkerOptions::default());
        assert_eq!(outcome, ServeOutcome::Shutdown);
        assert_eq!(responses.len(), 2, "hello plus one results line");
        let Message::Hello(hello) = decode_message(&responses[0]).expect("hello") else {
            panic!("first line must be the handshake");
        };
        assert!(hello.validate().is_ok());
        let Message::Results { id, results } = decode_message(&responses[1]).expect("results")
        else {
            panic!("second line must be the results");
        };
        assert_eq!(id, 11);
        assert_eq!(results.len(), 1);
        assert!(results[0].decode().expect("decodes").is_ok());
    }

    /// A writer that counts its `write` calls: each is a separate segment on a
    /// `TCP_NODELAY` socket.
    #[derive(Default)]
    struct WriteCounter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for WriteCounter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_message_leaves_in_one_write() {
        let wire = WireRequest::encode(&request()).expect("encodes");
        let input = [
            encode_message(&Message::Ping { id: 1 }),
            encode_message(&Message::Batch {
                id: 2,
                requests: vec![wire.clone(), wire],
            }),
            encode_message(&Message::Shutdown),
        ]
        .join("\n")
            + "\n";
        let mut writer = WriteCounter::default();
        let outcome = serve_connection(
            input.as_bytes(),
            &mut writer,
            &mut 0,
            &WorkerOptions::default(),
        )
        .expect("in-memory transport cannot fail");
        assert_eq!(outcome, ServeOutcome::Shutdown);
        let replies = String::from_utf8(writer.bytes).expect("utf8");
        let kinds: Vec<Message> = replies
            .lines()
            .map(|line| decode_message(line).expect("a wire message"))
            .collect();
        assert!(matches!(
            kinds.as_slice(),
            [
                Message::Hello(_),
                Message::Pong { id: 1 },
                Message::Results { id: 2, .. }
            ]
        ));
        assert_eq!(writer.writes, 3, "hello, pong and results: one write each");
    }

    #[test]
    fn batch_limit_drops_the_connection_without_a_reply() {
        let wire = WireRequest::encode(&request()).expect("encodes");
        let batch = |id| {
            encode_message(&Message::Batch {
                id,
                requests: vec![wire.clone()],
            })
        };
        let options = WorkerOptions {
            max_batches: Some(1),
            ..WorkerOptions::default()
        };
        let (responses, outcome) = converse(&[batch(1), batch(2)], &options);
        assert_eq!(outcome, ServeOutcome::BatchLimit);
        assert_eq!(
            responses.len(),
            2,
            "hello and the first batch's results only — the second batch dies unanswered"
        );
    }

    #[test]
    fn undecodable_lane_gets_an_error_entry_without_poisoning_the_batch() {
        let good = WireRequest::encode(&request()).expect("encodes");
        let bad_line = encode_message(&Message::Batch {
            id: 5,
            requests: vec![good.clone(), good],
        })
        .replace("hist-14nm-finfet", "hist-XXnm-finfet");
        let (responses, _) = converse(&[bad_line], &WorkerOptions::default());
        let Message::Results { results, .. } = decode_message(&responses[1]).expect("results")
        else {
            panic!("expected results");
        };
        assert_eq!(results.len(), 2);
        assert!(
            results.iter().all(|r| matches!(r.decode(), Ok(Err(_)))),
            "unknown technology lanes error out"
        );
    }

    #[test]
    fn pings_are_answered_with_matching_pongs() {
        let lines = vec![
            encode_message(&Message::Ping { id: 3 }),
            encode_message(&Message::Ping { id: 9 }),
            encode_message(&Message::Shutdown),
        ];
        let (responses, outcome) = converse(&lines, &WorkerOptions::default());
        assert_eq!(outcome, ServeOutcome::Shutdown);
        assert_eq!(responses.len(), 3, "hello plus two pongs");
        for (line, want) in responses[1..].iter().zip([3, 9]) {
            let Message::Pong { id } = decode_message(line).expect("pong") else {
                panic!("expected a pong, got {line}");
            };
            assert_eq!(id, want);
        }
    }

    #[test]
    fn fault_plan_drops_the_connection_after_its_message_quota() {
        let wire = WireRequest::encode(&request()).expect("encodes");
        let batch = |id| {
            encode_message(&Message::Batch {
                id,
                requests: vec![wire.clone()],
            })
        };
        let options = WorkerOptions {
            fault: Some(FaultPlan {
                drop_after_messages: Some(1),
                ..FaultPlan::default()
            }),
            ..WorkerOptions::default()
        };
        let (responses, outcome) = converse(&[batch(1), batch(2)], &options);
        assert_eq!(outcome, ServeOutcome::FaultDrop);
        assert_eq!(
            responses.len(),
            2,
            "hello and the first batch's results; the second message dies unanswered"
        );
    }

    #[test]
    fn fault_plan_garbles_every_nth_batch() {
        let wire = WireRequest::encode(&request()).expect("encodes");
        let batch = |id| {
            encode_message(&Message::Batch {
                id,
                requests: vec![wire.clone()],
            })
        };
        let options = WorkerOptions {
            fault: Some(FaultPlan {
                garbage_every: Some(2),
                ..FaultPlan::default()
            }),
            ..WorkerOptions::default()
        };
        let (responses, outcome) = converse(
            &[batch(1), batch(2), encode_message(&Message::Shutdown)],
            &options,
        );
        assert_eq!(outcome, ServeOutcome::Shutdown);
        assert_eq!(responses.len(), 3, "hello, results, garbage");
        assert!(decode_message(&responses[1]).is_ok(), "batch 1 is honest");
        assert!(
            decode_message(&responses[2]).is_err(),
            "batch 2 must be garbage: {}",
            responses[2]
        );
    }

    #[test]
    fn malformed_traffic_ends_the_connection() {
        let (responses, outcome) = converse(
            &["{\"type\":\"warp\"}".to_string()],
            &WorkerOptions::default(),
        );
        assert_eq!(outcome, ServeOutcome::Disconnected);
        assert_eq!(responses.len(), 1, "only the hello was written");
    }
}
