//! The coordinator ↔ worker wire protocol of distributed sweeps.
//!
//! A campaign distributed over N processes needs no network and no
//! shared memory: the coordinator spawns N `sweep-worker --leases`
//! processes, writes [`WorkLease`](crate::WorkLease) lines to their
//! stdin, each worker streams **line-delimited JSON events** on stdout,
//! and the coordinator merges the streams. One event per line, one JSON
//! object per event, tagged by an `"event"` field — trivially
//! greppable, replayable from a log file, and append-safe (a crashed
//! worker leaves a readable prefix).
//!
//! The event vocabulary is small by design:
//!
//! | event | direction | meaning |
//! |-------|-----------|---------|
//! | `plan` | coordinator → observers | campaign totals + lease count |
//! | `hello` | worker → coordinator | worker accepted the spec; ready for leases |
//! | `reference` | worker → coordinator | one MC reference scenario done |
//! | `cell` | worker → coordinator | one estimator cell done (full row) |
//! | `lease_done` | worker → coordinator | lease complete; batch cache totals, telemetry delta |
//! | `error` | worker → coordinator | worker aborted with a message |
//!
//! A worker session is `hello` followed by its leases; the end of its
//! stream ends the session. `lease_done` carries the lease's telemetry
//! delta when the campaign collects telemetry; the coordinator folds
//! it into the campaign's collector and hands observers the event
//! without it.
//!
//! The vocabulary is **additively extensible**: a decoder maps an
//! unrecognised `"event"` tag to [`CampaignEvent::Unknown`] instead of
//! failing, so older builds replay newer streams unharmed (malformed
//! JSON and missing fields of known events are still hard errors).
//! The retired `lease_start`, `telemetry` and `done` tags of older
//! builds' streams decode as `Unknown` too. The optional `cell.tier`,
//! `error.kind`, `reference.scenario` and `lease_done.telemetry`
//! decode as `None` when absent, and `hello.jobs` as `0` (not
//! reported: older builds left it out of uncapped sessions). Keys a
//! decoder does not know are ignored, so a `hello` line of an older
//! build, which carried since-retired keys, still decodes.
//!
//! `cell` events carry the complete [`SweepRow`], so the coordinator
//! can re-sequence rows into deterministic cell order and write the
//! exact same CSV/JSONL a single-process run would — workers never
//! touch the sink files.

use crate::cache::CacheTier;
use crate::error::EngineError;
use crate::observer::CampaignObserver;
use crate::sink::SweepRow;
use crate::telemetry::MetricsSnapshot;
use serde::{Deserialize, Serialize, Value};

/// One campaign progress event (see module docs).
///
/// This is the **single event vocabulary** of the engine: every
/// execution backend ([`ExecBackend`](crate::ExecBackend)) reports its
/// work through these events, every
/// [`CampaignObserver`] subscribes to them,
/// and the distributed wire protocol is nothing but their
/// line-delimited JSON encoding ([`encode_event`]/[`decode_event`]) —
/// a worker process is an observer whose subscription happens to cross
/// a pipe (see [`WireObserver`]).
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignEvent {
    /// First event of a campaign, emitted by the **coordinator** before
    /// any worker starts: the authoritative totals of the campaign
    /// plan. A worker cannot announce its share up front (it does not
    /// know how many leases it will win), so every total comes from
    /// here.
    Plan {
        /// Total estimator cells the campaign will produce.
        cells: usize,
        /// Total Monte-Carlo reference scenarios.
        references: usize,
        /// Number of work leases in the coordinator's ready queue.
        leases: usize,
    },
    /// First event of a worker session: it validated the spec and is
    /// ready for leases.
    Hello {
        /// Worker slot, 0-based.
        shard: usize,
        /// The session's thread cap: the spec's (or the coordinator's
        /// `--jobs` handshake's) `jobs`, else the worker's cores; `0`
        /// when not reported (an older build's uncapped session).
        jobs: usize,
    },
    /// One reference scenario finished (cached or computed).
    Reference {
        /// Whether the result came from the shared cache.
        cached: bool,
        /// Global scenario index (instance-major), the coordinator's
        /// cross-worker dedup key. `None` in logs written before
        /// leasing.
        scenario: Option<usize>,
    },
    /// One estimator cell finished; carries the complete result row.
    Cell {
        /// Global deterministic cell index (scenario-major order) —
        /// the coordinator's re-sequencing key.
        index: usize,
        /// Whether the result came from the shared cache.
        cached: bool,
        /// Which cache tier served the hit (`None` when computed
        /// fresh, or when the event predates tier reporting).
        tier: Option<CacheTier>,
        /// The full result row, ready for the sinks.
        row: SweepRow,
    },
    /// A leased cell batch finished. The cache totals and the
    /// telemetry delta cover exactly what this attempt did (cells plus
    /// any reference scenarios it resolved first); the coordinator
    /// deduplicates by `lease_id`, so a re-queued lease's totals count
    /// once.
    LeaseDone {
        /// Lease id.
        lease_id: usize,
        /// Number of cells in the batch.
        cells: usize,
        /// Cache hits across the batch's probes.
        hits: usize,
        /// Cache misses (computed fresh).
        misses: usize,
        /// The lease's spans and counters, when the campaign runs with
        /// an enabled [`Telemetry`](crate::Telemetry) collector. The
        /// campaign core folds it in and strips it before observers.
        telemetry: Option<MetricsSnapshot>,
    },
    /// A worker aborted. [`MultiProcess`](crate::MultiProcess)
    /// re-queues that worker's leases; anywhere else the campaign
    /// fails.
    Error {
        /// Human-readable failure description.
        message: String,
        /// Structured [`EngineError::kind`](crate::EngineError::kind)
        /// of the failure (`None` from pre-telemetry workers), so the
        /// coordinator can tally failures by kind.
        kind: Option<String>,
    },
    /// An event this build does not understand — a newer writer's
    /// vocabulary. Merges and observers skip it; re-encoding preserves
    /// only the tag.
    Unknown {
        /// The unrecognised `"event"` tag.
        tag: String,
    },
}

impl Serialize for CampaignEvent {
    fn serialize(&self) -> Value {
        match self {
            CampaignEvent::Plan {
                cells,
                references,
                leases,
            } => Value::obj([
                ("event", Value::Str("plan".into())),
                ("cells", cells.serialize()),
                ("references", references.serialize()),
                ("leases", leases.serialize()),
            ]),
            CampaignEvent::Hello { shard, jobs } => Value::obj([
                ("event", Value::Str("hello".into())),
                ("shard", shard.serialize()),
                ("jobs", jobs.serialize()),
            ]),
            CampaignEvent::Reference { cached, scenario } => {
                let mut fields = vec![
                    ("event", Value::Str("reference".into())),
                    ("cached", cached.serialize()),
                ];
                if let Some(scenario) = scenario {
                    fields.push(("scenario", scenario.serialize()));
                }
                Value::obj(fields)
            }
            CampaignEvent::Cell {
                index,
                cached,
                tier,
                row,
            } => {
                let mut fields = vec![
                    ("event", Value::Str("cell".into())),
                    ("index", index.serialize()),
                    ("cached", cached.serialize()),
                ];
                if let Some(tier) = tier {
                    fields.push(("tier", Value::Str(tier.as_str().into())));
                }
                fields.push(("row", row.serialize()));
                Value::obj(fields)
            }
            CampaignEvent::LeaseDone {
                lease_id,
                cells,
                hits,
                misses,
                telemetry,
            } => {
                let mut fields = vec![
                    ("event", Value::Str("lease_done".into())),
                    ("lease_id", lease_id.serialize()),
                    ("cells", cells.serialize()),
                    ("hits", hits.serialize()),
                    ("misses", misses.serialize()),
                ];
                if let Some(telemetry) = telemetry {
                    fields.push(("telemetry", telemetry.serialize()));
                }
                Value::obj(fields)
            }
            CampaignEvent::Error { message, kind } => {
                let mut fields = vec![
                    ("event", Value::Str("error".into())),
                    ("message", message.serialize()),
                ];
                if let Some(kind) = kind {
                    fields.push(("kind", kind.serialize()));
                }
                Value::obj(fields)
            }
            CampaignEvent::Unknown { tag } => Value::obj([("event", Value::Str(tag.clone()))]),
        }
    }
}

impl Deserialize for CampaignEvent {
    fn deserialize(v: &Value) -> Result<CampaignEvent, serde::Error> {
        let tag = String::deserialize(v.require("event")?)?;
        match tag.as_str() {
            "plan" => Ok(CampaignEvent::Plan {
                cells: usize::deserialize(v.require("cells")?)?,
                references: usize::deserialize(v.require("references")?)?,
                leases: usize::deserialize(v.require("leases")?)?,
            }),
            "hello" => Ok(CampaignEvent::Hello {
                shard: usize::deserialize(v.require("shard")?)?,
                jobs: v.get("jobs").map_or(Ok(0), usize::deserialize)?,
            }),
            "reference" => Ok(CampaignEvent::Reference {
                cached: bool::deserialize(v.require("cached")?)?,
                scenario: match v.get("scenario") {
                    None | Some(Value::Null) => None,
                    Some(n) => Some(usize::deserialize(n)?),
                },
            }),
            "cell" => Ok(CampaignEvent::Cell {
                index: usize::deserialize(v.require("index")?)?,
                cached: bool::deserialize(v.require("cached")?)?,
                tier: match v.get("tier") {
                    None | Some(Value::Null) => None,
                    Some(t) => {
                        let name = String::deserialize(t)?;
                        Some(CacheTier::parse(&name).ok_or_else(|| {
                            serde::Error::new(format!("unknown cache tier {name:?}"))
                        })?)
                    }
                },
                row: SweepRow::deserialize(v.require("row")?)?,
            }),
            "lease_done" => Ok(CampaignEvent::LeaseDone {
                lease_id: usize::deserialize(v.require("lease_id")?)?,
                cells: usize::deserialize(v.require("cells")?)?,
                hits: usize::deserialize(v.require("hits")?)?,
                misses: usize::deserialize(v.require("misses")?)?,
                telemetry: match v.get("telemetry") {
                    None | Some(Value::Null) => None,
                    Some(t) => Some(MetricsSnapshot::deserialize(t)?),
                },
            }),
            "error" => Ok(CampaignEvent::Error {
                message: String::deserialize(v.require("message")?)?,
                kind: match v.get("kind") {
                    None | Some(Value::Null) => None,
                    Some(k) => Some(String::deserialize(k)?),
                },
            }),
            // Forward compatibility: a tag this build does not know is
            // a newer writer's event (or an older one's retired tag),
            // not corruption — surface it as `Unknown` so replays keep
            // working.
            _ => Ok(CampaignEvent::Unknown { tag }),
        }
    }
}

/// Encode an event as one protocol line (no trailing newline).
pub fn encode_event(ev: &CampaignEvent) -> String {
    serde::json::to_string(ev)
}

/// Decode one protocol line. Empty lines are a protocol violation (the
/// writer never emits them), reported as an error with the offending
/// text so a truncated or interleaved stream is diagnosable.
pub fn decode_event(line: &str) -> Result<CampaignEvent, String> {
    serde::json::from_str::<CampaignEvent>(line.trim_end())
        .map_err(|e| format!("bad worker event {line:?}: {e}"))
}

/// A [`CampaignObserver`] that forwards every event as one encoded
/// protocol line — the worker half of a distributed campaign. Each
/// event is written and flushed immediately, so a coordinator reading
/// the other end of the pipe can render live progress.
pub struct WireObserver<W: std::io::Write + Send> {
    w: W,
}

impl<W: std::io::Write + Send> WireObserver<W> {
    /// Observer writing protocol lines to `w` (a worker passes its
    /// locked stdout).
    pub fn new(w: W) -> Self {
        WireObserver { w }
    }
}

impl<W: std::io::Write + Send> CampaignObserver for WireObserver<W> {
    fn on_event(&mut self, event: &CampaignEvent) -> Result<(), EngineError> {
        writeln!(self.w, "{}", encode_event(event))
            .and_then(|()| self.w.flush())
            .map_err(|e| EngineError::io("writing event to coordinator", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> SweepRow {
        SweepRow {
            dag: "lu:k=4".into(),
            tasks: 30,
            edges: 55,
            model: "pfail=0.01".into(),
            lambda: 0.0021,
            estimator: "first-order".into(),
            value: 102.5,
            reference: 101.9,
            reference_std_error: 0.04,
            rel_error: 0.0058,
            elapsed_s: 0.003,
            seed: 717,
        }
    }

    #[test]
    fn every_event_round_trips() {
        let events = [
            CampaignEvent::Plan {
                cells: 24,
                references: 12,
                leases: 12,
            },
            CampaignEvent::Hello { shard: 1, jobs: 4 },
            CampaignEvent::Reference {
                cached: true,
                scenario: None,
            },
            CampaignEvent::Reference {
                cached: false,
                scenario: Some(5),
            },
            CampaignEvent::LeaseDone {
                lease_id: 7,
                cells: 2,
                hits: 1,
                misses: 2,
                telemetry: None,
            },
            CampaignEvent::LeaseDone {
                lease_id: 8,
                cells: 2,
                hits: 0,
                misses: 3,
                telemetry: Some({
                    let t = crate::telemetry::Telemetry::enabled();
                    t.count("references_computed", 1);
                    t.record_span_duration("estimate_cell", std::time::Duration::from_nanos(99));
                    t.snapshot()
                }),
            },
            CampaignEvent::Cell {
                index: 17,
                cached: false,
                tier: None,
                row: sample_row(),
            },
            CampaignEvent::Cell {
                index: 18,
                cached: true,
                tier: Some(CacheTier::Disk),
                row: sample_row(),
            },
            CampaignEvent::Error {
                message: "disk on fire".into(),
                kind: None,
            },
            CampaignEvent::Error {
                message: "spec exploded".into(),
                kind: Some("spec".into()),
            },
            CampaignEvent::Unknown {
                tag: "hyperdrive".into(),
            },
        ];
        for ev in &events {
            let line = encode_event(ev);
            assert!(!line.contains('\n'), "one event per line: {line:?}");
            assert_eq!(&decode_event(&line).unwrap(), ev, "{line}");
        }
    }

    #[test]
    fn decode_rejects_garbage_but_tolerates_unknown_tags() {
        assert!(decode_event("").is_err());
        assert!(decode_event("{not json").is_err());
        assert!(decode_event("{\"event\":\"cell\",\"index\":0}").is_err());
        // A future writer's event tag, or an older build's retired one,
        // decodes as Unknown, not an error: replaying its stream must
        // not abort (see module docs).
        for (line, tag) in [
            ("{\"event\":\"warp\",\"factor\":9}", "warp"),
            (
                "{\"event\":\"lease_start\",\"lease_id\":0,\"cells\":2}",
                "lease_start",
            ),
            (
                "{\"event\":\"telemetry\",\"shard\":0,\
                 \"snapshot\":{\"counters\":{},\"spans\":{}}}",
                "telemetry",
            ),
            (
                "{\"event\":\"done\",\"hits\":0,\"misses\":0,\"wall_s\":0.5}",
                "done",
            ),
        ] {
            assert_eq!(
                decode_event(line).unwrap(),
                CampaignEvent::Unknown { tag: tag.into() },
                "{line}"
            );
        }
    }

    #[test]
    fn optional_fields_default_when_absent() {
        // A pre-telemetry writer's cell/error lines (no tier, no kind)
        // still decode; a bad tier name is corruption, not tolerance.
        let old_cell = format!(
            "{{\"event\":\"cell\",\"index\":3,\"cached\":true,\"row\":{}}}",
            serde::json::to_string(&sample_row())
        );
        match decode_event(&old_cell).unwrap() {
            CampaignEvent::Cell { cached, tier, .. } => {
                assert!(cached);
                assert_eq!(tier, None);
            }
            other => panic!("expected cell, got {other:?}"),
        }
        assert!(decode_event(
            "{\"event\":\"cell\",\"index\":3,\"cached\":true,\"tier\":\"l9\",\"row\":{}}"
        )
        .is_err());
        assert_eq!(
            decode_event("{\"event\":\"error\",\"message\":\"boom\"}").unwrap(),
            CampaignEvent::Error {
                message: "boom".into(),
                kind: None
            }
        );
        // A v1 hello (no version, no jobs) decodes with jobs 0, not
        // reported; an older build's hello decodes with its
        // since-retired keys; a v1 reference (no scenario) defaults it,
        // and a lease_done without telemetry carries none.
        assert_eq!(
            decode_event(
                "{\"event\":\"hello\",\"shard\":2,\"shard_count\":3,\
                 \"cells\":8,\"references\":4}"
            )
            .unwrap(),
            CampaignEvent::Hello { shard: 2, jobs: 0 }
        );
        assert_eq!(
            decode_event(
                "{\"event\":\"hello\",\"shard\":2,\"shard_count\":0,\
                 \"cells\":0,\"references\":0,\"version\":2,\"jobs\":3}"
            )
            .unwrap(),
            CampaignEvent::Hello { shard: 2, jobs: 3 }
        );
        assert_eq!(
            decode_event("{\"event\":\"reference\",\"cached\":false}").unwrap(),
            CampaignEvent::Reference {
                cached: false,
                scenario: None,
            }
        );
        assert_eq!(
            decode_event(
                "{\"event\":\"lease_done\",\"lease_id\":1,\"cells\":2,\"hits\":0,\"misses\":2}"
            )
            .unwrap(),
            CampaignEvent::LeaseDone {
                lease_id: 1,
                cells: 2,
                hits: 0,
                misses: 2,
                telemetry: None,
            }
        );
        // A malformed delta is corruption, not tolerance.
        assert!(decode_event(
            "{\"event\":\"lease_done\",\"lease_id\":1,\"cells\":2,\"hits\":0,\
             \"misses\":2,\"telemetry\":{\"spans\":{}}}"
        )
        .is_err());
    }

    #[test]
    fn lease_events_require_their_fields() {
        assert!(decode_event("{\"event\":\"plan\",\"cells\":4}").is_err());
        assert!(decode_event("{\"event\":\"lease_done\",\"lease_id\":1,\"cells\":2}").is_err());
        assert_eq!(
            decode_event("{\"event\":\"plan\",\"cells\":4,\"references\":2,\"leases\":2}").unwrap(),
            CampaignEvent::Plan {
                cells: 4,
                references: 2,
                leases: 2,
            }
        );
    }
}
