//! chrome://tracing JSON exporter.
//!
//! Renders recorded [`Event`] streams as a Trace Event Format document
//! that loads directly in `chrome://tracing` or Perfetto. Each input
//! track (typically one simulated design, or one recorder from a
//! parallel run) becomes its own process (`pid`), and within a track
//! the event kinds are split across well-known threads (`tid`) so the
//! timeline reads as parallel swimlanes:
//!
//! | tid | lane |
//! |-----|------|
//! | 1 | ORAM access pipeline (accesses + phases) |
//! | 2 | persist-engine rounds |
//! | 3 | WPQ (occupancy counter + push/reject/drain/stall markers) |
//! | 4 | cache hierarchy |
//! | 5 | crash / recovery markers |
//! | 6 | service front-end (enqueue/dequeue/batch/complete) |
//! | 16+ch | NVM channel `ch` bank activity |
//!
//! Timestamps (`ts`) are **simulated cycles**, not microseconds; the
//! viewer's time unit label will read "us" but every number on screen
//! is a cycle count. Output is deterministic (insertion order within a
//! track, fixed lane assignment), which the trace-determinism smoke in
//! CI and the golden snapshot test rely on.

use std::fmt::Write as _;

use crate::event::Event;
use crate::json::push_str_literal;

const TID_ACCESS: u32 = 1;
const TID_ROUNDS: u32 = 2;
const TID_WPQ: u32 = 3;
const TID_CACHE: u32 = 4;
const TID_CRASH: u32 = 5;
const TID_SERVICE: u32 = 6;
const TID_NVM_BASE: u32 = 16;

/// Renders `tracks` as a complete chrome://tracing JSON document.
///
/// Each `(name, events)` pair becomes one process; process metadata
/// events give them human-readable names in the viewer. The returned
/// string ends with a newline so it can be written to disk verbatim.
pub fn chrome_trace_json(tracks: &[(String, Vec<Event>)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (track_idx, (name, events)) in tracks.iter().enumerate() {
        let pid = track_idx as u32 + 1;
        // Process-name metadata so the viewer labels the swimlane group.
        sep(&mut out, &mut first);
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        let _ = write!(out, "{pid}");
        out.push_str(",\"tid\":0,\"args\":{\"name\":");
        push_str_literal(&mut out, name);
        out.push_str("}}");
        for e in events {
            sep(&mut out, &mut first);
            write_event(&mut out, pid, e);
        }
    }
    out.push_str("]}\n");
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

/// Writes one event object (no trailing comma).
fn write_event(out: &mut String, pid: u32, e: &Event) {
    match *e {
        Event::AccessStart { index, cycle } => instant(
            out,
            pid,
            TID_ACCESS,
            "access_start",
            cycle,
            &[("index", index)],
        ),
        Event::AccessEnd { index, cycle } => instant(
            out,
            pid,
            TID_ACCESS,
            "access_end",
            cycle,
            &[("index", index)],
        ),
        Event::Phase { phase, start, end } => complete(
            out,
            pid,
            TID_ACCESS,
            phase.label(),
            start,
            end.saturating_sub(start),
            &[],
        ),
        Event::RoundBegin { cycle } => instant(out, pid, TID_ROUNDS, "round_begin", cycle, &[]),
        Event::RoundCommit {
            cycle,
            data_units,
            posmap_units,
        } => instant(
            out,
            pid,
            TID_ROUNDS,
            "round_commit",
            cycle,
            &[("data_units", data_units), ("posmap_units", posmap_units)],
        ),
        Event::WpqPush {
            queue,
            occupancy,
            capacity,
            cycle,
        } => {
            // Counter event: the viewer draws queue depth over time.
            let _ = write!(
                out,
                "{{\"name\":\"wpq_{}_depth\",\"ph\":\"C\",\"ts\":{cycle},\"pid\":{pid},\
                 \"tid\":{TID_WPQ},\"args\":{{\"occupancy\":{occupancy},\"capacity\":{capacity}}}}}",
                queue.label()
            );
        }
        Event::WpqReject {
            queue,
            capacity,
            cycle,
        } => {
            let name = format!("wpq_{}_reject", queue.label());
            instant(out, pid, TID_WPQ, &name, cycle, &[("capacity", capacity)]);
        }
        Event::WpqDrain {
            queue,
            drained,
            cycle,
        } => {
            let name = format!("wpq_{}_drain", queue.label());
            instant(out, pid, TID_WPQ, &name, cycle, &[("drained", drained)]);
        }
        Event::WpqStall { cycle } => instant(out, pid, TID_WPQ, "wpq_stall", cycle, &[]),
        Event::NvmAccess {
            kind,
            channel,
            bank,
            arrival,
            complete: done,
            ..
        } => {
            let name = format!("nvm_{}", kind.label());
            complete(
                out,
                pid,
                TID_NVM_BASE + channel,
                &name,
                arrival,
                done.saturating_sub(arrival),
                &[("bank", bank as u64)],
            );
        }
        Event::CacheAccess {
            level,
            write,
            cycle,
        } => {
            let name = format!("{}_{}", level.label(), if write { "write" } else { "read" });
            instant(out, pid, TID_CACHE, &name, cycle, &[]);
        }
        Event::Crash { cycle } => instant(out, pid, TID_CRASH, "crash", cycle, &[]),
        Event::Recovery { consistent, cycle } => instant(
            out,
            pid,
            TID_CRASH,
            "recovery",
            cycle,
            &[("consistent", consistent as u64)],
        ),
        Event::FaultDetected { kind, units, cycle } => {
            let name = format!("fault_{}", kind.label());
            instant(out, pid, TID_CRASH, &name, cycle, &[("units", units)]);
        }
        Event::FaultRepaired {
            repaired,
            rolled_back,
            cycle,
        } => instant(
            out,
            pid,
            TID_CRASH,
            "fault_repaired",
            cycle,
            &[("repaired", repaired), ("rolled_back", rolled_back)],
        ),
        Event::LineRetired { line, spare, cycle } => instant(
            out,
            pid,
            TID_CRASH,
            "line_retired",
            cycle,
            &[("line", line), ("spare", spare)],
        ),
        Event::Poisoned { kind, cycle } => {
            let name = format!("poisoned_{}", kind.label());
            instant(out, pid, TID_CRASH, &name, cycle, &[]);
        }
        Event::ServiceEnqueue {
            request,
            shard,
            cycle,
        } => instant(
            out,
            pid,
            TID_SERVICE,
            "svc_enqueue",
            cycle,
            &[("request", request), ("shard", shard as u64)],
        ),
        Event::ServiceDequeue {
            request,
            shard,
            wait_cycles,
            cycle,
        } => {
            // Render the queue wait as a duration ending at dispatch so
            // the viewer shows queueing time vs. service time per shard.
            complete(
                out,
                pid,
                TID_SERVICE,
                "svc_wait",
                cycle.saturating_sub(wait_cycles),
                wait_cycles,
                &[("request", request), ("shard", shard as u64)],
            );
        }
        Event::ServiceBatch { shard, size, cycle } => instant(
            out,
            pid,
            TID_SERVICE,
            "svc_batch",
            cycle,
            &[("shard", shard as u64), ("size", size)],
        ),
        Event::ServiceComplete {
            request,
            shard,
            latency_cycles,
            cycle,
        } => instant(
            out,
            pid,
            TID_SERVICE,
            "svc_complete",
            cycle,
            &[
                ("request", request),
                ("shard", shard as u64),
                ("latency", latency_cycles),
            ],
        ),
    }
}

/// Emits an instant ("i") event with thread scope.
fn instant(out: &mut String, pid: u32, tid: u32, name: &str, ts: u64, args: &[(&str, u64)]) {
    out.push_str("{\"name\":");
    push_str_literal(out, name);
    let _ = write!(
        out,
        ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}"
    );
    write_args(out, args);
    out.push('}');
}

/// Emits a complete ("X") duration event.
fn complete(
    out: &mut String,
    pid: u32,
    tid: u32,
    name: &str,
    ts: u64,
    dur: u64,
    args: &[(&str, u64)],
) {
    out.push_str("{\"name\":");
    push_str_literal(out, name);
    let _ = write!(
        out,
        ",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid}"
    );
    write_args(out, args);
    out.push('}');
}

fn write_args(out: &mut String, args: &[(&str, u64)]) {
    if args.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_literal(out, k);
        let _ = write!(out, ":{v}");
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, Phase, QueueKind};

    #[test]
    fn empty_input_is_valid_json_skeleton() {
        let doc = chrome_trace_json(&[]);
        assert_eq!(doc, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n");
    }

    #[test]
    fn tracks_get_distinct_pids_and_names() {
        let doc = chrome_trace_json(&[
            ("ps-oram".to_string(), vec![Event::Crash { cycle: 5 }]),
            ("baseline".to_string(), vec![]),
        ]);
        assert!(doc.contains("\"args\":{\"name\":\"ps-oram\"}"));
        assert!(doc.contains("\"args\":{\"name\":\"baseline\"}"));
        assert!(doc.contains("\"pid\":1"));
        assert!(doc.contains("\"pid\":2"));
        assert!(doc.ends_with("]}\n"));
    }

    #[test]
    fn phases_render_as_complete_events() {
        let doc = chrome_trace_json(&[(
            "t".to_string(),
            vec![Event::Phase {
                phase: Phase::LoadPath,
                start: 100,
                end: 180,
            }],
        )]);
        assert!(doc.contains("\"name\":\"load_path\""));
        assert!(doc.contains("\"ph\":\"X\",\"ts\":100,\"dur\":80"));
    }

    #[test]
    fn wpq_push_renders_as_counter() {
        let doc = chrome_trace_json(&[(
            "t".to_string(),
            vec![Event::WpqPush {
                queue: QueueKind::Data,
                occupancy: 3,
                capacity: 8,
                cycle: 42,
            }],
        )]);
        assert!(doc.contains("\"name\":\"wpq_data_depth\",\"ph\":\"C\",\"ts\":42"));
        assert!(doc.contains("\"occupancy\":3,\"capacity\":8"));
    }

    #[test]
    fn nvm_lanes_split_by_channel() {
        let doc = chrome_trace_json(&[(
            "t".to_string(),
            vec![Event::NvmAccess {
                kind: AccessKind::Write,
                addr: 0x80,
                channel: 2,
                bank: 5,
                arrival: 10,
                complete: 70,
            }],
        )]);
        assert!(doc.contains("\"name\":\"nvm_write\""));
        assert!(doc.contains(&format!("\"tid\":{}", TID_NVM_BASE + 2)));
        assert!(doc.contains("\"args\":{\"bank\":5}"));
    }

    #[test]
    fn service_lane_renders_wait_and_completion() {
        let doc = chrome_trace_json(&[(
            "t".to_string(),
            vec![
                Event::ServiceDequeue {
                    request: 3,
                    shard: 1,
                    wait_cycles: 20,
                    cycle: 50,
                },
                Event::ServiceComplete {
                    request: 3,
                    shard: 1,
                    latency_cycles: 70,
                    cycle: 100,
                },
            ],
        )]);
        assert!(doc.contains("\"name\":\"svc_wait\",\"ph\":\"X\",\"ts\":30,\"dur\":20"));
        assert!(doc.contains(&format!("\"tid\":{TID_SERVICE}")));
        assert!(doc.contains("\"name\":\"svc_complete\""));
        assert!(doc.contains("\"latency\":70"));
    }

    #[test]
    fn output_is_deterministic() {
        let tracks = vec![(
            "t".to_string(),
            vec![
                Event::AccessStart { index: 0, cycle: 1 },
                Event::AccessEnd { index: 0, cycle: 9 },
            ],
        )];
        assert_eq!(chrome_trace_json(&tracks), chrome_trace_json(&tracks));
    }
}
