//! Chrome `trace_event` / Perfetto JSON export of a merged timeline.
//!
//! Emits the classic JSON array format (`{"traceEvents":[...]}`) that
//! both `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! open directly: one *thread track* per replica (tid = actor id, plus a
//! `harness` track for oracle/client events), duration spans (`B`/`E`)
//! for named spans like views, and thread-scoped instants (`i`) for
//! stage crossings and point samples.
//!
//! Timestamps in this format are **microseconds**; trace time is
//! nanoseconds, so `ts` is emitted as a fixed-point `micros.nnn` string
//! of digits — fractional microseconds survive, output stays
//! float-formatting-free, and the export is byte-deterministic for a
//! deterministic input timeline.

use crate::event::{EventKind, TraceEvent};

/// The synthetic tid used for the harness/oracle lane (`u32::MAX` itself
/// renders as an unreadable track id in trace viewers).
const HARNESS_TID: u32 = 999;

fn ts(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn tid(actor: u32) -> u32 {
    if actor == u32::MAX {
        HARNESS_TID
    } else {
        actor
    }
}

/// Render a merged timeline as Chrome `trace_event` JSON.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&line);
    };

    // Metadata: name the process and one thread track per actor seen,
    // harness last. sort_index keeps replica tracks in id order.
    let mut actors: Vec<u32> = events.iter().map(|e| e.actor).collect();
    actors.sort_unstable();
    actors.dedup();
    push(
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"hs1 cluster\"}}"
            .to_string(),
        &mut out,
    );
    for &actor in &actors {
        let label =
            if actor == u32::MAX { "harness".to_string() } else { format!("replica {actor}") };
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{label}\"}}}}",
                tid(actor)
            ),
            &mut out,
        );
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{}}}}}",
                tid(actor),
                tid(actor)
            ),
            &mut out,
        );
    }

    for ev in events {
        let (pid, t) = (0, tid(ev.actor));
        let line = match ev.kind {
            EventKind::SpanBegin { name, key } => format!(
                "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":{t},\"ts\":{},\"name\":\"{name} {key}\"}}",
                ts(ev.at)
            ),
            EventKind::SpanEnd { name, key } => format!(
                "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{t},\"ts\":{},\"name\":\"{name} {key}\"}}",
                ts(ev.at)
            ),
            EventKind::Stage { stage, block } => format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{t},\"ts\":{},\
                 \"name\":\"{}\",\"args\":{{\"block\":{block}}}}}",
                ts(ev.at),
                stage.name()
            ),
            EventKind::Point { name, key, value } => format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{t},\"ts\":{},\
                 \"name\":\"{name}\",\"args\":{{\"key\":{key},\"value\":{value}}}}}",
                ts(ev.at)
            ),
        };
        push(line, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Stage;

    fn events() -> Vec<TraceEvent> {
        let ev = |at, actor, kind| TraceEvent { at, actor, kind };
        vec![
            ev(1_500, 0, EventKind::SpanBegin { name: "view", key: 1 }),
            ev(2_000, 1, EventKind::Stage { stage: Stage::Received, block: 7 }),
            ev(2_500, u32::MAX, EventKind::Point { name: "finality", key: 7, value: 9 }),
            ev(3_000, 0, EventKind::SpanEnd { name: "view", key: 1 }),
        ]
    }

    #[test]
    fn export_contains_tracks_spans_and_instants() {
        let json = chrome_trace_json(&events());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"name\":\"replica 0\""));
        assert!(json.contains("\"name\":\"replica 1\""));
        assert!(json.contains("\"name\":\"harness\""));
        assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"name\":\"view 1\""));
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\""));
        assert!(json.contains("\"args\":{\"block\":7}"));
        // 1500ns → 1.500µs: fractional microseconds survive as fixed-point.
        assert!(json.contains("\"ts\":1.500"));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(chrome_trace_json(&events()), chrome_trace_json(&events()));
    }

    #[test]
    fn empty_timeline_is_still_valid_json_shape() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("process_name"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
