//! Trace events and their JSONL encoding.
//!
//! The schema is deliberately tiny and flat — one JSON object per line,
//! no nesting, integer timestamps — so traces can be grepped, sorted, and
//! diffed without tooling. Events are written in emission order; the
//! simulator's event loop is single-threaded, so emission order is itself
//! deterministic per seed.

use hs1_types::BlockId;

/// Per-block lifecycle stages, in causal order. `Received`/`Proposed`/
/// `Voted` are emitted by the consensus engines, `Speculated`/`Committed`
/// by the shared execution core, and `Responded` by the harness that
/// models (or performs) the reply to clients.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// A proposal arrived and passed validation.
    Received,
    /// The leader assembled and broadcast the block.
    Proposed,
    /// This replica sent its vote for the block.
    Voted,
    /// The block was executed speculatively.
    Speculated,
    /// The block was committed (and executed, if not already).
    Committed,
    /// A response for the block's transactions reached the client.
    Responded,
}

impl Stage {
    /// The lowercase wire name used in JSONL.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Received => "received",
            Stage::Proposed => "proposed",
            Stage::Voted => "voted",
            Stage::Speculated => "speculated",
            Stage::Committed => "committed",
            Stage::Responded => "responded",
        }
    }
}

/// What happened. Block/span keys are `u64` (see [`block_key`]) so events
/// stay fixed-size and cheap to emit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A block crossed a lifecycle stage.
    Stage { stage: Stage, block: u64 },
    /// A named span opened (e.g. a view).
    SpanBegin { name: &'static str, key: u64 },
    /// A named span closed.
    SpanEnd { name: &'static str, key: u64 },
    /// A named point sample with a value (e.g. finality time, queue depth
    /// at a threshold crossing).
    Point { name: &'static str, key: u64, value: u64 },
}

/// One trace line: a timestamp (nanoseconds on the harness clock), the
/// reporting actor (replica id; `u32::MAX` = the harness itself), and the
/// event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    pub at: u64,
    pub actor: u32,
    pub kind: EventKind,
}

impl TraceEvent {
    /// The event as one JSONL line (no trailing newline). Names are
    /// `&'static str` identifiers and stage names are fixed lowercase
    /// words, so no JSON string escaping is required.
    pub(crate) fn to_json(self) -> String {
        let head = format!("{{\"at\":{},\"actor\":{}", self.at, self.actor);
        match self.kind {
            EventKind::Stage { stage, block } => {
                format!(
                    "{head},\"kind\":\"stage\",\"stage\":\"{}\",\"block\":{block}}}",
                    stage.name()
                )
            }
            EventKind::SpanBegin { name, key } => {
                format!("{head},\"kind\":\"span_begin\",\"name\":\"{name}\",\"key\":{key}}}")
            }
            EventKind::SpanEnd { name, key } => {
                format!("{head},\"kind\":\"span_end\",\"name\":\"{name}\",\"key\":{key}}}")
            }
            EventKind::Point { name, key, value } => {
                format!(
                    "{head},\"kind\":\"point\",\"name\":\"{name}\",\"key\":{key},\"value\":{value}}}"
                )
            }
        }
    }
}

/// The trace key of a block: the first 8 bytes of its content hash as a
/// big-endian integer. 64 bits of a SHA-256 digest keep collision odds
/// negligible at any realistic trace length while keeping events flat.
pub fn block_key(id: BlockId) -> u64 {
    u64::from_be_bytes(id.0 .0[..8].try_into().expect("digest is 32 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_flat_and_stable() {
        let ev = TraceEvent {
            at: 5,
            actor: 1,
            kind: EventKind::Stage { stage: Stage::Voted, block: 9 },
        };
        assert_eq!(
            ev.to_json(),
            "{\"at\":5,\"actor\":1,\"kind\":\"stage\",\"stage\":\"voted\",\"block\":9}"
        );
        let ev = TraceEvent {
            at: 6,
            actor: 2,
            kind: EventKind::Point { name: "finality", key: 9, value: 77 },
        };
        assert_eq!(
            ev.to_json(),
            "{\"at\":6,\"actor\":2,\"kind\":\"point\",\"name\":\"finality\",\"key\":9,\"value\":77}"
        );
        let ev =
            TraceEvent { at: 7, actor: 0, kind: EventKind::SpanBegin { name: "view", key: 3 } };
        assert_eq!(
            ev.to_json(),
            "{\"at\":7,\"actor\":0,\"kind\":\"span_begin\",\"name\":\"view\",\"key\":3}"
        );
    }

    #[test]
    fn block_keys_are_stable_and_distinct() {
        let a = block_key(BlockId::test(1));
        let b = block_key(BlockId::test(2));
        assert_ne!(a, b);
        assert_eq!(a, block_key(BlockId::test(1)));
    }

    #[test]
    fn stage_names_cover_the_lifecycle() {
        let all = [
            Stage::Received,
            Stage::Proposed,
            Stage::Voted,
            Stage::Speculated,
            Stage::Committed,
            Stage::Responded,
        ];
        let names: Vec<_> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 6);
        for w in names.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }
}
