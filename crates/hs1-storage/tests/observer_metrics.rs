//! Storage observability across crash-restart: re-attaching the *same*
//! recording observer to a re-opened `ReplicaStorage` must keep its
//! counters monotone and must not re-report historical journal bytes —
//! the delta cursors start at zero per open, and the journal's
//! byte/fsync totals count only post-open activity.

use std::path::Path;
use std::sync::{Arc, Mutex};

use hs1_core::persist::Persistence;
use hs1_core::testkit::TestNet;
use hs1_core::Fault;
use hs1_core::{build_replica, Replica};
use hs1_ledger::ExecConfig;
use hs1_obs::{Clock, Obs, RecordingObserver};
use hs1_storage::testutil::TempDir;
use hs1_storage::{JournalConfig, ReplicaStorage, StorageConfig, SyncPolicy};
use hs1_types::{
    Block, Certificate, ProtocolKind, ReplicaId, SimDuration, Slot, SystemConfig, Transaction, View,
};

fn cfg(n: usize) -> SystemConfig {
    let mut c = SystemConfig::new(n);
    c.view_timer = SimDuration::from_millis(10);
    c.delta = SimDuration::from_millis(1);
    c.batch_size = 4;
    c
}

fn hs1_engine(c: &SystemConfig, id: u32) -> Box<dyn Replica> {
    build_replica(
        ProtocolKind::HotStuff1,
        c.clone(),
        ReplicaId(id),
        Fault::Honest,
        ExecConfig::default(),
    )
}

fn txs(n: u64) -> Vec<Transaction> {
    (0..n).map(|i| Transaction::kv_write(1, i, i * 31 + 7, i)).collect()
}

/// Run a 4-replica cluster with replica 0 journal-backed in `dir` and
/// observed by `obs`, which reaches the journal through the engine:
/// attached before the storage, or after it. Dropping the net is the
/// crash.
fn run_observed_cluster(dir: &Path, obs: &Obs, observer_first: bool) {
    let c = cfg(4);
    let mut engines: Vec<Box<dyn Replica>> = (0..4).map(|i| hs1_engine(&c, i)).collect();
    let (state, storage) = ReplicaStorage::open(dir, scfg()).expect("open storage");
    assert!(state.is_empty(), "fresh directory");
    if observer_first {
        engines[0].set_observer(obs.clone());
    }
    engines[0].set_persistence(Box::new(storage));
    if !observer_first {
        engines[0].set_observer(obs.clone());
    }
    let mut net = TestNet::new(engines, SimDuration::from_micros(200));
    net.inject(&txs(64));
    net.init();
    net.run_for(SimDuration::from_millis(200));
    net.assert_prefix_agreement(&[0, 1, 2, 3]);
}

/// `(journal_bytes, fsyncs)` reported so far.
fn journal_totals(rec: &Mutex<RecordingObserver>) -> (u64, u64) {
    let s = rec.lock().expect("recorder").snapshot();
    (s.counter_total("journal_bytes"), s.counter_total("fsyncs"))
}

fn scfg() -> StorageConfig {
    StorageConfig {
        journal: JournalConfig { sync: SyncPolicy::Always, ..JournalConfig::default() },
        checkpoint_every: 0,
    }
}

#[test]
fn an_observer_reaches_the_journal_whichever_is_installed_first() {
    let run = |observer_first| {
        let tmp = TempDir::new("obs-order");
        let (obs, rec) = Obs::recording(Clock::manual());
        run_observed_cluster(tmp.path(), &obs, observer_first);
        journal_totals(&rec)
    };
    let (bytes, fsyncs) = run(true);
    assert!(bytes > 0 && fsyncs > 0, "the journal reported through the engine's observer");
    assert_eq!(run(false), (bytes, fsyncs), "a late observer sees the same journal");
}

#[test]
fn journal_counters_stay_monotone_across_crash_restart_reattachment() {
    let tmp = TempDir::new("obs-monotone");
    let (obs, rec) = Obs::recording(Clock::manual());

    // Phase 1: a 4-replica cluster with replica 0 journal-backed and
    // observed.
    run_observed_cluster(tmp.path(), &obs, true);
    let (bytes1, fsyncs1) = journal_totals(&rec);
    assert!(bytes1 > 0, "phase 1 journaled bytes");
    assert!(fsyncs1 > 0, "phase 1 fsynced");

    // Phase 2: crash-restart — recover the same directory and re-attach
    // the SAME observer, then journal a little more.
    {
        let (state, mut storage) = ReplicaStorage::open(tmp.path(), scfg()).expect("recover");
        assert!(!state.is_empty(), "recovery saw phase 1's journal");
        storage.set_observer(obs.clone());
        let block = Arc::new(Block::new(
            ReplicaId(0),
            View(999),
            Slot(999),
            Certificate::genesis(),
            txs(4),
        ));
        storage.on_speculate(&block);
        storage.on_commit(&block);
    }
    let (bytes2, fsyncs2) = journal_totals(&rec);
    assert!(bytes2 > bytes1, "counters keep growing after re-attachment");
    assert!(fsyncs2 > fsyncs1, "the durable spec-mark fsynced");
    // The key monotonicity property: re-opening must report only *new*
    // growth. Phase 2 wrote two records; if re-attachment re-reported
    // phase 1's journal (64 txs across dozens of blocks), the delta
    // would exceed everything phase 1 reported.
    assert!(
        bytes2 - bytes1 < bytes1,
        "re-attachment re-reported historical journal bytes: {bytes1} -> {bytes2}"
    );
}
