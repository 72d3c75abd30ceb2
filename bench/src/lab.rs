//! The layer lab: unit costs of each layer's public functions, timed by
//! calling them directly on inputs shaped like the cluster's traffic
//! (64-transaction blocks of the seeded request mix, three-share
//! certificates). These are the "lab cost" column of the budget: count ×
//! unit cost is what a layer *should* account for in `cpu_us_per_tx`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hs1_crypto::{hmac_sha256, sha256, KeyPair, PublicKeyRegistry};
use hs1_ledger::{ExecConfig, ExecutionEngine, KvStore};
use hs1_net::framing::{encode_frame, FrameReader};
use hs1_net::mesh::{Inbound, Mesh};
use hs1_storage::{Journal, JournalConfig, JournalRecord, SyncPolicy};
use hs1_types::cert::CertKind;
use hs1_types::codec::{Decode, Encode};
use hs1_types::message::{NewViewMsg, ProposeMsg, VoteInfo};
use hs1_types::{Block, BlockId, Certificate, Message, ReplicaId, Slot, Transaction, View};

use crate::cluster::{free_base_port, system_config, N};
use crate::stats::{median, percentile_of};
use crate::stream::RequestStream;

/// Transactions per lab block: the cluster's `batch_size`.
const BLOCK_TXS: usize = 64;
/// One timing batch runs about this long; a figure is the median of
/// [`BATCHES`] batch means.
const BATCH: Duration = Duration::from_millis(8);
const BATCHES: usize = 5;

/// Mean nanoseconds per call of `f`: median over batches, each sized to
/// run for about [`BATCH`].
fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut iters = 1u64;
    let per_call = loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let took = t0.elapsed();
        if took >= BATCH / 4 || iters >= 1 << 24 {
            break took.as_nanos() as f64 / iters as f64;
        }
        iters *= 4;
    };
    let iters = ((BATCH.as_nanos() as f64 / per_call.max(1.0)) as u64).clamp(1, 1 << 24);
    let means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&means)
}

/// A quorum certificate over `block` with real shares from replicas 0–2.
fn quorum_cert(view: View, block: BlockId) -> Certificate {
    let seed = system_config().deployment_seed;
    let statement = Certificate::signing_bytes(CertKind::Quorum, view, Slot::FIRST, block);
    let sigs = (0..3u32)
        .map(|i| {
            (ReplicaId(i), KeyPair::derive(seed, i).sign(CertKind::Quorum.domain(), &statement))
        })
        .collect();
    Certificate { kind: CertKind::Quorum, view, slot: Slot::FIRST, block, sigs }
}

pub fn run(dir: &Path, seed: u64, m: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let mut stream = RequestStream::new(seed);
    let txs: Vec<Transaction> = (0..BLOCK_TXS).map(|_| stream.next_tx()).collect();
    let per_tx = BLOCK_TXS as f64;

    // hs1-crypto
    let kp = KeyPair::derive(0, 1);
    let registry = PublicKeyRegistry::derive(0, N as u32);
    let statement =
        Certificate::signing_bytes(CertKind::Quorum, View(9), Slot::FIRST, BlockId::test(9));
    let sig = kp.sign(1, &statement);
    m.insert("crypto.sign_ns", time_ns(|| kp.sign(1, black_box(&statement))));
    m.insert("crypto.verify_ns", time_ns(|| registry.verify(1, 1, black_box(&statement), &sig)));
    let small = [0x5au8; 64];
    m.insert("crypto.hmac_64b_ns", time_ns(|| hmac_sha256(b"key", black_box(&small))));
    let large = vec![0xa5u8; 16 * 1024];
    m.insert(
        "crypto.sha256_ns_per_byte",
        time_ns(|| sha256(black_box(&large))) / large.len() as f64,
    );

    // hs1-types
    let justify = quorum_cert(View(8), BlockId::test(8));
    let new_block = || Block::new(ReplicaId(1), View(9), Slot::FIRST, justify.clone(), txs.clone());
    m.insert("types.block_new_ns_per_tx", time_ns(new_block) / per_tx);
    let propose = Message::Propose(ProposeMsg { block: Arc::new(new_block()), commit_cert: None });
    let propose_bytes = propose.encoded();
    m.insert("types.encode_propose_ns_per_tx", time_ns(|| black_box(&propose).encoded()) / per_tx);
    m.insert(
        "types.decode_propose_ns_per_tx",
        time_ns(|| Message::decode_exact(black_box(&propose_bytes))) / per_tx,
    );
    // Chained protocols vote inside NewView: a share plus the sender's
    // highest certificate.
    let vote = Message::NewView(NewViewMsg {
        dest_view: View(10),
        high_cert: justify.clone(),
        vote: Some(VoteInfo {
            view: View(9),
            slot: Slot::FIRST,
            block: BlockId::test(9),
            share: sig,
        }),
    });
    let vote_bytes = vote.encoded();
    m.insert("types.encode_vote_ns", time_ns(|| black_box(&vote).encoded()));
    m.insert("types.decode_vote_ns", time_ns(|| Message::decode_exact(black_box(&vote_bytes))));
    let request = Message::Request(txs[0]);
    m.insert(
        "types.request_roundtrip_ns",
        time_ns(|| Message::decode_exact(&black_box(&request).encoded())),
    );

    // hs1-net::framing
    m.insert("net.encode_frame_ns", time_ns(|| encode_frame(black_box(&vote))));
    let mut wire = Vec::new();
    for _ in 0..BLOCK_TXS {
        wire.extend_from_slice(&encode_frame(&vote));
    }
    let mut reader = FrameReader::new();
    let mut out = Vec::with_capacity(BLOCK_TXS);
    let reassemble = time_ns(|| {
        out.clear();
        reader.push_bytes(black_box(&wire), &mut out)
    });
    m.insert("net.frame_reader_ns_per_frame", reassemble / per_tx);
    m.insert("net.hop_us_p50", mesh_hop_us()?);

    // hs1-ledger
    ledger(&txs, m);

    // hs1-storage
    storage(dir, &justify, m).map_err(|e| format!("lab journal in {}: {e}", dir.display()))
}

/// One-way latency of an idle mesh: `send_replica` on one node to `inbox`
/// on the other (encode, queue, reactor wake-up, `writev`, loopback,
/// `poll`, read, reassemble, channel), as half a ping-pong.
fn mesh_hop_us() -> Result<f64, String> {
    const ROUNDS: usize = 300;
    let err = |e: std::io::Error| format!("lab mesh: {e}");
    let port = free_base_port(2).map_err(err)?;
    let a = Mesh::start(ReplicaId(0), 2, "127.0.0.1", port).map_err(err)?;
    let b = Mesh::start(ReplicaId(1), 2, "127.0.0.1", port).map_err(err)?;
    let ping = Message::Request(Transaction::kv_write(0, 0, 1, 1));
    let wait = Duration::from_secs(5);
    let mut half_rtt = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS + 20 {
        let t0 = Instant::now();
        a.send_replica(ReplicaId(1), ping.clone());
        let Ok(Inbound::FromReplica(_, echo)) = b.inbox.recv_timeout(wait) else {
            return Err("lab mesh: ping lost".into());
        };
        b.send_replica(ReplicaId(0), echo);
        if a.inbox.recv_timeout(wait).is_err() {
            return Err("lab mesh: pong lost".into());
        }
        if round >= 20 {
            half_rtt.push(t0.elapsed().as_nanos() as u64 / 2);
        }
    }
    a.shutdown();
    b.shutdown();
    Ok(percentile_of(&mut half_rtt, 0.5) / 1e3)
}

fn ledger(txs: &[Transaction], m: &mut BTreeMap<&'static str, f64>) {
    const BLOCKS: u64 = 400;
    let per_tx = (BLOCKS * txs.len() as u64) as f64;
    // Speculate then promote, as HotStuff-1 does; time the speculation.
    let mut engine = ExecutionEngine::new(ExecConfig::default());
    let mut spec = Duration::ZERO;
    for tag in 0..BLOCKS {
        let id = BlockId::test(tag);
        let t0 = Instant::now();
        black_box(engine.execute_speculative(id, black_box(txs)));
        spec += t0.elapsed();
        engine.execute_committed(id, txs);
    }
    m.insert("ledger.exec_spec_ns_per_tx", spec.as_nanos() as f64 / per_tx);
    // Execute on commit with nothing speculated, as HotStuff-2 does.
    let mut engine = ExecutionEngine::new(ExecConfig::default());
    let t0 = Instant::now();
    for tag in 0..BLOCKS {
        black_box(engine.execute_committed(BlockId::test(tag), black_box(txs)));
    }
    m.insert("ledger.exec_commit_ns_per_tx", t0.elapsed().as_nanos() as f64 / per_tx);
    // Speculate one block, then discard it.
    let mut engine = ExecutionEngine::new(ExecConfig::default());
    let mut rollback = Duration::ZERO;
    for tag in 0..BLOCKS {
        engine.execute_speculative(BlockId::test(tag), txs);
        let t0 = Instant::now();
        black_box(engine.rollback_conflicting(&[]));
        rollback += t0.elapsed();
    }
    m.insert("ledger.rollback_us_per_block", rollback.as_nanos() as f64 / BLOCKS as f64 / 1e3);
    // State root of a store with 100k distinct written keys.
    let mut store = KvStore::with_records(600_000);
    for key in 0..100_000u64 {
        store.put(key * 5, key);
    }
    let roots: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(store.state_root());
            t0.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    m.insert("ledger.state_root_ms", median(&roots));
}

fn storage(
    dir: &Path,
    cert: &Certificate,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), hs1_storage::StorageError> {
    let _ = std::fs::remove_dir_all(dir);
    let record = JournalRecord::Cert(cert.clone());
    // Buffered append, no fsync.
    let cfg = JournalConfig { segment_bytes: 1 << 30, sync: SyncPolicy::Never };
    let (mut journal, _) = Journal::open(&dir.join("append"), cfg)?;
    const APPENDS: u32 = 20_000;
    let t0 = Instant::now();
    for _ in 0..APPENDS {
        journal.append(black_box(&record))?;
    }
    m.insert("storage.append_ns", t0.elapsed().as_nanos() as f64 / APPENDS as f64);
    drop(journal);
    // One record, flushed and fsynced: what a vote waits for.
    let (mut journal, _) = Journal::open(&dir.join("fsync"), cfg)?;
    let mut syncs = Vec::with_capacity(40);
    for _ in 0..40 {
        journal.append(&record)?;
        let t0 = Instant::now();
        journal.sync()?;
        syncs.push(t0.elapsed().as_nanos() as u64);
    }
    m.insert("storage.fsync_us_p50", percentile_of(&mut syncs, 0.5) / 1e3);
    drop(journal);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}
