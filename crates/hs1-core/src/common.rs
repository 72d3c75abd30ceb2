//! State and helpers below the view driver: block store, mempool, the
//! commit path (global-ledger) with its return of orphaned transactions,
//! and the speculation path (local-ledger).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::persist::{NoopPersistence, Persistence, RecoveredState};
use crate::replica::{Action, PoolStats};
use crate::runset::TxRunSet;
use hs1_crypto::{KeyPair, PublicKeyRegistry, Signature};
use hs1_ledger::{ExecConfig, ExecutionEngine};
use hs1_obs::{block_key, Obs, Stage};
use hs1_types::codec::{CodecError, Reader};
use hs1_types::{
    Block, BlockId, CertKind, Certificate, CommittedLog, Decode, Encode, IdHash, Rank, ReplicaId,
    ReplyKind, Slot, SystemConfig, Transaction, View,
};

/// A replica's transaction pool, the same under the simulator and the TCP
/// runtime: clients send every request to every replica (dissemination is
/// off the consensus critical path, §7 Implementation), each replica
/// queues what it was sent, and a leader proposes from its own queue what
/// it has not already seen inside a block.
#[derive(Default)]
pub(crate) struct Mempool {
    /// Admitted requests in arrival order. Holds, besides what is still
    /// proposable, entries a block has carried since: they are dropped
    /// when a batch reaches them.
    queue: VecDeque<Transaction>,
    /// Ids this replica has seen inside a stored block, its own or a
    /// peer's, and has not taken back from an orphan.
    absorbed: TxRunSet,
    /// Ids a client sent here or an orphan brought back (never removed: a
    /// client resending an id it already submitted is a duplicate even
    /// after proposal). An id is proposable, and in the queue, exactly when
    /// it is here and not in `absorbed`.
    seen: TxRunSet,
    /// Ids inside committed blocks, a subset of `absorbed`: an orphan that
    /// shares one with a committed block does not bring it back.
    committed: TxRunSet,
    /// `depth` counts the proposable ids: what the admission bound is held
    /// against.
    stats: PoolStats,
    /// [`SystemConfig::mempool_cap`].
    cap: usize,
}

impl Mempool {
    pub(crate) fn new(cap: usize) -> Mempool {
        Mempool { cap, ..Mempool::default() }
    }

    /// Depth and admission counters.
    pub(crate) fn stats(&self) -> PoolStats {
        self.stats
    }

    /// A client request arrived at this replica.
    pub(crate) fn offer(&mut self, tx: Transaction) {
        let full = self.cap > 0 && self.stats.depth >= self.cap;
        if full && !self.seen.contains(tx.id) && !self.absorbed.contains(tx.id) {
            // Backpressure. Not recorded in `seen`: the client may retry.
            self.stats.refused += 1;
            return;
        }
        // Recorded even when a peer's block brought the id here before the
        // client's own request (several percent of requests on loopback):
        // each one skipped would leave `seen` a gap, and so one more run.
        let fresh = self.seen.insert(tx.id);
        if !fresh || self.absorbed.contains(tx.id) {
            self.stats.deduped += 1;
            return;
        }
        self.queue.push_back(tx);
        self.stats.depth += 1;
    }

    /// Pull up to `max` proposable transactions for a new block.
    pub(crate) fn take_batch(&mut self, max: usize) -> Vec<Transaction> {
        let mut out = Vec::with_capacity(max.min(self.stats.depth));
        while out.len() < max {
            let Some(tx) = self.queue.pop_front() else { break };
            // Skip what a block seen since admission already carried.
            if self.absorbed.insert(tx.id) {
                out.push(tx);
            }
        }
        self.stats.depth -= out.len();
        out
    }

    /// The replica stored a block carrying `txs` (suppress re-proposal).
    pub(crate) fn absorb(&mut self, txs: &[Transaction]) {
        for tx in txs {
            if self.absorbed.insert(tx.id) && self.seen.contains(tx.id) {
                self.stats.depth -= 1;
            }
        }
    }

    /// `txs` committed: no orphan returns them, and as they stay in
    /// `absorbed` a client resending one is a duplicate.
    pub(crate) fn mark_committed(&mut self, txs: &[Transaction]) {
        for tx in txs {
            debug_assert!(self.absorbed.contains(tx.id), "a committed block was stored first");
            self.committed.insert(tx.id);
        }
    }

    /// `txs` were carried by a block that can no longer commit: those not
    /// committed through another block go to the front of the queue, each
    /// in turn (so the last of them is proposed first), past the admission
    /// bound: they were admitted once, here or at the replica that
    /// proposed them. Returns how many went back.
    pub(crate) fn put_back(&mut self, txs: &[Transaction]) -> usize {
        let mut back = 0;
        for tx in txs {
            // `remove` fails for an id a second orphan carries too.
            if !self.committed.contains(tx.id) && self.absorbed.remove(tx.id) {
                self.seen.insert(tx.id);
                self.queue.push_front(*tx);
                back += 1;
            }
        }
        self.stats.depth += back;
        back
    }
}

/// Outstanding block fetches with lost-response retry: a fetch may be
/// re-sent once `retry_after` has elapsed since its last request, so a
/// dropped `FetchResp` delays catch-up by one window instead of
/// deadlocking it forever.
#[derive(Default)]
pub(crate) struct FetchTracker {
    inflight: HashMap<BlockId, hs1_types::SimTime, IdHash>,
}

impl FetchTracker {
    pub(crate) fn new() -> FetchTracker {
        FetchTracker::default()
    }

    /// Should a `FetchBlock` for `id` go out now? Records the request
    /// time when it answers yes.
    pub(crate) fn should_request(
        &mut self,
        id: BlockId,
        now: hs1_types::SimTime,
        retry_after: hs1_types::SimDuration,
    ) -> bool {
        match self.inflight.get(&id) {
            Some(&last) if now.since(last) < retry_after => false,
            _ => {
                self.inflight.insert(id, now);
                true
            }
        }
    }

    /// Is a fetch for `id` outstanding? The driver absorbs a `FetchResp` only
    /// when this holds — a Byzantine peer must not be able to push
    /// arbitrary unrequested blocks into the store through the fetch path.
    pub(crate) fn is_inflight(&self, id: BlockId) -> bool {
        self.inflight.contains_key(&id)
    }

    /// The block arrived; clear its in-flight entry.
    pub(crate) fn resolved(&mut self, id: BlockId) {
        self.inflight.remove(&id);
    }
}

/// Replica state below the view driver: identity, crypto, block store, execution,
/// mempool, committed chain.
pub(crate) struct CoreState {
    pub(crate) cfg: SystemConfig,
    pub(crate) me: ReplicaId,
    pub(crate) kp: KeyPair,
    pub(crate) registry: PublicKeyRegistry,
    pub(crate) exec: ExecutionEngine,
    pub(crate) pool: Mempool,
    /// Durability sink (no-op by default; see [`crate::persist`]).
    pub(crate) persist: Box<dyn Persistence>,
    /// Observability sink (no-op by default; see `hs1-obs`). Pure
    /// observer: nothing the engine does may depend on it.
    pub(crate) obs: Obs,
    /// The committed chain: its length, running hash, and the ids back to
    /// the prune horizon.
    committed: CommittedLog,
    /// The committed head's body, as the next commit walk and the Prefix
    /// Speculation rule read it; `None` for a head adopted from a synced
    /// log whose body never came.
    head: Option<Arc<Block>>,
    /// Where the body of every other id in `committed`'s window sits,
    /// oldest first: its `Encode` bytes, in one of `pages`. The rules
    /// read the chain only down to the committed head, so a body below it
    /// is decoded only to be served (`FetchBlock`).
    slots: VecDeque<BodyAt>,
    /// The committed bodies below the head, packed in commit order (a
    /// body filled in late goes to the newest page).
    pages: BodyPages,
    /// Stored blocks not committed, the only ones looked up by id in O(1),
    /// each with whether its transactions already went back to the pool
    /// as an orphan's: two or three in steady state, plus orphans until
    /// they fall below the window.
    pending: HashMap<BlockId, (Arc<Block>, bool), IdHash>,
    /// The last certificate found valid, compared whole, signatures
    /// included: a replica meets one certificate several times (formed
    /// by its tally, then as the justify of its own proposal; carried by a
    /// proposal, then by a NewView), and only the first costs n − f HMACs.
    last_valid: Certificate,
    /// The statement and share this replica last signed as a vote: its
    /// own share, back through the self-send, is known good.
    own_share: Option<([u8; 53], Signature)>,
    /// The uncommitted path a commit walks, kept empty between commits so
    /// a commit allocates nothing for it.
    path: Vec<Arc<Block>>,
}

impl CoreState {
    pub(crate) fn new(cfg: SystemConfig, me: ReplicaId, exec_cfg: ExecConfig) -> CoreState {
        let kp = KeyPair::derive(cfg.deployment_seed, me.0);
        let registry = PublicKeyRegistry::derive(cfg.deployment_seed, cfg.n as u32);
        CoreState {
            pool: Mempool::new(cfg.mempool_cap),
            cfg,
            me,
            kp,
            registry,
            exec: ExecutionEngine::new(exec_cfg),
            persist: Box::new(NoopPersistence),
            obs: Obs::noop(),
            committed: CommittedLog::new(),
            head: Some(Block::genesis()),
            slots: VecDeque::with_capacity(CommittedLog::WINDOW),
            pages: BodyPages::default(),
            pending: HashMap::default(),
            last_valid: Certificate::genesis(),
            own_share: None,
            path: Vec::new(),
        }
    }

    /// Install an observability sink, re-tagged with this replica's id
    /// and shared with the execution engine and the durability sink.
    pub(crate) fn set_observer(&mut self, obs: Obs) {
        let obs = obs.with_actor(self.me.0);
        self.exec.set_observer(obs.clone());
        self.persist.set_observer(obs.clone());
        self.obs = obs;
    }

    /// A stored block: a pending one or the committed head as held, a
    /// committed body below the head decoded from its bytes.
    pub(crate) fn block(&self, id: BlockId) -> Option<Arc<Block>> {
        if let Some((b, _)) = self.pending.get(&id) {
            return Some(b.clone());
        }
        match self.slots.get(self.window_index(id)?) {
            None => self.head.clone(),
            Some(&at) => self.pages.get(at).map(decode_body),
        }
    }

    pub(crate) fn has_block(&self, id: BlockId) -> bool {
        self.pending.contains_key(&id) || self.window_index(id).is_some_and(|i| self.holds(i))
    }

    /// Is the body of the `i`th id in the committed window held?
    fn holds(&self, i: usize) -> bool {
        self.slots.get(i).map_or(self.head.is_some(), |at| at.len > 0)
    }

    /// The id of every stored block, committed ones in height order first.
    pub(crate) fn stored_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        let committed = self.committed.ids().enumerate().filter(|&(i, _)| self.holds(i));
        committed.map(|(_, id)| id).chain(self.pending.keys().copied())
    }

    /// Every stored block not committed, orphans included.
    pub(crate) fn pending_blocks(&self) -> impl Iterator<Item = &Arc<Block>> {
        self.pending.values().map(|(b, _)| b)
    }

    /// The committed bodies held, newest first: the head as held, each
    /// one below it decoded when the iterator reaches it.
    pub(crate) fn committed_newest_first(&self) -> impl Iterator<Item = Arc<Block>> + '_ {
        let below = self.slots.iter().rev().filter_map(|&at| self.pages.get(at));
        self.head.iter().cloned().chain(below.map(decode_body))
    }

    /// Where `id` sits in the committed window (the head's index is
    /// `slots.len()`): the head at once, any other id by a scan, newest
    /// first. Callers ask `pending` first, so only an id that is in
    /// neither (on the stale and fetch paths) is scanned for.
    fn window_index(&self, id: BlockId) -> Option<usize> {
        if id == self.committed.head() {
            Some(self.slots.len())
        } else {
            self.committed.ids().rposition(|c| c == id)
        }
    }

    /// Commit `id` at the next height, with its body if this replica
    /// holds it: the head it replaces goes below as bytes.
    fn push_committed(&mut self, id: BlockId, body: Option<Arc<Block>>) {
        self.committed.push(id);
        let below = match std::mem::replace(&mut self.head, body) {
            Some(old) => self.pages.store(&old),
            None => BodyAt::MISSING,
        };
        self.slots.push_back(below);
    }

    /// Store a block and absorb its transactions into the mempool filter.
    /// A block ranked above the committed head is not in the window, and
    /// is not looked for there.
    pub(crate) fn insert_block(&mut self, b: Arc<Block>) {
        let id = b.id();
        if self.pending.contains_key(&id) {
            return;
        }
        let maybe_committed = self.head.as_ref().is_none_or(|h| b.rank() <= h.rank());
        match maybe_committed.then(|| self.window_index(id)).flatten() {
            Some(i) if self.holds(i) => return,
            // Committed, but adopted from a synced log without its body.
            Some(i) if i == self.slots.len() => self.head = Some(b.clone()),
            Some(i) => self.slots[i] = self.pages.store(&b),
            None => {
                self.pending.insert(id, (b.clone(), false));
            }
        }
        self.pool.absorb(&b.txs);
    }

    /// Is `id` a committed block above the prune horizon? Exact for every
    /// block whose body is retained, which is every block a commit walk,
    /// `speculate` or the vote path can reach: a walk that met an id
    /// below the horizon fails on the missing body first.
    pub(crate) fn is_committed(&self, id: BlockId) -> bool {
        !self.pending.contains_key(&id) && self.window_index(id).is_some()
    }

    pub(crate) fn committed_head(&self) -> BlockId {
        self.committed.head()
    }

    pub(crate) fn committed_log(&self) -> &CommittedLog {
        &self.committed
    }

    /// Verify a certificate against the deployment quorum, unless it is
    /// the last one found valid. Each verification that runs counts in
    /// the metrics-only `certs_verified`.
    pub(crate) fn cert_valid(&mut self, cert: &Certificate) -> bool {
        if *cert == self.last_valid {
            return true;
        }
        self.obs.counter("certs_verified", 0, 1);
        let valid = cert.verify(&self.registry, self.cfg.quorum());
        if valid {
            self.last_valid = cert.clone();
        }
        valid
    }

    /// Record a certificate this replica's own tally formed as valid
    /// without verifying it: the tally counted only shares that verified
    /// (`ShareTally`), so it passes [`Certificate::verify`] by construction.
    pub(crate) fn formed_cert(&mut self, cert: &Certificate) {
        debug_assert!(cert.verify(&self.registry, self.cfg.quorum()), "tally formed {cert:?}");
        self.last_valid = cert.clone();
    }

    /// This replica's vote share towards a certificate of `kind` over
    /// `block` at (`view`, `slot`), remembered: its copy back through the
    /// self-send is counted without being verified.
    pub(crate) fn sign_share(
        &mut self,
        kind: CertKind,
        view: View,
        slot: Slot,
        block: BlockId,
    ) -> Signature {
        let statement = Certificate::signing_bytes(kind, view, slot, block);
        let share = self.kp.sign(kind.domain(), &statement);
        self.own_share = Some((statement, share));
        share
    }

    /// Is `share` replica `from`'s signature on `statement` in `kind`'s
    /// domain? The share this replica last signed is known good, so its
    /// copy back through the self-send is not verified again; anything
    /// else claiming to be from this replica is.
    pub(crate) fn share_valid(
        &self,
        from: ReplicaId,
        kind: CertKind,
        statement: &[u8; 53],
        share: &Signature,
    ) -> bool {
        (from == self.me && self.own_share == Some((*statement, *share)))
            || self.registry.verify(from.0, kind.domain(), statement, share)
    }

    /// Pull a batch for a new proposal.
    pub(crate) fn make_batch(&mut self) -> Vec<Transaction> {
        self.pool.take_batch(self.cfg.batch_size)
    }

    /// Commit `target` and every uncommitted ancestor, executing them in
    /// chain order into the global-ledger and emitting `Executed`
    /// (client responses, unless already sent speculatively) and
    /// `Committed` actions, then return what the new head orphaned to the
    /// mempool. Returns `Err(missing)` if an ancestor body is absent from
    /// the store — the caller must fetch it and retry, or the replica's
    /// global-ledger stalls permanently.
    pub(crate) fn commit_chain(
        &mut self,
        target: BlockId,
        out: &mut Vec<Action>,
    ) -> Result<(), BlockId> {
        let mut path = std::mem::take(&mut self.path);
        let mut cur = target;
        while let Some((b, _)) = self.pending.get(&cur) {
            path.push(b.clone());
            cur = b.parent;
        }
        let walked =
            if self.is_committed(cur) { Ok(path.first().map(|b| b.view)) } else { Err(cur) };
        let Ok(Some(head_view)) = walked else {
            path.clear();
            self.path = path;
            return walked.map(|_| ());
        };
        for b in path.drain(..).rev() {
            // Write-ahead: journal the decision before applying it, so a
            // crash between journal and apply replays deterministically.
            self.persist.on_commit(&b);
            let had_digest = self.exec.digest_of(b.id()).is_some();
            let digest = self.exec.execute_committed(b.id(), &b.txs);
            // Respond to clients on commit only if no speculative response
            // was sent for this block (paper §4.1 commit note). The
            // execution engine prunes digests on rollback, so `had_digest`
            // holds exactly when the block's speculation is still live —
            // i.e. a speculative response went out and was never revoked.
            if !had_digest {
                out.push(Action::Executed { block: b.clone(), digest, kind: ReplyKind::Committed });
            }
            out.push(Action::Committed { block: b.clone() });
            let id = b.id();
            self.obs.stage(Stage::Committed, block_key(id));
            self.obs.counter("blocks_committed", 0, 1);
            self.pending.remove(&id);
            self.pool.mark_committed(&b.txs);
            self.push_committed(id, Some(b));
            if self.persist.wants_checkpoint() {
                let window: Vec<BlockId> = self.committed.ids().collect();
                self.persist.write_checkpoint(self.exec.committed(), &window);
            }
        }
        self.path = path;
        self.return_orphans(head_view);
        Ok(())
    }

    /// The committed head is now in view `head`. A stored block of an
    /// earlier view that is still uncommitted conflicts with the committed
    /// chain and can never commit: a streamlined protocol orphans one
    /// whenever its votes went to a dead or tail-forking next leader
    /// (Example 6.2). Its transactions would be lost with it — every
    /// replica that stored it suppresses them — so they go back to this
    /// replica's pool, orphans in `(rank, id)` order. A body that arrives
    /// after its view was passed is caught here at the next commit.
    fn return_orphans(&mut self, head: View) {
        let mut orphans: Vec<Arc<Block>> = self
            .pending
            .values_mut()
            .filter(|(b, returned)| !*returned && b.view < head)
            .map(|(b, returned)| {
                *returned = true;
                b.clone()
            })
            .collect();
        orphans.sort_unstable_by_key(|b| (b.rank(), b.id()));
        let back: usize = orphans.iter().map(|b| self.pool.put_back(&b.txs)).sum();
        if back > 0 {
            // A block still waiting to commit may carry one of them too.
            for (b, _) in self.pending.values().filter(|(_, returned)| !returned) {
                self.pool.absorb(&b.txs);
            }
        }
    }

    /// Speculatively execute `b` into the local-ledger (paper Fig. 4
    /// lines 12–15): roll back any conflicting speculation (its parent is
    /// committed, so *any* live speculation conflicts), execute, and respond
    /// to clients. No-op if `b` already executed or committed.
    pub(crate) fn speculate(&mut self, b: &Arc<Block>, out: &mut Vec<Action>) {
        debug_assert!(self.is_committed(b.parent), "prefix speculation rule violated");
        if self.is_committed(b.id()) || self.exec.digest_of(b.id()).is_some() {
            return;
        }
        let rolled = self.exec.rollback_conflicting(&[]);
        if rolled > 0 {
            self.persist.on_rollback(rolled);
            self.obs.counter("blocks_rolled_back", 0, rolled as u64);
            out.push(Action::RolledBack { blocks: rolled });
        }
        self.persist.on_speculate(b);
        let digest = self.exec.execute_speculative(b.id(), &b.txs);
        self.obs.stage(Stage::Speculated, block_key(b.id()));
        self.obs.counter("blocks_speculated", 0, 1);
        out.push(Action::Executed { block: b.clone(), digest, kind: ReplyKind::Speculative });
    }

    /// Root of the committed global-ledger state.
    pub(crate) fn state_root(&self) -> hs1_crypto::Digest {
        self.exec.committed().state_root()
    }

    /// Rebuild committed and speculative ledger state from recovery
    /// (engine-level fields — view, certificates — are the caller's job).
    ///
    /// Runs with whatever [`Persistence`] is currently installed; callers
    /// restore *before* [`crate::Replica::set_persistence`] so the replay
    /// is not re-journaled. All emitted actions (client responses for
    /// blocks long since answered) are discarded.
    ///
    /// Returns `false` if `rs` carried a committed store and it was refused
    /// (its log is behind this replica's, or parts from it); the caller
    /// then takes nothing else from `rs` either.
    pub(crate) fn restore(&mut self, rs: RecoveredState) -> bool {
        if let Some(store) = rs.committed_store {
            if !self.extended_by(&rs.committed_log) {
                return false;
            }
            // Installing a committed base invalidates any live speculation
            // — the state-sync path restores a second time, *after* local
            // recovery may have re-derived it. Mirror a conflicting
            // commit: roll it back first.
            let rolled = self.exec.rollback_conflicting(&[]);
            if rolled > 0 {
                self.persist.on_rollback(rolled);
            }
            self.exec.restore_committed(store);
            self.adopt(rs.committed_log);
        }
        let mut sink = Vec::new();
        for b in rs.decided {
            self.insert_block(b.clone());
            // A journal written in commit order cannot have gaps, but be
            // defensive: a block whose ancestry is missing is skipped (the
            // fetch path repairs it once the replica is back online).
            let _ = self.commit_chain(b.id(), &mut sink);
        }
        for b in rs.speculated {
            self.insert_block(b.clone());
            if self.is_committed(b.parent) && !self.is_committed(b.id()) {
                self.speculate(&b, &mut sink);
            }
        }
        true
    }

    /// May the store `incoming` describes replace the committed state? Not
    /// if `incoming` is behind this replica's head. Otherwise yes if its
    /// hash at this replica's height equals this replica's, so that it
    /// extends this replica's chain, or if it no longer knows that hash
    /// because the height is below its window: such a log is a window or
    /// more ahead, and the `f + 1` peers that agreed on it vouch for it.
    /// (Local recovery restores onto genesis, which every log hashes
    /// alike.) A log whose hash differs would join two histories; it is
    /// refused and counted in the metrics-only `restore_conflicts`.
    fn extended_by(&self, incoming: &CommittedLog) -> bool {
        let behind = incoming.len() < self.committed.len();
        match self.committed.diverge(incoming) {
            Ok(None) | Err(_) => !behind,
            Ok(Some(_)) => {
                self.obs.counter("restore_conflicts", 0, 1);
                false
            }
        }
    }

    /// Take `incoming`, which [`CoreState::extended_by`] accepted, as the
    /// committed chain.
    fn adopt(&mut self, incoming: CommittedLog) {
        // A pending block the log commits takes its body into the window.
        let have = self.committed.len();
        if incoming.start() <= have {
            // What lies past this replica's own head, as if committed here.
            for id in incoming.ids_from(have) {
                let body = self.pending.remove(&id).map(|(b, _)| b);
                self.push_committed(id, body);
            }
        } else {
            // A window that starts above this replica's head replaces its
            // log whole: every id the replica holds is below the window,
            // and leaves with its body as a prune would take it.
            for at in self.slots.drain(..) {
                self.pages.release(at);
            }
            for id in incoming.ids().take(incoming.ids().len() - 1) {
                let below = match self.pending.remove(&id) {
                    Some((b, _)) => self.pages.store(&b),
                    None => BodyAt::MISSING,
                };
                self.slots.push_back(below);
            }
            self.head = self.pending.remove(&incoming.head()).map(|(b, _)| b);
            self.committed = incoming;
        }
    }

    /// Trim the committed log to its newest `keep` ids (bounded memory on
    /// long runs): their bodies leave with them, and so does every orphan
    /// ranked below the oldest committed body still held. The log's
    /// length and running hash cover the whole chain, which is what
    /// checkpoints, state sync and the invariant checker read.
    pub(crate) fn prune(&mut self, keep: usize) {
        let gone = self.committed.trim(keep);
        for at in self.slots.drain(..gone) {
            self.pages.release(at);
        }
        let oldest = self.slots.iter().find_map(|&at| self.pages.get(at));
        let floor = oldest.map(rank_of).or_else(|| self.head.as_ref().map(|h| h.rank()));
        if let Some(floor) = floor {
            // An orphan not yet returned waits for the next commit to
            // return its transactions.
            self.pending.retain(|_, (b, returned)| !*returned || b.rank() >= floor);
        }
    }
}

/// Bytes in a page of [`BodyPages`]: about 66 one-transaction bodies,
/// what a prune every 64 views frees.
const PAGE: usize = 16 * 1024;

/// Where a committed body's bytes sit: `len` bytes from `at` in page
/// number `page`. `len` 0 is an id adopted from a synced log whose body
/// never came.
#[derive(Clone, Copy, Debug)]
struct BodyAt {
    page: u32,
    at: u32,
    len: u32,
}

impl BodyAt {
    const MISSING: BodyAt = BodyAt { page: 0, at: 0, len: 0 };
}

/// Freed pages kept for the next ones. A prune frees whole pages while
/// commits fill them one at a time, so the pages the window spans vary
/// by one or two from prune to prune.
const SPARE_PAGES: usize = 2;

/// Committed bodies packed end to end in fixed-size pages, so a window
/// that turns over every view leaves the allocator no holes. A page is
/// recycled once every body in it has left the window; up to
/// [`SPARE_PAGES`] freed pages are kept for the next ones, so a full
/// window stores bodies without allocating.
#[derive(Default)]
struct BodyPages {
    /// Pages numbered `first` up, oldest first, each with how many bodies
    /// in the window it holds. A page whose count fell to 0 has given up
    /// its buffer, and leaves once the pages before it have.
    pages: VecDeque<(Vec<u8>, u32)>,
    first: u32,
    /// Freed pages for the next ones.
    spare: Vec<Vec<u8>>,
    /// Where a body is encoded before it is copied into its page.
    scratch: Vec<u8>,
}

impl BodyPages {
    /// Store `b`'s bytes at the end of the newest page, or of a new one
    /// if they do not fit (a body larger than a page gets a page of its
    /// own size).
    fn store(&mut self, b: &Block) -> BodyAt {
        self.scratch.clear();
        b.encode(&mut self.scratch);
        let len = self.scratch.len();
        let fits =
            self.pages.back().is_some_and(|(bytes, _)| bytes.capacity() - bytes.len() >= len);
        if !fits {
            let spare = if len <= PAGE { self.spare.pop() } else { None };
            let bytes = spare.unwrap_or_else(|| Vec::with_capacity(len.max(PAGE)));
            self.pages.push_back((bytes, 0));
        }
        let page = self.first.wrapping_add(self.pages.len() as u32 - 1);
        let (bytes, live) = self.pages.back_mut().expect("a page was just ensured");
        let at = bytes.len();
        bytes.extend_from_slice(&self.scratch);
        *live += 1;
        BodyAt { page, at: at as u32, len: len as u32 }
    }

    fn index(&self, at: BodyAt) -> usize {
        at.page.wrapping_sub(self.first) as usize
    }

    /// The bytes stored at `at`, if a body was.
    fn get(&self, at: BodyAt) -> Option<&[u8]> {
        let (bytes, _) = self.pages.get(self.index(at)).filter(|_| at.len > 0)?;
        Some(&bytes[at.at as usize..(at.at + at.len) as usize])
    }

    /// The body at `at` left the window: its page is freed once it holds
    /// no other, and pages leave from the front once freed.
    fn release(&mut self, at: BodyAt) {
        if at.len == 0 {
            return;
        }
        let i = self.index(at);
        let (bytes, live) = &mut self.pages[i];
        *live -= 1;
        if *live == 0 {
            let mut page = std::mem::take(bytes);
            if page.capacity() == PAGE && self.spare.len() < SPARE_PAGES {
                page.clear();
                self.spare.push(page);
            }
        }
        while self.pages.front().is_some_and(|&(_, live)| live == 0) {
            self.pages.pop_front();
            self.first = self.first.wrapping_add(1);
        }
    }
}

/// A body [`BodyPages::store`] wrote.
fn decode_body(bytes: &[u8]) -> Arc<Block> {
    Arc::decode_exact(bytes).expect("a body encoded here decodes")
}

/// The rank in a body's bytes, read from its header alone.
fn rank_of(bytes: &[u8]) -> Rank {
    let mut r = Reader::new(bytes);
    let mut header = || -> Result<Rank, CodecError> {
        ReplicaId::decode(&mut r)?;
        Ok(Rank::new(View::decode(&mut r)?, Slot::decode(&mut r)?))
    };
    header().expect("a body encoded here has a header")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_types::{Slot, View};

    fn state() -> CoreState {
        CoreState::new(SystemConfig::new(4), ReplicaId(0), ExecConfig::default())
    }

    fn child_of(parent: BlockId, view: u64, tag: u64) -> Arc<Block> {
        let justify = Certificate {
            kind: hs1_types::CertKind::Quorum,
            view: View(view - 1),
            slot: if view == 1 { Slot(0) } else { Slot(1) },
            block: parent,
            sigs: [].into(),
        };
        Arc::new(Block::new(ReplicaId(0), View(view), Slot(1), justify, vec![tx(tag)]))
    }

    #[test]
    fn genesis_committed_at_start() {
        let s = state();
        assert_eq!(s.committed_head(), Block::genesis_id());
        assert!(s.is_committed(Block::genesis_id()));
    }

    #[test]
    fn commit_chain_commits_ancestors_in_order() {
        let mut s = state();
        let b1 = child_of(Block::genesis_id(), 1, 1);
        let b2 = child_of(b1.id(), 2, 2);
        s.insert_block(b1.clone());
        s.insert_block(b2.clone());
        let mut out = Vec::new();
        assert!(s.commit_chain(b2.id(), &mut out).is_ok());
        let committed: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Committed { block } => Some(block.id()),
                _ => None,
            })
            .collect();
        assert_eq!(committed, vec![b1.id(), b2.id()]);
        assert_eq!(s.committed_head(), b2.id());
        // Both blocks produced committed-kind client responses.
        let responses = out
            .iter()
            .filter(|a| matches!(a, Action::Executed { kind: ReplyKind::Committed, .. }))
            .count();
        assert_eq!(responses, 2);
    }

    #[test]
    fn commit_chain_missing_ancestor_fails() {
        let mut s = state();
        let b1 = child_of(Block::genesis_id(), 1, 1);
        let b2 = child_of(b1.id(), 2, 2);
        s.insert_block(b2.clone()); // b1 never stored
        let mut out = Vec::new();
        assert!(s.commit_chain(b2.id(), &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn speculate_then_commit_promotes_without_second_response() {
        let mut s = state();
        let b1 = child_of(Block::genesis_id(), 1, 1);
        s.insert_block(b1.clone());
        let mut out = Vec::new();
        s.speculate(&b1, &mut out);
        assert!(matches!(out.as_slice(), [Action::Executed { kind: ReplyKind::Speculative, .. }]));
        out.clear();
        assert!(s.commit_chain(b1.id(), &mut out).is_ok());
        // Commit emits Committed but no second client response.
        assert!(out.iter().any(|a| matches!(a, Action::Committed { .. })));
        assert!(!out.iter().any(|a| matches!(a, Action::Executed { .. })));
    }

    #[test]
    fn speculate_conflicting_rolls_back() {
        let mut s = state();
        let b1 = child_of(Block::genesis_id(), 1, 1);
        let b1_alt = child_of(Block::genesis_id(), 2, 99);
        s.insert_block(b1.clone());
        s.insert_block(b1_alt.clone());
        let mut out = Vec::new();
        s.speculate(&b1, &mut out);
        out.clear();
        s.speculate(&b1_alt, &mut out);
        assert!(matches!(out[0], Action::RolledBack { blocks: 1 }));
        assert!(matches!(out[1], Action::Executed { kind: ReplyKind::Speculative, .. }));
    }

    /// Regression (ISSUE 6): after a conflicting speculation rolls a
    /// block back, re-speculating that block must actually re-execute it
    /// and re-respond — a stale digest surviving the rollback used to
    /// make `speculate` return early with no live effects.
    #[test]
    fn speculate_after_rollback_reexecutes() {
        let mut s = state();
        let b1 = child_of(Block::genesis_id(), 1, 1);
        let b1_alt = child_of(Block::genesis_id(), 2, 99);
        s.insert_block(b1.clone());
        s.insert_block(b1_alt.clone());
        let mut out = Vec::new();
        s.speculate(&b1, &mut out);
        s.speculate(&b1_alt, &mut out); // rolls b1 back
        out.clear();
        s.speculate(&b1, &mut out); // rolls b1_alt back, re-executes b1
        assert!(matches!(out[0], Action::RolledBack { blocks: 1 }));
        assert!(
            matches!(&out[1], Action::Executed { block, kind: ReplyKind::Speculative, .. }
                if block.id() == b1.id()),
            "rolled-back block re-executes on re-speculation: {out:?}"
        );
        assert!(s.exec.digest_of(b1.id()).is_some());
    }

    #[test]
    fn speculate_is_idempotent() {
        let mut s = state();
        let b1 = child_of(Block::genesis_id(), 1, 1);
        s.insert_block(b1.clone());
        let mut out = Vec::new();
        s.speculate(&b1, &mut out);
        s.speculate(&b1, &mut out);
        assert_eq!(out.iter().filter(|a| matches!(a, Action::Executed { .. })).count(), 1);
    }

    #[test]
    fn local_mempool_dedupes_and_resurrects() {
        let mut m = Mempool::new(0);
        let t1 = Transaction::kv_write(1, 1, 1, 1);
        let t2 = Transaction::kv_write(1, 2, 2, 2);
        m.offer(t1);
        m.offer(t2);
        m.absorb(&[t1]); // another leader proposed t1
        assert_eq!(m.take_batch(10), vec![t2]);
        assert_eq!(m.put_back(&[t2]), 1);
        assert_eq!(m.put_back(&[t2]), 0, "a second orphan carrying it adds no second copy");
        assert_eq!(m.take_batch(10), vec![t2]);
        // Offer of an absorbed tx is dropped and counted.
        m.offer(t2);
        assert!(m.take_batch(10).is_empty());
        assert_eq!(m.stats().deduped, 1);
    }

    #[test]
    fn local_mempool_counts_duplicate_submissions() {
        let mut m = Mempool::new(0);
        let t1 = Transaction::kv_write(1, 1, 1, 1);
        m.offer(t1);
        m.offer(t1); // client retransmit while still queued
        assert_eq!(m.stats().deduped, 1);
        assert_eq!(m.take_batch(10), vec![t1]);
        m.offer(t1); // replay after proposal
        assert_eq!(m.stats().deduped, 2);
        assert!(m.take_batch(10).is_empty(), "replayed id is not re-proposed");
    }

    /// A replica's filters are a few runs per client however many ids
    /// went through them (they were two hash sets of every id ever seen).
    #[test]
    fn local_mempool_filters_stay_a_few_runs_over_a_million_ids() {
        let mut m = Mempool::new(0);
        let mut beaten = 0;
        let mut window = Vec::new();
        for seq in 0..250_000u64 {
            for client in 0..4 {
                let tx = Transaction::kv_write(client, seq, seq, seq);
                // Now and then a peer's block carries the id here before
                // the client's own request arrives.
                if (seq + u64::from(client)) % 13 == 0 {
                    m.absorb(&[tx]);
                    beaten += 1;
                }
                m.offer(tx);
                window.push(tx);
            }
            if seq % 16 == 15 {
                // Half proposed here, the rest seen in a peer's block;
                // all of it commits.
                assert_eq!(m.take_batch(24).len(), 24);
                let theirs: Vec<_> = m.queue.drain(..).collect();
                m.absorb(&theirs);
                assert_eq!(m.stats().depth, 0);
                m.mark_committed(&window);
                window.clear();
            }
        }
        assert_eq!(m.stats().deduped, beaten);
        assert!(m.queue.is_empty());
        let runs = m.seen.runs().len() + m.absorbed.runs().len() + m.committed.runs().len();
        assert!(runs <= 12, "{runs} runs after 1,000,000 ids from 4 clients");
    }

    #[test]
    fn restore_over_live_speculation_rolls_back_then_installs() {
        // The state-sync path restores twice: local recovery may leave a
        // re-derived speculated block, and the snapshot install must
        // displace it (not panic under restore_committed's
        // no-speculation invariant).
        let mut s = state();
        let b1 = child_of(Block::genesis_id(), 1, 1);
        s.insert_block(b1.clone());
        let mut out = Vec::new();
        s.speculate(&b1, &mut out);

        let mut store = hs1_ledger::KvStore::with_records(10);
        store.put(1, 11);
        let expected_root = store.state_root();
        let rs = crate::persist::RecoveredState {
            committed_store: Some(store),
            committed_log: CommittedLog::from_ids([BlockId::test(9)]),
            ..Default::default()
        };
        s.restore(rs);
        assert_eq!(s.state_root(), expected_root, "synced image installed");
        assert!(s.is_committed(BlockId::test(9)));
    }

    /// Genesis, then `BlockId::test(1..n)`.
    fn chain(n: u64) -> CommittedLog {
        CommittedLog::from_ids((1..n).map(BlockId::test))
    }

    /// A synced image: the store with `records` records, and `log`.
    fn image(records: u64, log: CommittedLog) -> RecoveredState {
        RecoveredState {
            committed_store: Some(hs1_ledger::KvStore::with_records(records)),
            committed_log: log,
            ..Default::default()
        }
    }

    /// State sync restores a second time over local recovery. The second
    /// log overlaps the first, and by then `prune` may have taken the
    /// overlap out of the window.
    #[test]
    fn restoring_twice_after_a_prune_appends_nothing_twice() {
        let mut s = state();
        s.restore(image(10, chain(100)));
        s.prune(10);
        assert!(!s.is_committed(BlockId::test(5)), "pruned with its (absent) body");
        s.restore(image(10, chain(120)));
        assert_eq!(s.committed.diverge(&chain(120)), Ok(None));
        assert_eq!(s.committed.len(), 120);
        assert_eq!(s.committed.ids().count(), 10 + 20, "the window plus what was appended");
        // A shorter log than what is held adds nothing.
        s.restore(image(10, chain(50)));
        assert_eq!((s.committed.len(), s.committed.hash()), (120, chain(120).hash()));
        assert!(s.is_committed(BlockId::test(119)));
    }

    /// A synced log that parts from the replica's own below its height
    /// would join two histories: refused, store and log alike, and
    /// counted. One that extends the replica's log is adopted.
    #[test]
    fn restore_refuses_a_log_that_does_not_extend_the_replicas_own() {
        let (obs, rec) = Obs::recording(hs1_obs::Clock::manual());
        let mut s = state();
        s.set_observer(obs);
        s.restore(image(10, chain(6)));
        let (root, own) = (s.state_root(), s.committed.clone());

        let mut forked = chain(3);
        for t in 103..110 {
            forked.push(BlockId::test(t));
        }
        assert_eq!((forked.len(), forked.diverge(&chain(10))), (10, Ok(Some(3))));
        assert!(!s.restore(image(20, forked)), "refused");
        assert_eq!(s.committed, own, "the replica keeps its own log");
        assert_eq!(s.state_root(), root, "and its own state");
        assert!(!s.is_committed(BlockId::test(103)));
        let conflicts = || rec.lock().unwrap().snapshot().counter_total("restore_conflicts");
        assert_eq!(conflicts(), 1);

        assert!(s.restore(image(20, chain(10))));
        assert_eq!((s.committed.len(), s.committed_head()), (10, BlockId::test(9)));
        assert_eq!(s.state_root(), hs1_ledger::KvStore::with_records(20).state_root());
        assert!(s.is_committed(BlockId::test(7)));
        assert_eq!(conflicts(), 1, "an extension is no conflict");
    }

    /// A replica at genesis adopts a log whose window starts far above it
    /// (every log hashes genesis alike), window and all.
    #[test]
    fn restore_at_genesis_adopts_a_trimmed_log_whole() {
        let mut s = state();
        let mut synced = chain(5000);
        synced.trim(100);
        s.restore(image(10, synced.clone()));
        assert_eq!(s.committed, synced);
        assert!(s.is_committed(BlockId::test(4999)) && s.is_committed(BlockId::test(4900)));
        assert!(!s.is_committed(Block::genesis_id()), "genesis left the window");
        assert_eq!(s.slots.len() + 1, 100, "one body slot per held id below the head");
    }

    /// A replica restarted from a disk more than a window behind holds no
    /// hash at its own height in the synced log, whose window starts above
    /// that height. The log is adopted whole, as at genesis; the replica's
    /// old window leaves. The same pair the other way round is a log
    /// behind the replica's, refused without a conflict.
    #[test]
    fn restore_below_the_synced_window_adopts_the_log_whole() {
        let (obs, rec) = Obs::recording(hs1_obs::Clock::manual());
        let mut s = state();
        s.set_observer(obs);
        assert!(s.restore(image(10, chain(100))), "local recovery");
        let mut synced = chain(100 + CommittedLog::WINDOW as u64 + 500);
        synced.trim(CommittedLog::KEEP);
        assert!(synced.start() > 100);
        assert_eq!(s.committed.diverge(&synced), Err(99));

        assert!(s.restore(image(20, synced.clone())));
        assert_eq!(s.committed, synced);
        assert_eq!(s.state_root(), hs1_ledger::KvStore::with_records(20).state_root());
        assert!(!s.is_committed(BlockId::test(99)), "the old window left");
        assert!(s.is_committed(synced.head()));
        assert_eq!(
            s.slots.len() + 1,
            CommittedLog::KEEP,
            "one body slot per held id below the head"
        );

        assert!(!s.restore(image(10, chain(100))), "behind");
        assert_eq!(s.committed, synced);
        let conflicts = rec.lock().unwrap().snapshot().counter_total("restore_conflicts");
        assert_eq!(conflicts, 0);
    }

    #[test]
    fn prune_drops_old_bodies() {
        let mut s = state();
        let mut parent = Block::genesis_id();
        for v in 1..=10 {
            let b = child_of(parent, v, v);
            parent = b.id();
            s.insert_block(b.clone());
            let mut out = Vec::new();
            assert!(s.commit_chain(b.id(), &mut out).is_ok());
        }
        let before = s.slots.len();
        s.prune(3);
        assert!(s.slots.len() < before);
        assert!(s.has_block(parent), "recent blocks kept");
    }

    /// A certificate over `block` at (`view`, slot 1), no signatures.
    fn cert_over(block: BlockId, view: u64) -> Certificate {
        let slot = Slot(u32::from(view > 0));
        Certificate { kind: CertKind::Quorum, view: View(view), slot, block, sigs: [].into() }
    }

    /// Commit `b` as the new head, its parent committed.
    fn commit(s: &mut CoreState, b: &Arc<Block>) {
        s.insert_block(b.clone());
        assert!(s.commit_chain(b.id(), &mut Vec::new()).is_ok());
    }

    /// A body pushed below the committed head reads back as the block
    /// committed: same id, same bytes. Four shapes: empty, one
    /// transaction, a slotted block carrying an uncertified one, and a
    /// 64-transaction batch.
    #[test]
    fn a_body_below_the_head_reads_back_byte_for_byte() {
        let mut s = state();
        let g = Block::genesis_id();
        let empty = Arc::new(Block::new(ReplicaId(1), View(1), Slot(1), cert_over(g, 0), vec![]));
        let one = child_of(empty.id(), 2, 7);
        // Way (ii): extends the certificate `one` extends, carrying `one`.
        let carry = Arc::new(Block::new_with_carry(
            ReplicaId(3),
            View(3),
            Slot(1),
            cert_over(empty.id(), 1),
            one.id(),
            vec![Transaction::kv_write(2, 1, 1, 1)],
        ));
        let txs = (0..64).map(|i| Transaction::kv_write(3, i, i, i)).collect();
        let batch =
            Arc::new(Block::new(ReplicaId(0), View(4), Slot(1), cert_over(carry.id(), 3), txs));
        let blocks = [empty, one, carry, batch];
        for b in &blocks {
            commit(&mut s, b);
        }
        commit(&mut s, &child_of(blocks[3].id(), 5, 5));
        assert_eq!(s.slots.len(), 5, "genesis and the four below the head");
        for (b, &at) in blocks.iter().zip(s.slots.iter().skip(1)) {
            assert_eq!(
                s.pages.get(at),
                Some(&b.encoded()[..]),
                "{:?} held as its encoding",
                b.id()
            );
            let read = s.block(b.id()).expect("held");
            assert_eq!((read.id(), read.encoded()), (b.id(), b.encoded()));
            assert!(s.has_block(b.id()) && s.is_committed(b.id()));
        }
        assert_eq!(rank_of(s.pages.get(s.slots[4]).unwrap()), blocks[3].rank());
        assert_eq!(s.pages.pages.len(), 1, "five bodies share a page");
    }

    /// Ids adopted from a synced log come without their bodies; a body
    /// that arrives later fills its slot, below the head or at it.
    #[test]
    fn an_adopted_slot_is_filled_by_a_later_insert() {
        let mut s = state();
        let b1 = child_of(Block::genesis_id(), 1, 1);
        let b2 = child_of(b1.id(), 2, 2);
        let b3 = child_of(b2.id(), 3, 3);
        s.restore(image(10, CommittedLog::from_ids([b1.id(), b2.id(), b3.id()])));
        assert!(s.is_committed(b2.id()) && !s.has_block(b2.id()) && !s.has_block(b3.id()));
        assert!(s.block(b2.id()).is_none());
        s.insert_block(b2.clone());
        s.insert_block(b3.clone());
        assert!(s.pending.is_empty(), "committed bodies do not wait as pending");
        assert_eq!(s.block(b2.id()).as_deref(), Some(&*b2), "below the head");
        assert_eq!(s.block(b3.id()).as_deref(), Some(&*b3), "at the head");
        assert!(!s.has_block(b1.id()));
        assert_eq!(s.stored_ids().collect::<Vec<_>>(), [Block::genesis_id(), b2.id(), b3.id()]);
    }

    /// Once the window has filled and been pruned, bodies go into pages
    /// a prune freed. Every page held is one held when the window filled:
    /// a new page would have an address none of them has, as they are all
    /// still live. Bodies of three sizes (empty, one transaction, eight)
    /// do not change that.
    #[test]
    fn a_full_window_commits_into_the_pages_pruning_freed() {
        const KEEP: usize = CommittedLog::KEEP;
        let pages = |s: &CoreState| -> Vec<*const u8> {
            let held = s.pages.pages.iter().map(|(bytes, _)| bytes).filter(|b| b.capacity() > 0);
            held.chain(&s.pages.spare).map(|bytes| bytes.as_ptr()).collect()
        };
        let mut s = state();
        let mut parent = Block::genesis_id();
        let fill = CommittedLog::WINDOW as u64 + CommittedLog::PRUNE_EVERY;
        let mut held = std::collections::HashSet::new();
        for v in 1..=fill + 1_000 {
            let txs = (0..[0, 1, 8][v as usize % 3]).map(|i| tx(v * 8 + i)).collect();
            let b =
                Arc::new(Block::new(ReplicaId(0), View(v), Slot(1), cert_over(parent, v - 1), txs));
            parent = b.id();
            commit(&mut s, &b);
            if v % CommittedLog::PRUNE_EVERY == 0 {
                s.prune(KEEP);
            }
            if v == fill {
                held = pages(&s).into_iter().collect();
            } else if v > fill {
                let now = pages(&s);
                assert!(now.len() <= held.len(), "view {v}: {} pages", now.len());
                assert!(now.iter().all(|p| held.contains(p)), "view {v}: a new page");
            }
        }
        let live: usize = s.slots.iter().map(|at| at.len as usize).sum();
        assert!(held.len() * PAGE <= live + 3 * PAGE, "{} pages for {live} B", held.len());
    }

    /// The driver prunes every 64 views. Bodies must go with the ids, or a
    /// long run gains one body per block forever, and execution digests
    /// are held for the committed head and the live speculation only. One
    /// view in four a leader that never proposes orphans the block before
    /// its view (Example 6.2): the orphan's body leaves too, once it ranks
    /// below the oldest committed body held.
    #[test]
    fn digests_stay_bounded_over_ten_thousand_commits() {
        const KEEP: usize = CommittedLog::KEEP;
        let mut s = state();
        let mut parent = Block::genesis_id();
        let mut out = Vec::new();
        for v in 1..=10_000u64 {
            let b = child_of(parent, v, v);
            s.insert_block(b.clone());
            // Speculate on odd views (an orphan too, to be rolled back).
            if v % 2 == 1 {
                s.speculate(&b, &mut out);
            }
            if v % 4 == 3 {
                continue;
            }
            parent = b.id();
            assert!(s.commit_chain(parent, &mut out).is_ok());
            out.clear();
            if v % 64 == 0 {
                s.prune(KEEP);
            }
        }
        // One more block speculated and not yet committed.
        let tip = child_of(parent, 10_001, 10_001);
        s.insert_block(tip.clone());
        s.speculate(&tip, &mut out);
        assert!(s.exec.digest_of(tip.id()).is_some(), "the live speculation keeps its digest");
        assert!(s.exec.digest_of(parent).is_some(), "so does the committed head");
        // + 64: what accumulates between two prunes.
        assert!(s.slots.len() <= KEEP + 64, "{} bodies held after 10k views", s.slots.len());
        assert_eq!(s.slots.len() + 1, s.committed.ids().len(), "a slot per id below the head");
        let floor = rank_of(s.pages.get(s.slots[0]).expect("held"));
        assert!(s.pending.values().all(|(b, _)| b.rank() >= floor), "no orphan below the window");
        assert!(s.pending.len() < KEEP / 2, "{} of 2,500 orphans held", s.pending.len());
        assert!(s.is_committed(parent), "the head is committed");
        assert!(!s.is_committed(tip.id()));
        for id in s.committed.ids() {
            assert_eq!(s.block(id).map(|b| b.id()), Some(id), "the body beside its id");
            assert!(s.has_block(id) && s.is_committed(id), "retained body, exact answer");
            assert!(id == parent || s.exec.digest_of(id).is_none(), "no digest below the head");
        }
        assert_eq!(s.committed.len(), 7_500 + 1, "the length counts every commit (and genesis)");
    }

    /// The committed chain itself is the window too: a replica holds
    /// `PRUNE_KEEP` ids plus what 64 views commit, a length and a running
    /// hash, however long it runs, and so does a checkpoint of it (whose
    /// store is one size here).
    #[test]
    fn the_committed_log_stays_bounded_over_a_hundred_thousand_commits() {
        use hs1_types::codec::Encode;
        const KEEP: usize = CommittedLog::KEEP;
        let mut s = state();
        let mut parent = Block::genesis_id();
        let mut acc = hs1_crypto::sha256(&parent.0 .0);
        let mut out = Vec::new();
        let mut at_10k = 0;
        for v in 1..=100_000u64 {
            let justify = Certificate {
                kind: CertKind::Quorum,
                view: View(v - 1),
                slot: Slot(u32::from(v > 1)),
                block: parent,
                sigs: [].into(),
            };
            // Sixteen keys: the store stays one size, so only the log could
            // make a later checkpoint larger.
            let txs = vec![Transaction::kv_write(1, v, v % 16, v)];
            let b = Arc::new(Block::new(ReplicaId(0), View(v), Slot(1), justify, txs));
            parent = b.id();
            acc = hs1_crypto::sha256(&[acc.0, parent.0 .0].concat());
            s.insert_block(b.clone());
            assert!(s.commit_chain(parent, &mut out).is_ok());
            out.clear();
            if v % 64 == 0 {
                s.prune(KEEP);
            }
            let held = s.committed.ids().len();
            assert!(held <= CommittedLog::WINDOW, "{held} ids held");
            if v == 10_000 {
                s.prune(KEEP);
                at_10k = s.committed.encoded().len();
            }
        }
        assert_eq!(s.committed.len(), 100_001);
        assert_eq!(s.committed_head(), parent);
        assert_eq!(s.committed.hash(), acc, "the running hash folds every id in commit order");
        s.prune(KEEP);
        let at_100k = s.committed.encoded().len();
        assert!(at_100k.abs_diff(at_10k) <= 64, "log {at_10k} B at 10k, {at_100k} B at 100k");
    }

    fn tx(seq: u64) -> Transaction {
        Transaction::kv_write(1, seq, seq, seq)
    }

    /// At n = 32 a replica leads one view in 32 and stores 31 foreign
    /// blocks in between. The queue drops what they carried only when a
    /// batch reaches it; the admission bound must not count that.
    #[test]
    fn depth_counts_what_is_proposable_not_queue_entries() {
        const BATCH: u64 = 64;
        let batch = |b: u64| -> Vec<Transaction> { (b * BATCH..(b + 1) * BATCH).map(tx).collect() };
        let mut m = Mempool::new(BATCH as usize);
        for b in 0..31 {
            batch(b).into_iter().for_each(|tx| m.offer(tx));
            assert_eq!(m.stats().depth, BATCH as usize);
            m.absorb(&batch(b));
            assert_eq!(m.stats().depth, 0);
        }
        assert_eq!(m.stats().refused, 0, "the bound is held against depth");
        // The bound itself: one request past it is refused, and admitted
        // when the client sends it again after the pool has drained.
        batch(31).into_iter().for_each(|tx| m.offer(tx));
        let late = tx(32 * BATCH);
        m.offer(late);
        assert_eq!((m.stats().depth, m.stats().refused), (BATCH as usize, 1));
        assert_eq!(m.take_batch(BATCH as usize), batch(31));
        m.offer(late);
        assert_eq!(m.take_batch(BATCH as usize), vec![late]);
        assert_eq!((m.stats().refused, m.stats().deduped), (1, 0));
    }

    /// The block proposed just before a dead leader's view is never
    /// certified. Its transactions come back, to the front, once the chain
    /// has passed it.
    #[test]
    fn commit_returns_an_orphans_transactions_to_the_pool() {
        let mut s = state();
        (7..10).for_each(|seq| s.pool.offer(tx(seq)));
        let b1 = child_of(Block::genesis_id(), 1, 1);
        commit(&mut s, &b1);
        // Views 2 and 3 each orphan a block; view 3's arrives first.
        s.insert_block(child_of(b1.id(), 3, 8));
        s.insert_block(child_of(b1.id(), 2, 7));
        assert_eq!(s.pool.stats().depth, 1, "two of three are inside stored blocks");
        // A commit in view 2 has not passed view 2.
        let b2 = child_of(b1.id(), 2, 2);
        commit(&mut s, &b2);
        assert_eq!(s.pool.stats().depth, 1);
        commit(&mut s, &child_of(b2.id(), 4, 4));
        assert_eq!(s.make_batch(), [tx(8), tx(7), tx(9)], "ahead of what was queued");
    }

    /// The failure shape of a transaction two leaders proposed: one block
    /// commits, the other is orphaned. It must not run twice.
    #[test]
    fn orphan_sharing_a_transaction_with_a_committed_block_returns_nothing() {
        let mut s = state();
        s.insert_block(child_of(Block::genesis_id(), 1, 7));
        commit(&mut s, &child_of(Block::genesis_id(), 2, 7)); // same tx, later view
        assert!(s.make_batch().is_empty());
        // Nor does the client's retransmission bring it back.
        s.pool.offer(tx(7));
        assert!(s.make_batch().is_empty());
        assert_eq!(s.pool.stats(), PoolStats { depth: 0, refused: 0, deduped: 1 });
    }

    /// So does a block that is still waiting to commit: the orphan's copy
    /// stays suppressed, or this replica would propose it a third time.
    #[test]
    fn orphan_sharing_a_transaction_with_a_pending_block_returns_nothing() {
        let mut s = state();
        s.insert_block(child_of(Block::genesis_id(), 1, 7));
        let b2 = child_of(Block::genesis_id(), 2, 2);
        let pending = child_of(b2.id(), 3, 7);
        s.insert_block(pending.clone());
        commit(&mut s, &b2);
        assert!(s.make_batch().is_empty());
        commit(&mut s, &pending);
        assert!(s.make_batch().is_empty());
    }

    /// A stale proposal or a fetch response can deliver an orphan's body
    /// after its view was passed, when the transactions it carries are
    /// already back in the queue.
    #[test]
    fn late_orphan_body_does_not_swallow_returned_transactions() {
        let mut s = state();
        s.pool.offer(tx(7));
        s.insert_block(child_of(Block::genesis_id(), 1, 7));
        assert_eq!(s.pool.stats().depth, 0);
        let b3 = child_of(Block::genesis_id(), 3, 3);
        commit(&mut s, &b3);
        assert_eq!(s.pool.stats().depth, 1, "returned");
        // The other half of an equivocation in view 2, fetched late.
        s.insert_block(child_of(Block::genesis_id(), 2, 7));
        assert_eq!(s.pool.stats().depth, 0, "suppressed again until the next commit");
        commit(&mut s, &child_of(b3.id(), 4, 4));
        assert_eq!(s.make_batch(), vec![tx(7)]);
    }

    /// A certificate costs n − f HMACs to verify, and a replica verifies
    /// one it already accepted only once (counted by the metrics-only
    /// `certs_verified`). The remembered certificate is compared whole:
    /// one that differs in a single signature byte is verified again and
    /// rejected, and is not remembered in its place.
    #[test]
    fn a_certificate_off_in_one_signature_byte_is_verified_again_and_rejected() {
        let c = SystemConfig::new(4);
        let (obs, rec) = Obs::recording(hs1_obs::Clock::manual());
        let verified = || rec.lock().unwrap().snapshot().counter_total("certs_verified");
        let mut core = CoreState::new(c.clone(), ReplicaId(0), ExecConfig::default());
        core.set_observer(obs);
        let (view, block) = (View(5), BlockId::test(5));
        let statement = Certificate::signing_bytes(CertKind::Quorum, view, Slot::FIRST, block);
        let sigs = (1..4u32)
            .map(|i| {
                let share = KeyPair::derive(c.deployment_seed, i)
                    .sign(CertKind::Quorum.domain(), &statement);
                (ReplicaId(i), share)
            })
            .collect();
        let cert = Certificate { kind: CertKind::Quorum, view, slot: Slot::FIRST, block, sigs };
        let mut sigs = cert.sigs.to_vec();
        sigs[2].1 .0[31] ^= 1;
        let forged = Certificate { sigs: sigs.into(), ..cert.clone() };

        assert!(core.cert_valid(&cert));
        assert_eq!(verified(), 1);
        assert!(core.cert_valid(&cert));
        assert_eq!(verified(), 1, "the same certificate again is remembered");
        assert!(!core.cert_valid(&forged));
        assert_eq!(verified(), 2, "one signature byte off is verified again");
        assert!(!core.cert_valid(&forged));
        assert_eq!(verified(), 3, "a rejected certificate is not remembered");
        assert!(core.cert_valid(&cert));
        assert_eq!(verified(), 3, "the forgery displaced nothing");
    }
}
