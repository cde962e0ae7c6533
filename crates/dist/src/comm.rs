//! The simulated message-passing runtime.
//!
//! Each rank is an OS thread running the same SPMD closure. Point-to-point
//! messages travel over crossbeam channels as type-erased payloads tagged
//! with `(src, tag)`; a per-rank pending buffer reorders out-of-order
//! arrivals, so `send`/`recv` semantics match tagged MPI. Every inter-rank
//! message is accounted (bytes + count + wall time blocked in recv), and
//! can be attributed to a `(level, phase)` scope, which is how the paper's
//! communication-volume numbers (§4.3, §5.4) are reproduced without real
//! network hardware (see DESIGN.md §2).
//!
//! Collectives are *neighbor- and tree-aware*: reductions, gathers and
//! scatters run over a binomial tree rooted at a fixed rank (O(log P)
//! rounds, 2(P−1) total messages), and [`Comm::alltoallv`] exchanges
//! payloads only between ranks with nonzero traffic. The final combine of
//! every reduction walks contributions in rank order, so results are
//! bitwise identical to the naive rank-ordered implementation for a fixed
//! rank count — the determinism contract the distributed solver tests
//! rely on.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// How long a blocking `recv` waits before declaring a deadlock.
const RECV_TIMEOUT: Duration = Duration::from_mins(2);

struct Envelope {
    src: usize,
    tag: u64,
    bytes: usize,
    /// When the sender posted this message. Ranks share one process, so
    /// sender and receiver clocks are the same clock; with an in-process
    /// channel the message is deliverable the instant `send` returns,
    /// making this the arrival time for overlap telemetry.
    sent_at: Instant,
    payload: Box<dyn Any + Send>,
}

/// An in-flight receive posted by [`Comm::irecv`]. If the message had
/// already arrived when the handle was posted it is resolved eagerly;
/// otherwise [`Comm::wait`] blocks for it. Dropping an unresolved handle
/// leaves the message for a later `recv`/`irecv` of the same `(src, tag)`.
#[must_use = "complete the receive with Comm::wait"]
pub struct RecvHandle<T> {
    src: usize,
    tag: u64,
    ready: Option<Envelope>,
    _payload: std::marker::PhantomData<T>,
}

/// Which solver phase a message belongs to (telemetry attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommPhase {
    /// Hierarchy construction.
    Setup,
    /// Cycling / Krylov iteration.
    Solve,
    /// Traffic outside any scoped region.
    Other,
}

impl CommPhase {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            CommPhase::Setup => "setup",
            CommPhase::Solve => "solve",
            CommPhase::Other => "other",
        }
    }
}

/// Level marker for traffic outside any scoped region.
pub const UNSCOPED_LEVEL: usize = usize::MAX;

/// Telemetry scope: `(hierarchy level, phase)`.
pub type ScopeKey = (usize, CommPhase);

/// Bytes and messages attributed to one scope.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScopeTotals {
    /// Bytes sent to other ranks.
    pub bytes: u64,
    /// Messages sent to other ranks.
    pub messages: u64,
}

/// Per-rank communication counters (shared, atomically updated).
#[derive(Debug, Default)]
pub struct RankCounters {
    /// Bytes sent to other ranks (self-sends excluded).
    pub bytes_sent: AtomicU64,
    /// Messages sent to other ranks.
    pub messages_sent: AtomicU64,
}

/// Aggregate statistics for a finished run.
#[derive(Debug, Clone, Default)]
pub struct CommReport {
    /// Bytes sent per rank.
    pub bytes_per_rank: Vec<u64>,
    /// Messages sent per rank.
    pub messages_per_rank: Vec<u64>,
    /// Bytes/messages per `(level, phase)` scope, summed over ranks.
    /// Unattributed traffic lands under `(UNSCOPED_LEVEL, Other)`.
    pub per_scope: BTreeMap<ScopeKey, ScopeTotals>,
}

impl CommReport {
    /// Total bytes across ranks.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_rank.iter().sum()
    }

    /// Total messages across ranks.
    pub fn total_messages(&self) -> u64 {
        self.messages_per_rank.iter().sum()
    }

    /// Formats the per-level, per-phase breakdown as an aligned table
    /// (the §4.3/§5.4 comm-volume view).
    pub fn scope_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>7} {:>6} {:>14} {:>10}",
            "level", "phase", "bytes", "messages"
        );
        for (&(level, phase), t) in &self.per_scope {
            let lvl = if level == UNSCOPED_LEVEL {
                "-".to_string()
            } else {
                level.to_string()
            };
            let _ = writeln!(
                out,
                "{:>7} {:>6} {:>14} {:>10}",
                lvl,
                phase.label(),
                t.bytes,
                t.messages
            );
        }
        let _ = writeln!(
            out,
            "{:>7} {:>6} {:>14} {:>10}",
            "total",
            "",
            self.total_bytes(),
            self.total_messages()
        );
        out
    }
}

/// Restores the previous telemetry scope on drop (see [`Comm::scoped`]).
pub struct ScopeGuard<'a> {
    comm: &'a Comm,
    prev: ScopeKey,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        self.comm.scope.set(self.prev);
    }
}

/// A rank's endpoint in the simulated world.
#[allow(clippy::struct_field_names)] // comm_time mirrors the MPI profiling name
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
    pending: RefCell<BTreeMap<(usize, u64), VecDeque<Envelope>>>,
    barrier: Arc<Barrier>,
    counters: Arc<Vec<RankCounters>>,
    /// Per-rank scoped counters; rank `r` only ever locks entry `r`, so
    /// the mutex is uncontended — it exists to hand the maps back to
    /// `run_ranks` after the SPMD threads join.
    scoped: Arc<Vec<Mutex<BTreeMap<ScopeKey, ScopeTotals>>>>,
    /// Current telemetry scope for outgoing messages.
    scope: Cell<ScopeKey>,
    /// Wall time this rank has spent blocked in `recv`/`barrier`.
    comm_time: Cell<Duration>,
}

impl Comm {
    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Wall time spent blocked on communication so far.
    pub fn comm_time(&self) -> Duration {
        self.comm_time.get()
    }

    /// Communication time accumulated since an earlier [`Comm::comm_time`]
    /// snapshot `t0`. The clock is monotone non-decreasing by
    /// construction (only ever incremented), so a shortfall would mean a
    /// stale snapshot from a *different* rank's `Comm`; saturate to zero
    /// rather than panic, and flag it loudly in debug builds.
    pub fn comm_time_since(&self, t0: Duration) -> Duration {
        let now = self.comm_time.get();
        debug_assert!(
            now >= t0,
            "comm clock went backwards (now {now:?} < snapshot {t0:?}); \
             was the snapshot taken on a different rank's Comm?"
        );
        now.checked_sub(t0).unwrap_or(Duration::ZERO)
    }

    /// Bytes this rank has sent so far.
    pub fn bytes_sent(&self) -> u64 {
        // ORDERING: Relaxed — telemetry snapshot of this rank's own counter;
        // a rank reads what it wrote (program order), cross-rank totals are
        // only read after the simulated ranks join.
        self.counters[self.rank].bytes_sent.load(Ordering::Relaxed)
    }

    /// Messages this rank has sent so far.
    pub fn messages_sent(&self) -> u64 {
        self.counters[self.rank]
            .messages_sent
            // ORDERING: Relaxed — as for `bytes_sent`: own-counter snapshot.
            .load(Ordering::Relaxed)
    }

    /// Enters a telemetry scope: until the returned guard drops, every
    /// outgoing message is attributed to `(level, phase)`. Scopes nest;
    /// dropping restores the enclosing scope.
    pub fn scoped(&self, level: usize, phase: CommPhase) -> ScopeGuard<'_> {
        let prev = self.scope.replace((level, phase));
        ScopeGuard { comm: self, prev }
    }

    /// Sends `payload` (`bytes` on the wire) to `dst` under `tag`.
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: u64, payload: T, bytes: usize) {
        if dst != self.rank {
            let c = &self.counters[self.rank];
            // ORDERING: Relaxed — volume accounting only: the RMW keeps the
            // tallies exact and nothing reads them to synchronize; the
            // payload itself travels through the channel's own locking.
            c.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
            c.messages_sent.fetch_add(1, Ordering::Relaxed);
            let mut scoped = self.scoped[self.rank]
                .lock()
                // PANIC-FREE: poisoning requires a prior panic on another
                // rank's thread; propagating the abort is correct.
                .expect("comm telemetry mutex poisoned by a prior rank panic");
            let t = scoped.entry(self.scope.get()).or_default();
            t.bytes += bytes as u64;
            t.messages += 1;
            drop(scoped);
            // Attribute the same wire volume to the innermost open profiler
            // span on this rank's thread. Doing it here — at the single
            // point where bytes are accounted — means span counters can
            // never double-count nested spans and always reconcile with
            // the `CommReport` totals.
            famg_prof::counter("comm_bytes", bytes as u64);
            famg_prof::counter("comm_messages", 1);
        }
        self.senders[dst]
            .send(Envelope {
                src: self.rank,
                tag,
                bytes,
                sent_at: Instant::now(),
                payload: Box::new(payload), // ALLOC: envelope boxing is the in-process wire format
            })
            // PANIC-FREE: receivers live for the whole run_ranks scope; a
            // hung-up channel means a peer rank already panicked.
            .expect("rank hung up");
    }

    /// Blocking receive of the message sent by `src` under `tag`.
    ///
    /// # Panics
    /// Panics on type mismatch or after `RECV_TIMEOUT` (120 s) (deadlock guard).
    pub fn recv<T: 'static>(&self, src: usize, tag: u64) -> T {
        let handle = self.irecv(src, tag);
        self.wait(handle)
    }

    /// Non-blocking receive: returns a handle that is already resolved if
    /// the message from `(src, tag)` has arrived (in the pending buffer or
    /// sitting in the channel), and otherwise must be completed later with
    /// [`Comm::wait`]. Never blocks; only time spent in `wait` counts as
    /// communication time, which is how the exposed (non-overlapped) halo
    /// wait is measured.
    pub fn irecv<T: 'static>(&self, src: usize, tag: u64) -> RecvHandle<T> {
        let ready = self.take_pending(src, tag).or_else(|| {
            self.drain_channel();
            self.take_pending(src, tag)
        });
        RecvHandle {
            src,
            tag,
            ready,
            _payload: std::marker::PhantomData,
        }
    }

    /// Completes a receive posted by [`Comm::irecv`], blocking if the
    /// message has not arrived yet. The handle must come from this `Comm`
    /// (i.e. the same rank that posted it).
    ///
    /// # Panics
    /// Panics on type mismatch or after `RECV_TIMEOUT` (120 s) (deadlock guard).
    pub fn wait<T: 'static>(&self, handle: RecvHandle<T>) -> T {
        self.wait_timed(handle).0
    }

    /// [`Comm::wait`], additionally returning when the message was *sent*.
    /// Ranks share one clock, and an in-process channel delivers the
    /// moment `send` returns, so the send time is the arrival time — the
    /// overlap telemetry in [`crate::halo`] compares it against the post
    /// and finish marks to split halo wait into hidden and exposed parts.
    ///
    /// # Panics
    /// Panics on type mismatch or after `RECV_TIMEOUT` (120 s) (deadlock guard).
    pub fn wait_timed<T: 'static>(&self, handle: RecvHandle<T>) -> (T, Instant) {
        if let Some(env) = handle.ready {
            let sent_at = env.sent_at;
            return (Self::unpack(env), sent_at);
        }
        // The message may have been buffered by another handle's drain, or
        // be sitting in the channel already (delivered while this rank was
        // computing). Either way, receive it without accruing blocked
        // time: communication time measures genuine waiting for data that
        // has not arrived — exactly the exposed halo wait the overlapped
        // kernels are meant to hide.
        self.drain_channel();
        if let Some(env) = self.take_pending(handle.src, handle.tag) {
            let sent_at = env.sent_at;
            return (Self::unpack(env), sent_at);
        }
        let t0 = Instant::now();
        loop {
            let env = self
                .receiver
                .recv_timeout(RECV_TIMEOUT)
                .unwrap_or_else(|_| {
                    // PANIC-FREE: 120 s deadlock guard — firing means the
                    // exchange protocol is broken; aborting beats hanging.
                    panic!(
                        "rank {} timed out waiting for (src {}, tag {})",
                        self.rank, handle.src, handle.tag
                    )
                });
            if env.src == handle.src && env.tag == handle.tag {
                self.comm_time.set(self.comm_time.get() + t0.elapsed());
                let sent_at = env.sent_at;
                return (Self::unpack(env), sent_at);
            }
            self.pending
                .borrow_mut()
                .entry((env.src, env.tag))
                .or_default()
                .push_back(env);
        }
    }

    /// A mark on the runtime's clock, for overlap telemetry: the halo
    /// `post`/`finish` protocol compares marks against the send times
    /// reported by [`Comm::wait_timed`]. Kept here so wall-clock reads
    /// stay confined to the communication layer.
    pub fn clock_mark(&self) -> Instant {
        Instant::now()
    }

    /// Pops the oldest buffered message for `(src, tag)`, if any.
    fn take_pending(&self, src: usize, tag: u64) -> Option<Envelope> {
        self.pending
            .borrow_mut()
            .get_mut(&(src, tag))
            .and_then(VecDeque::pop_front)
    }

    /// Moves every message already sitting in the channel into the pending
    /// buffer without blocking.
    fn drain_channel(&self) {
        let mut pending = self.pending.borrow_mut();
        while let Ok(env) = self.receiver.try_recv() {
            pending
                .entry((env.src, env.tag))
                .or_default()
                .push_back(env);
        }
    }

    fn unpack<T: 'static>(env: Envelope) -> T {
        let _ = env.bytes;
        *env.payload
            .downcast::<T>()
            // PANIC-FREE: each (src, tag) pair carries exactly one payload
            // type by protocol; a mismatch is a wiring bug, not data.
            .expect("message type mismatch for (src, tag)")
    }

    /// Synchronizes all ranks.
    pub fn barrier(&self) {
        let t0 = Instant::now();
        self.barrier.wait();
        self.comm_time.set(self.comm_time.get() + t0.elapsed());
    }

    // --- binomial tree topology (relative to a root) ---------------------

    /// Rank `r` relative to `root` (root becomes 0).
    #[inline]
    fn rel(&self, r: usize, root: usize) -> usize {
        (r + self.size - root) % self.size
    }

    /// Absolute rank of relative rank `v` under `root`.
    #[inline]
    fn abs_rank(&self, v: usize, root: usize) -> usize {
        (v + root) % self.size
    }

    /// Parent of relative rank `v > 0` in the binomial tree: clear the
    /// lowest set bit.
    #[inline]
    fn tree_parent(v: usize) -> usize {
        debug_assert!(v > 0);
        v & (v - 1)
    }

    /// Children of relative rank `v`, nearest first: `v + 2^k` for all
    /// `2^k` below `v`'s lowest set bit (every power below `size` for the
    /// root), clipped to `size`.
    // ALLOC: O(log P) child list per collective round — inherent to the
    // tree topology and negligible next to the message payloads.
    fn tree_children(&self, v: usize) -> Vec<usize> {
        let bound = if v == 0 {
            self.size
        } else {
            v & v.wrapping_neg()
        };
        let mut out = Vec::new();
        let mut b = 1usize;
        while b < bound && v + b < self.size {
            out.push(v + b);
            b <<= 1;
        }
        out
    }

    /// Size of the subtree rooted at relative rank `v` (covers relative
    /// ranks `v .. v + size`).
    fn subtree_size(&self, v: usize) -> usize {
        if v == 0 {
            self.size
        } else {
            (v & v.wrapping_neg()).min(self.size - v)
        }
    }

    // --- tree collectives -------------------------------------------------

    /// Gathers one value per rank to `root` over the binomial tree
    /// (O(log P) rounds, P−1 messages). Returns `Some(values)` indexed by
    /// rank on the root, `None` elsewhere.
    // ALLOC: message payload assembly — gathers own (and forward) their
    // subtree's values by value, as an MPI gather owns its send buffer.
    pub fn gather_to<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
        tag: u64,
        bytes: impl Fn(&T) -> usize,
    ) -> Option<Vec<T>> {
        let me = self.rel(self.rank, root);
        let span = self.subtree_size(me);
        // Subtree contributions, indexed by relative rank − me.
        let mut buf: Vec<Option<T>> = (0..span).map(|_| None).collect();
        buf[0] = Some(value);
        for child in self.tree_children(me) {
            let sub: Vec<(usize, T)> = self.recv(self.abs_rank(child, root), tag);
            for (v, t) in sub {
                debug_assert!(buf[v - me].is_none());
                buf[v - me] = Some(t);
            }
        }
        if me == 0 {
            let mut out: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
            for (i, t) in buf.into_iter().enumerate() {
                out[self.abs_rank(i, root)] = t;
            }
            let mut gathered = Vec::with_capacity(out.len());
            for o in out {
                // PANIC-FREE: every relative rank reports exactly once (the
                // subtree spans partition 0..size), so no slot stays None.
                gathered.push(o.expect("gather slot filled"));
            }
            Some(gathered)
        } else {
            let sub: Vec<(usize, T)> = buf
                .into_iter()
                .enumerate()
                // PANIC-FREE: buf[0] is this rank's value and children
                // filled the rest of the subtree span above.
                .map(|(i, t)| (me + i, t.expect("gather subtree slot filled")))
                .collect();
            let b: usize = sub.iter().map(|(_, t)| bytes(t)).sum();
            self.send(self.abs_rank(Self::tree_parent(me), root), tag, sub, b);
            None
        }
    }

    /// Scatters one value per rank from `root` over the binomial tree
    /// (O(log P) rounds, P−1 messages). The root passes `Some(values)`
    /// indexed by rank; every rank returns its own element.
    // ALLOC: message payload assembly — each tree edge forwards its
    // child-subtree block by value, as an MPI scatter owns its buffers.
    pub fn scatter_from<T: Send + 'static>(
        &self,
        root: usize,
        values: Option<Vec<T>>,
        tag: u64,
        bytes: impl Fn(&T) -> usize,
    ) -> T {
        let me = self.rel(self.rank, root);
        let span = self.subtree_size(me);
        let mut buf: Vec<Option<T>> = if me == 0 {
            // PANIC-FREE: the root-only Some(values) contract is the API;
            // both checks reject caller bugs before any message moves.
            let values = values.expect("root must provide the scatter values");
            assert_eq!(values.len(), self.size); // PANIC-FREE: same caller contract

            // Reorder absolute → relative.
            let mut tmp: Vec<Option<T>> = values.into_iter().map(Some).collect();
            (0..self.size)
                .map(|v| tmp[self.abs_rank(v, root)].take())
                .collect()
        } else {
            let sub: Vec<T> = self.recv(self.abs_rank(Self::tree_parent(me), root), tag);
            debug_assert_eq!(sub.len(), span);
            sub.into_iter().map(Some).collect()
        };
        for child in self.tree_children(me) {
            let (c0, c1) = (child - me, child - me + self.subtree_size(child));
            let block: Vec<T> = buf[c0..c1]
                .iter_mut()
                // PANIC-FREE: child subtrees are disjoint, so each slot is
                // taken at most once after being filled above.
                .map(|o| o.take().expect("scatter subtree slot filled"))
                .collect();
            let b: usize = block.iter().map(&bytes).sum();
            self.send(self.abs_rank(child, root), tag, block, b);
        }
        // PANIC-FREE: buf[0] is this rank's own element; the child loop
        // above only takes slots strictly past index 0.
        buf[0].take().expect("scatter kept this rank's element")
    }

    /// Broadcasts `value` from `root` over the binomial tree (O(log P)
    /// rounds, P−1 messages). Only the root's `value` is consulted.
    pub fn broadcast<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<T>,
        tag: u64,
        bytes: impl Fn(&T) -> usize,
    ) -> T {
        let me = self.rel(self.rank, root);
        let val: T = if me == 0 {
            // PANIC-FREE: the root-only Some(value) contract is the API.
            value.expect("root must provide the broadcast value")
        } else {
            self.recv(self.abs_rank(Self::tree_parent(me), root), tag)
        };
        for child in self.tree_children(me) {
            let b = bytes(&val);
            // ALLOC: one payload copy per tree child — inherent to a
            // by-value broadcast fan-out.
            self.send(self.abs_rank(child, root), tag, val.clone(), b);
        }
        val
    }

    /// Reduces one value per rank at rank 0 — combining in *rank order*,
    /// which keeps floating-point results bitwise deterministic — then
    /// broadcasts the result. 2(P−1) messages, O(log P) rounds.
    fn reduce_bcast<T, R>(
        &self,
        v: T,
        tag: u64,
        in_bytes: usize,
        out_bytes: usize,
        combine: impl Fn(Vec<T>) -> R,
    ) -> R
    where
        T: Send + 'static,
        R: Clone + Send + 'static,
    {
        let gathered = self.gather_to(0, v, tag, |_| in_bytes);
        let reduced = gathered.map(combine);
        self.broadcast(0, reduced, tag, |_| out_bytes)
    }

    /// All-gather of one value per rank over the binomial tree: subtree
    /// contributions flow up to rank 0, then each rank receives only the
    /// *complement* of the subtree it already holds. 2(P−1) messages
    /// (vs the naive P(P−1)), and every value crosses each tree edge at
    /// most once, so total bytes equal the dense exchange's P(P−1)·b.
    pub fn allgather<T: Clone + Send + 'static>(&self, v: T, tag: u64, bytes: usize) -> Vec<T> {
        let me = self.rel(self.rank, 0);
        let span = self.subtree_size(me);
        // Values by relative rank; the up phase fills `me..me + span`.
        let mut buf: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
        buf[me] = Some(v);
        for child in self.tree_children(me) {
            let sub: Vec<(usize, T)> = self.recv(child, tag);
            for (i, t) in sub {
                buf[i] = Some(t);
            }
        }
        if me != 0 {
            let sub: Vec<(usize, T)> = (me..me + span)
                .map(|i| (i, buf[i].clone().unwrap()))
                .collect();
            self.send(Self::tree_parent(me), tag, sub, bytes * span);
            // Down phase: everything outside this rank's subtree.
            let rest: Vec<(usize, T)> = self.recv(Self::tree_parent(me), tag);
            debug_assert_eq!(rest.len(), self.size - span);
            for (i, t) in rest {
                buf[i] = Some(t);
            }
        }
        for child in self.tree_children(me) {
            let cspan = self.subtree_size(child);
            let rest: Vec<(usize, T)> = (0..self.size)
                .filter(|i| !(child..child + cspan).contains(i))
                .map(|i| (i, buf[i].clone().unwrap()))
                .collect();
            self.send(child, tag, rest, bytes * (self.size - cspan));
        }
        buf.into_iter().map(|o| o.unwrap()).collect()
    }

    /// Global sum of a scalar (the all-reduce the paper's §1 discusses).
    /// Summation order is rank 0,1,…,P−1 regardless of message timing.
    pub fn allreduce_sum(&self, v: f64, tag: u64) -> f64 {
        self.reduce_bcast(v, tag, 8, 8, |all| all.into_iter().sum())
    }

    /// Global per-component sum of a vector. Component `j` is combined
    /// in rank order with the same `0 + v₀ + v₁ + …` fold as
    /// [`allreduce_sum`](Self::allreduce_sum), so it is bitwise
    /// identical to a scalar all-reduce of that component alone — while
    /// the whole vector rides one gather/broadcast round, keeping the
    /// message count independent of the vector length. This is how the
    /// batched solvers reduce `k` residual norms for the price of one.
    pub fn allreduce_sum_vec(&self, v: Vec<f64>, tag: u64) -> Vec<f64> {
        let b = wire::f64s(v.len());
        self.reduce_bcast(v, tag, b, b, |all| {
            // ALLOC: k-sized combine output, once per vector all-reduce
            // (the broadcast then owns it as the message payload).
            let mut out = vec![0.0f64; all.first().map_or(0, Vec::len)];
            for rank_v in all {
                debug_assert_eq!(rank_v.len(), out.len());
                for (o, x) in out.iter_mut().zip(&rank_v) {
                    *o += x;
                }
            }
            out
        })
    }

    /// Global max of a scalar.
    pub fn allreduce_max(&self, v: f64, tag: u64) -> f64 {
        self.reduce_bcast(v, tag, 8, 8, |all| {
            all.into_iter().fold(f64::NEG_INFINITY, f64::max)
        })
    }

    /// Global sum of a usize.
    pub fn allreduce_sum_usize(&self, v: usize, tag: u64) -> usize {
        self.reduce_bcast(v, tag, 8, 8, |all| all.into_iter().sum())
    }

    /// Global logical-or.
    pub fn allreduce_or(&self, v: bool, tag: u64) -> bool {
        self.reduce_bcast(v, tag, 1, 1, |all| all.into_iter().any(|b| b))
    }

    /// Exclusive prefix sum across ranks (rank r gets Σ_{r'<r} v_{r'});
    /// also returns the global total. Tree gather + tree scatter.
    pub fn exscan_sum(&self, v: usize, tag: u64) -> (usize, usize) {
        let gathered = self.gather_to(0, v, tag, |_| 8);
        let scanned = gathered.map(|all| {
            let total: usize = all.iter().sum();
            let mut before = 0usize;
            all.into_iter()
                .map(|x| {
                    let b = before;
                    before += x;
                    (b, total)
                })
                .collect::<Vec<_>>()
        });
        self.scatter_from(0, scanned, tag, |_| 16)
    }

    /// Sparse all-to-all: `sends` lists `(dst, payload)` pairs with
    /// strictly increasing `dst`; only those pairs hit the wire. Returns
    /// `(src, payload)` pairs sorted by `src`. Peers are discovered by
    /// tree-gathering the destination lists to rank 0, transposing there,
    /// and tree-scattering each rank just its own source list — so the
    /// total message count is O(neighbor pairs + P log P), never O(P²),
    /// and discovery bytes scale with the neighbor-pair count rather
    /// than P × pairs (no rank learns the full traffic pattern).
    pub fn alltoallv<T: Send + 'static>(
        &self,
        sends: Vec<(usize, T)>,
        tag: u64,
        bytes: impl Fn(&T) -> usize,
    ) -> Vec<(usize, T)> {
        debug_assert!(sends.windows(2).all(|w| w[0].0 < w[1].0));
        if self.size <= 2 {
            return self.alltoallv_small(sends, tag, &bytes);
        }
        // Discover who sends to me: transpose the dst lists at the root.
        let dsts: Vec<usize> = sends.iter().map(|(d, _)| *d).collect();
        let gathered = self.gather_to(0, dsts, tag, |d| wire::idxs(d.len()));
        let src_lists: Option<Vec<Vec<usize>>> = gathered.map(|all| {
            let mut srcs: Vec<Vec<usize>> = vec![Vec::new(); self.size];
            for (src, ds) in all.into_iter().enumerate() {
                for d in ds {
                    srcs[d].push(src); // ascending: src walks 0..P
                }
            }
            srcs
        });
        let srcs: Vec<usize> = self.scatter_from(0, src_lists, tag, |v| wire::idxs(v.len()));
        // Post the point-to-point payloads (self routed locally).
        let mut self_payload: Option<T> = None;
        for (dst, payload) in sends {
            if dst == self.rank {
                self_payload = Some(payload);
            } else {
                let b = bytes(&payload);
                self.send(dst, tag, payload, b);
            }
        }
        srcs.into_iter()
            .map(|src| {
                if src == self.rank {
                    (src, self_payload.take().expect("missing self payload"))
                } else {
                    (src, self.recv(src, tag))
                }
            })
            .collect()
    }

    /// One- and two-rank worlds: a direct peer exchange costs no more
    /// than the discovery round, so skip discovery entirely. The peer
    /// envelope is posted even when empty — at P=2 that is never worse
    /// than discovering there was nothing to send.
    fn alltoallv_small<T: Send + 'static>(
        &self,
        sends: Vec<(usize, T)>,
        tag: u64,
        bytes: impl Fn(&T) -> usize,
    ) -> Vec<(usize, T)> {
        let mut self_payload: Option<T> = None;
        let mut peer_payload: Option<T> = None;
        for (dst, payload) in sends {
            if dst == self.rank {
                self_payload = Some(payload);
            } else {
                peer_payload = Some(payload);
            }
        }
        let mut out = Vec::new();
        if self.size == 1 {
            if let Some(p) = self_payload {
                out.push((self.rank, p));
            }
            return out;
        }
        let peer = 1 - self.rank;
        let b = peer_payload.as_ref().map_or(0, &bytes);
        self.send(peer, tag, peer_payload, b);
        let from_peer: Option<T> = self.recv(peer, tag);
        let mut push = |src: usize, p: Option<T>| {
            if let Some(p) = p {
                out.push((src, p));
            }
        };
        if self.rank == 0 {
            push(0, self_payload);
            push(1, from_peer);
        } else {
            push(0, from_peer);
            push(1, self_payload);
        }
        out
    }
}

/// Runs `nranks` copies of `f` as SPMD threads; returns each rank's value
/// (index = rank) plus the communication report.
pub fn run_ranks<T: Send>(nranks: usize, f: impl Fn(&Comm) -> T + Sync) -> (Vec<T>, CommReport) {
    assert!(nranks > 0);
    let mut senders = Vec::with_capacity(nranks);
    let mut receivers = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let (s, r) = unbounded();
        senders.push(s);
        receivers.push(r);
    }
    let barrier = Arc::new(Barrier::new(nranks));
    let counters: Arc<Vec<RankCounters>> =
        Arc::new((0..nranks).map(|_| RankCounters::default()).collect());
    let scoped: Arc<Vec<Mutex<BTreeMap<ScopeKey, ScopeTotals>>>> =
        Arc::new((0..nranks).map(|_| Mutex::new(BTreeMap::new())).collect());

    let mut results: Vec<Option<T>> = (0..nranks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (rank, receiver) in receivers.into_iter().enumerate() {
            let comm = Comm {
                rank,
                size: nranks,
                senders: senders.clone(),
                receiver,
                pending: RefCell::new(BTreeMap::new()),
                barrier: Arc::clone(&barrier),
                counters: Arc::clone(&counters),
                scoped: Arc::clone(&scoped),
                scope: Cell::new((UNSCOPED_LEVEL, CommPhase::Other)),
                comm_time: Cell::new(Duration::ZERO),
            };
            let f = &f;
            handles.push(scope.spawn(move || f(&comm)));
        }
        for (rank, h) in handles.into_iter().enumerate() {
            results[rank] = Some(h.join().expect("rank panicked"));
        }
    });

    let mut per_scope: BTreeMap<ScopeKey, ScopeTotals> = BTreeMap::new();
    for m in scoped.iter() {
        for (k, t) in m.lock().unwrap().iter() {
            let e = per_scope.entry(*k).or_default();
            e.bytes += t.bytes;
            e.messages += t.messages;
        }
    }
    let report = CommReport {
        bytes_per_rank: counters
            .iter()
            // ORDERING: Relaxed — read after every rank thread has been
            // joined; the joins provide the happens-before edges.
            .map(|c| c.bytes_sent.load(Ordering::Relaxed))
            .collect(),
        messages_per_rank: counters
            .iter()
            // ORDERING: Relaxed — as above, ordered by the rank joins.
            .map(|c| c.messages_sent.load(Ordering::Relaxed))
            .collect(),
        per_scope,
    };
    (results.into_iter().map(|o| o.unwrap()).collect(), report)
}

/// Wire size helpers.
pub mod wire {
    /// Bytes of a `f64` slice.
    pub fn f64s(n: usize) -> usize {
        8 * n
    }
    /// Bytes of an index slice (indices travel as 64-bit).
    pub fn idxs(n: usize) -> usize {
        8 * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let (vals, report) = run_ranks(4, |c| {
            let next = (c.rank() + 1) % 4;
            let prev = (c.rank() + 3) % 4;
            c.send(next, 1, c.rank() as u64, 8);
            c.recv::<u64>(prev, 1)
        });
        assert_eq!(vals, vec![3, 0, 1, 2]);
        assert_eq!(report.total_messages(), 4);
        assert_eq!(report.total_bytes(), 32);
    }

    #[test]
    fn out_of_order_tags() {
        let (vals, _) = run_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, 70u32, 4);
                c.send(1, 8, 80u32, 4);
                0u32
            } else {
                // Receive in reverse tag order: buffering must reorder.
                let b = c.recv::<u32>(0, 8);
                let a = c.recv::<u32>(0, 7);
                a + b
            }
        });
        assert_eq!(vals[1], 150);
    }

    #[test]
    fn collectives() {
        for nranks in [1usize, 2, 3, 5, 8] {
            let (vals, _) = run_ranks(nranks, |c| {
                let s = c.allreduce_sum((c.rank() + 1) as f64, 2);
                let m = c.allreduce_max(c.rank() as f64, 3);
                let (before, total) = c.exscan_sum(10 * (c.rank() + 1), 4);
                (s, m, before, total)
            });
            let expect_sum = (nranks * (nranks + 1) / 2) as f64;
            for (r, (s, m, before, total)) in vals.iter().enumerate() {
                assert_eq!(*s, expect_sum, "nranks {nranks}");
                assert_eq!(*m, (nranks - 1) as f64);
                assert_eq!(*total, 10 * nranks * (nranks + 1) / 2);
                assert_eq!(*before, (0..r).map(|i| 10 * (i + 1)).sum::<usize>());
            }
        }
    }

    #[test]
    fn allgather_matches_naive_and_uses_linear_messages() {
        for nranks in [1usize, 3, 4, 6, 7] {
            let (vals, report) = run_ranks(nranks, |c| c.allgather(c.rank() * 7, 9, 8));
            for v in &vals {
                assert_eq!(*v, (0..nranks).map(|r| r * 7).collect::<Vec<_>>());
            }
            // Tree gather (P−1) + tree broadcast (P−1).
            assert_eq!(report.total_messages(), 2 * (nranks as u64 - 1));
        }
    }

    #[test]
    fn gather_scatter_broadcast_roundtrip() {
        for nranks in [1usize, 2, 5, 8] {
            for root in [0usize, nranks - 1] {
                let (vals, _) = run_ranks(nranks, |c| {
                    let g = c.gather_to(root, vec![c.rank(); c.rank() + 1], 11, |v| {
                        wire::idxs(v.len())
                    });
                    if c.rank() == root {
                        let g = g.as_ref().unwrap();
                        for (r, v) in g.iter().enumerate() {
                            assert_eq!(*v, vec![r; r + 1]);
                        }
                    } else {
                        assert!(g.is_none());
                    }
                    let scattered = c.scatter_from(
                        root,
                        g.map(|v| v.into_iter().map(|x| x.len()).collect()),
                        12,
                        |_| 8,
                    );
                    let bc = c.broadcast(root, (c.rank() == root).then_some(42u64), 13, |_| 8);
                    (scattered, bc)
                });
                for (r, (scattered, bc)) in vals.iter().enumerate() {
                    assert_eq!(*scattered, r + 1, "nranks {nranks} root {root}");
                    assert_eq!(*bc, 42);
                }
            }
        }
    }

    #[test]
    fn reductions_bitwise_match_rank_ordered_combine() {
        // The determinism contract: tree reductions equal the naive
        // rank-ordered fold bit for bit.
        let contrib = |r: usize| ((r * 2654435761) % 1000) as f64 * 1e-3 + 0.1;
        for nranks in [2usize, 5, 7] {
            let naive: f64 = (0..nranks).map(contrib).sum();
            let (vals, _) = run_ranks(nranks, |c| c.allreduce_sum(contrib(c.rank()), 21));
            for v in vals {
                assert_eq!(v.to_bits(), naive.to_bits(), "nranks {nranks}");
            }
        }
    }

    #[test]
    fn alltoallv_sparse_pattern() {
        // Ring pattern: each rank sends one payload to (rank+1) % P.
        let nranks = 6usize;
        let (vals, report) = run_ranks(nranks, |c| {
            let dst = (c.rank() + 1) % nranks;
            let got = c.alltoallv(vec![(dst, c.rank() as u64)], 31, |_| 8);
            assert_eq!(got.len(), 1);
            got[0]
        });
        for (r, (src, v)) in vals.iter().enumerate() {
            assert_eq!(*src, (r + nranks - 1) % nranks);
            assert_eq!(*v, ((r + nranks - 1) % nranks) as u64);
        }
        // Discovery (2(P−1)) + one payload per rank (P, minus self-sends:
        // none here since dst != rank for P > 1).
        assert_eq!(
            report.total_messages(),
            2 * (nranks as u64 - 1) + nranks as u64
        );
    }

    #[test]
    fn alltoallv_empty_and_self() {
        let (vals, _) = run_ranks(3, |c| {
            // Rank 0 sends to itself and rank 2; others send nothing.
            let sends: Vec<(usize, u32)> = if c.rank() == 0 {
                vec![(0, 100), (2, 102)]
            } else {
                Vec::new()
            };
            c.alltoallv(sends, 33, |_| 4)
        });
        assert_eq!(vals[0], vec![(0, 100)]);
        assert!(vals[1].is_empty());
        assert_eq!(vals[2], vec![(0, 102)]);
    }

    #[test]
    fn alltoallv_two_ranks_skips_discovery() {
        // P=2 fast path: one envelope each way, no discovery round.
        let (vals, report) = run_ranks(2, |c| {
            let peer = 1 - c.rank();
            c.alltoallv(vec![(peer, c.rank() as u64)], 34, |_| 8)
        });
        assert_eq!(vals[0], vec![(1, 1)]);
        assert_eq!(vals[1], vec![(0, 0)]);
        assert_eq!(report.total_messages(), 2);

        // Nothing to exchange still costs only the two (empty) envelopes.
        let (vals, report) = run_ranks(2, |c| c.alltoallv(Vec::<(usize, u64)>::new(), 35, |_| 8));
        assert!(vals[0].is_empty() && vals[1].is_empty());
        assert_eq!(report.total_messages(), 2);
        assert_eq!(report.total_bytes(), 0);

        // Single-rank world: self payload routed locally, wire untouched.
        let (vals, report) = run_ranks(1, |c| c.alltoallv(vec![(0, 7u64)], 36, |_| 8));
        assert_eq!(vals[0], vec![(0, 7)]);
        assert_eq!(report.total_messages(), 0);
    }

    #[test]
    fn self_sends_free() {
        let (_, report) = run_ranks(1, |c| {
            c.send(0, 1, 42u8, 1000);
            assert_eq!(c.recv::<u8>(0, 1), 42);
        });
        assert_eq!(report.total_bytes(), 0);
        assert_eq!(report.total_messages(), 0);
    }

    #[test]
    fn scoped_counters_attribute_traffic() {
        let (_, report) = run_ranks(2, |c| {
            let peer = 1 - c.rank();
            {
                let _g = c.scoped(0, CommPhase::Setup);
                c.send(peer, 1, 1u8, 10);
                c.recv::<u8>(peer, 1);
                {
                    let _g2 = c.scoped(1, CommPhase::Solve);
                    c.send(peer, 2, 2u8, 20);
                    c.recv::<u8>(peer, 2);
                }
                // Back in the outer scope after the inner guard drops.
                c.send(peer, 3, 3u8, 30);
                c.recv::<u8>(peer, 3);
            }
            c.send(peer, 4, 4u8, 40);
            c.recv::<u8>(peer, 4);
        });
        let setup = report.per_scope[&(0, CommPhase::Setup)];
        let solve = report.per_scope[&(1, CommPhase::Solve)];
        let other = report.per_scope[&(UNSCOPED_LEVEL, CommPhase::Other)];
        assert_eq!((setup.bytes, setup.messages), (80, 4));
        assert_eq!((solve.bytes, solve.messages), (40, 2));
        assert_eq!((other.bytes, other.messages), (80, 2));
        assert_eq!(report.total_bytes(), 200);
        // The table mentions every scope plus the total line.
        let table = report.scope_table();
        assert!(table.contains("setup") && table.contains("solve") && table.contains("total"));
    }

    #[test]
    fn comm_time_since_measures_forward_windows() {
        run_ranks(2, |c| {
            let peer = 1 - c.rank();
            // Warm the clock: a barrier and a blocking recv both add time.
            c.barrier();
            c.send(peer, 1, 1u8, 1);
            c.recv::<u8>(peer, 1);
            let t0 = c.comm_time();
            assert_eq!(c.comm_time_since(t0), Duration::ZERO);
            c.barrier();
            let dt = c.comm_time_since(t0);
            assert_eq!(dt, c.comm_time().checked_sub(t0).unwrap());
        });
    }

    // The saturating fallback trips comm_time_since's debug_assert by
    // design, so it is only observable in release builds.
    #[cfg(not(debug_assertions))]
    #[test]
    fn comm_time_since_saturates_on_foreign_snapshot() {
        run_ranks(1, |c| {
            assert_eq!(
                c.comm_time_since(Duration::from_secs(1_000_000)),
                Duration::ZERO
            );
        });
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_ranks(4, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }
}
