//! Halo exchanges: vector-element gathering for SpMV (Fig. 3b) and
//! matrix-row gathering for SpGEMM-like operations (Fig. 3c).
//!
//! [`VectorExchange`] separates *planning* (who needs what — the paper's
//! persistent-communication setup, §4.4) from *execution*, so the
//! persistent path plans once per operator while the ad-hoc baseline
//! re-plans on every call. Planning records the actual send/recv neighbor
//! lists, and execution posts point-to-point messages only to ranks with
//! nonzero traffic: one halo exchange costs exactly one message per true
//! neighbor pair, never the P−1 envelopes per rank of an all-to-all.
//! [`gather_rows`] fetches remote matrix rows; the owner-side `serve`
//! callback decides which entries travel — the §4.3 optimization strips
//! the ones the interpolation will never read before they hit the wire.

use crate::comm::{wire, Comm, RecvHandle};
use crate::parcsr::owner_of;
use famg_sparse::lanes;
use famg_sparse::multivec::width;

/// Tags are namespaced per module to avoid collisions between concurrent
/// exchange phases.
const TAG_REQ: u64 = 0x10;
const TAG_VAL: u64 = 0x11;
const TAG_ROW_REQ: u64 = 0x20;
const TAG_ROW_DATA: u64 = 0x21;
const TAG_FETCH_REQ: u64 = 0x30;
const TAG_FETCH_VAL: u64 = 0x31;

/// A reusable plan for exchanging the vector elements behind a `colmap`.
///
/// Only true neighbors appear in the plan: `send_peers` lists the ranks
/// that request data from this rank (with the local indices to ship),
/// `recv_peers` the ranks owning parts of this rank's halo (with the
/// destination range in the external buffer). Self-owned halo entries
/// (possible under generic partitions) are resolved at plan time into
/// `self_copy`, so execution never searches for — or fails to find — a
/// matching self range.
#[derive(Debug, Clone)]
pub struct VectorExchange {
    /// `(peer rank, local indices to send)`, sorted by rank; never self.
    send_peers: Vec<(usize, Vec<usize>)>,
    /// `(peer rank, ext start, ext end)`, sorted by rank; never self.
    recv_peers: Vec<(usize, usize, usize)>,
    /// Self-owned halo entries: `(local indices, ext start)`.
    self_copy: Option<(Vec<usize>, usize)>,
    /// External buffer length (= colmap length).
    ext_len: usize,
}

/// A halo exchange whose sends are on the wire and whose receives are
/// posted but not yet waited for. Produced by [`VectorExchange::post`] /
/// [`VectorExchange::post_rows`]; the external buffer becomes available
/// through [`finish`](InFlightHalo::finish). While a halo is in flight the
/// caller is free to compute anything that does not read the external
/// buffer — the interior rows of an SpMV or smoother sweep — which is what
/// hides the communication latency.
pub struct InFlightHalo {
    /// External buffer, `k` lanes per planned index; self-owned entries
    /// already filled.
    ext: Vec<f64>,
    /// Block width: every envelope carries `k` values per planned index.
    k: usize,
    /// `(peer, ext start, ext end, handle)` per outstanding receive, in
    /// plan order; the ranges are in planned-index units.
    waits: Vec<(usize, usize, usize, RecvHandle<Vec<f64>>)>,
    /// When the sends went on the wire and the receives were posted — the
    /// moment a synchronous exchange would start blocking. `complete`
    /// compares message send times against this mark and its own entry
    /// mark to split the halo wait into hidden and exposed parts.
    posted_at: std::time::Instant,
    /// Keeps the `halo_inflight` / `halo_batch` span open until the
    /// receives complete, so the chrome trace shows the window that
    /// interior computation can hide under. `None` once completed.
    window: Option<famg_prof::Scope>,
}

impl VectorExchange {
    /// Plans the exchange for `colmap` under the ownership partition
    /// `starts`. Involves one neighbor-discovery collective plus one
    /// point-to-point request round (this is the setup cost that
    /// persistent communication amortizes).
    pub fn plan(comm: &Comm, colmap: &[usize], starts: &[usize]) -> VectorExchange {
        let recv_runs = owner_runs(colmap, starts);
        let requests: Vec<(usize, Vec<usize>)> = (recv_runs.iter())
            .map(|&(owner, s, e)| {
                (
                    owner,
                    colmap[s..e].iter().map(|&g| g - starts[owner]).collect(),
                )
            })
            .collect();
        // Tell each owner which of its locals we need (neighbors only).
        let incoming = comm.alltoallv(requests, TAG_REQ, |r| wire::idxs(r.len()));
        // Split out the self entry (if any) on both sides: the request we
        // made to ourselves comes straight back through the alltoallv, and
        // its indices pair with the self run of the colmap. Resolving the
        // pair here removes the per-exchange search (and its failure
        // path) from execution.
        let rank = comm.rank();
        let mut self_idx: Option<Vec<usize>> = None;
        let mut send_peers = Vec::with_capacity(incoming.len());
        for (peer, idx) in incoming {
            if peer == rank {
                self_idx = Some(idx);
            } else {
                send_peers.push((peer, idx));
            }
        }
        let mut self_copy: Option<(Vec<usize>, usize)> = None;
        let mut recv_peers = Vec::with_capacity(recv_runs.len());
        for (peer, s, e) in recv_runs {
            if peer == rank {
                let idx = self_idx
                    .take()
                    .expect("self halo run without matching self request");
                debug_assert_eq!(idx.len(), e - s);
                self_copy = Some((idx, s));
            } else {
                recv_peers.push((peer, s, e));
            }
        }
        debug_assert!(self_idx.is_none(), "self request without matching halo run");
        VectorExchange {
            send_peers,
            recv_peers,
            self_copy,
            ext_len: colmap.len(),
        }
    }

    /// Executes the exchange synchronously: gathers owned values from
    /// `x_local` into every requester's external buffer; returns this
    /// rank's external vector (parallel to its colmap). Posts exactly one
    /// message per neighbor with traffic. Equivalent to
    /// [`post_rows`](Self::post_rows) at `k = 1` immediately followed by
    /// [`finish`](InFlightHalo::finish) — the entire wait is exposed.
    pub fn exchange(&self, comm: &Comm, x_local: &[f64]) -> Vec<f64> {
        self.exchange_rows(comm, x_local, 1)
    }

    /// [`exchange`](Self::exchange) of a `k`-interleaved block: one
    /// envelope per neighbor carrying all `k` columns.
    pub fn exchange_rows(&self, comm: &Comm, xd: &[f64], k: usize) -> Vec<f64> {
        self.post_rows(comm, xd, k).finish(comm)
    }

    /// Starts the exchange of the `k`-interleaved block `(xd, k)`: fills
    /// self-owned entries, posts one send per requesting neighbor, and
    /// posts (non-blocking) receives for every owning neighbor. The caller
    /// may compute on local data while the halo is in flight, then call
    /// [`InFlightHalo::finish`] for the external buffer.
    ///
    /// Each neighbor receives exactly **one** message per exchange at any
    /// width — its envelope carries `k` values per planned index, laid out
    /// row-major like the block — which is the batched path's
    /// communication amortization: per right-hand side, halo messages
    /// cost 1/k of the solo solve (the per-message envelope/latency cost
    /// is what distributed SpMV is bound by at scale, §4.4). The returned
    /// external buffer is strided like the input: entry `e` of column `j`
    /// lives at `ext[e * k + j]`.
    ///
    /// All halo spans (`halo_inflight` — `halo_batch` when `k > 1` — /
    /// `halo_post` / `halo_wait`) inherit the enclosing kernel's Fig. 5
    /// bucket in `PhaseTimes::from_span` — they exist for the chrome trace
    /// and the comm-counter attribution, not as buckets of their own.
    // ALLOC: the external buffer is owned by the returned InFlightHalo
    // and each neighbor's packed values become that message's payload —
    // halo envelopes are allocated per exchange by design, mirroring
    // MPI send buffers.
    pub fn post_rows(&self, comm: &Comm, xd: &[f64], k: usize) -> InFlightHalo {
        let window = famg_prof::scope(if k == 1 {
            "halo_inflight"
        } else {
            "halo_batch"
        });
        let _post = famg_prof::scope("halo_post");
        // Packing is dispatched on the lane width: at `k = 1` a row copy
        // is a register move, not a `memcpy` call per element.
        fn pack<const K: usize>(idx: &[usize], xd: &[f64], k: usize, out: &mut [f64]) {
            let kk = width::<K>(k);
            for (o, &i) in out.chunks_exact_mut(kk).zip(idx) {
                o.copy_from_slice(&xd[i * kk..(i + 1) * kk]);
            }
        }
        let mut ext = vec![0.0f64; self.ext_len * k];
        if k != 0 {
            if let Some((idx, s)) = &self.self_copy {
                lanes!(k, pack(idx, xd, k, &mut ext[s * k..(s + idx.len()) * k]));
            }
            for (peer, idx) in &self.send_peers {
                let mut vals = vec![0.0f64; idx.len() * k];
                lanes!(k, pack(idx, xd, k, &mut vals));
                let b = wire::f64s(vals.len());
                comm.send(*peer, TAG_VAL, vals, b);
            }
        }
        let waits = self
            .recv_peers
            .iter()
            .map(|&(peer, s, e)| (peer, s, e, comm.irecv(peer, TAG_VAL)))
            .collect();
        InFlightHalo {
            ext,
            k,
            waits,
            posted_at: comm.clock_mark(),
            window: Some(window),
        }
    }

    /// External buffer length.
    pub fn ext_len(&self) -> usize {
        self.ext_len
    }

    /// Ranks this plan sends values to (one message each per exchange).
    pub fn send_peer_ranks(&self) -> Vec<usize> {
        self.send_peers.iter().map(|(r, _)| *r).collect()
    }
}

impl InFlightHalo {
    /// Waits for every posted receive, so that [`finish`](Self::finish)
    /// returns at once — what a synchronous kernel calls right after
    /// posting. A no-op the second time.
    ///
    /// The wait the exchange would have cost synchronously is how late
    /// the last message was relative to the post mark (rank skew; the
    /// in-process channel delivers the instant the peer sends). The part
    /// still outstanding when this is entered is *exposed*; the part
    /// that elapsed while the caller computed under the in-flight window
    /// is *hidden*. Both go on profiler counters (`halo_exposed_ns` /
    /// `halo_hidden_ns`) so the comm_volume bench can report how much of
    /// the halo wait the overlap hid. A synchronous exchange completes
    /// immediately, so its wait is (almost) entirely exposed.
    ///
    /// # Panics
    /// Panics with peer/tag/length diagnostics if a wire payload does not
    /// match the planned halo range times the block width (a malformed or
    /// mismatched plan).
    pub fn complete(&mut self, comm: &Comm) {
        let Some(window) = self.window.take() else {
            return;
        };
        let k = self.k;
        let entered = comm.clock_mark();
        let mut last_sent: Option<std::time::Instant> = None;
        {
            let _wait = famg_prof::scope("halo_wait");
            for (peer, s, e, handle) in self.waits.drain(..) {
                let (vals, sent_at): (Vec<f64>, _) = comm.wait_timed(handle);
                check_halo_payload(comm.rank(), peer, TAG_VAL, (e - s) * k, vals.len());
                self.ext[s * k..e * k].copy_from_slice(&vals);
                last_sent = Some(last_sent.map_or(sent_at, |m| m.max(sent_at)));
            }
        }
        if let Some(last) = last_sent {
            // `entered >= posted_at`, so exposed <= would_be; saturation
            // only papers over clock-resolution ties.
            let would_be = last.saturating_duration_since(self.posted_at);
            let exposed = last.saturating_duration_since(entered);
            famg_prof::counter("halo_exposed_ns", nanos(exposed));
            famg_prof::counter("halo_hidden_ns", nanos(would_be.saturating_sub(exposed)));
        }
        drop(window);
    }

    /// Completes the exchange and returns the external buffer (parallel
    /// to the plan's colmap, `k` lanes per entry).
    pub fn finish(mut self, comm: &Comm) -> Vec<f64> {
        self.complete(comm);
        self.ext
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Validates a received halo payload length against the planned range.
/// Unconditional (also in release): a short or long payload means the
/// sender executed a different plan, and overwriting the external buffer
/// with it would silently corrupt the solve — better to stop with the
/// routing information than to panic deep inside `copy_from_slice`.
fn check_halo_payload(rank: usize, peer: usize, tag: u64, expected: usize, got: usize) {
    // PANIC-FREE: deliberate release-mode guard — a mis-sized payload
    // means sender and receiver ran different plans; stopping with the
    // routing information beats silently corrupting the solve.
    assert!(
        expected == got,
        "rank {rank}: halo payload from rank {peer} (tag {tag:#x}) has {got} values, \
         expected {expected} — sender and receiver disagree on the exchange plan"
    );
}

/// Ad-hoc exchange: plans and executes in one call — the baseline the
/// paper replaces with persistent requests (§4.4 measures 1.7–1.8×).
pub fn exchange_adhoc(
    comm: &Comm,
    colmap: &[usize],
    starts: &[usize],
    x_local: &[f64],
) -> Vec<f64> {
    VectorExchange::plan(comm, colmap, starts).exchange(comm, x_local)
}

/// Splits the sorted global ids `ids` into one `(owner, start, end)` run per
/// owning rank: owners own contiguous ranges, so each one's ids are a
/// contiguous slice.
pub(crate) fn owner_runs(ids: &[usize], starts: &[usize]) -> Vec<(usize, usize, usize)> {
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    let mut runs = Vec::new();
    let mut k = 0usize;
    while k < ids.len() {
        let owner = owner_of(starts, ids[k]);
        let start = k;
        while k < ids.len() && ids[k] < starts[owner + 1] {
            k += 1;
        }
        runs.push((owner, start, k));
    }
    runs
}

/// Rows gathered from other ranks, with global column indices — the flat
/// `(row_nnz, cols, vals)` bundles as they came off the wire, concatenated
/// in request order.
#[derive(Debug, Clone)]
pub struct GatheredRows {
    /// Requested global row ids (sorted — mirrors the request list).
    pub rows: Vec<usize>,
    /// Row `k`'s entries are `cols`/`vals[rowptr[k]..rowptr[k + 1]]`.
    pub rowptr: Vec<usize>,
    /// Global column of every entry.
    pub cols: Vec<usize>,
    /// Value of every entry.
    pub vals: Vec<f64>,
}

impl GatheredRows {
    /// The `k`-th gathered row (the row of global id `rows[k]`).
    pub fn row(&self, k: usize) -> (&[usize], &[f64]) {
        let r = self.rowptr[k]..self.rowptr[k + 1];
        (&self.cols[r.clone()], &self.vals[r])
    }
}

/// Serialized row bundle travelling between ranks.
type RowBundle = (Vec<usize>, Vec<usize>, Vec<f64>); // row_nnz, cols, vals

/// Gathers the rows with the sorted global ids `needed` from their owners.
/// `serve(local_row, requester, emit)` runs on the owner and calls
/// `emit(global_col, value)` for every entry that is to travel — all of
/// them for a full row, fewer under the §4.3 filter. Requests and replies
/// travel only between true neighbor pairs.
pub fn gather_rows(
    comm: &Comm,
    needed: &[usize],
    row_starts: &[usize],
    serve: impl Fn(usize, usize, &mut dyn FnMut(usize, f64)),
) -> GatheredRows {
    let rank = comm.rank();
    let runs = owner_runs(needed, row_starts);
    let requests: Vec<(usize, Vec<usize>)> = runs
        .iter()
        .map(|&(owner, s, e)| (owner, needed[s..e].to_vec()))
        .collect();
    let my_start = row_starts[rank];
    let serves: Vec<(usize, Vec<usize>)> = comm
        .alltoallv(requests, TAG_ROW_REQ, |r| wire::idxs(r.len()))
        .into_iter()
        .map(|(req, rows)| (req, rows.iter().map(|&g| g - my_start).collect()))
        .collect();
    // Serve: one bundle per requester, sent point-to-point.
    let mut self_bundle: Option<RowBundle> = None;
    for (requester, rows) in &serves {
        let mut row_nnz = Vec::with_capacity(rows.len());
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for &li in rows {
            let before = cols.len();
            serve(li, *requester, &mut |c, v| {
                cols.push(c);
                vals.push(v);
            });
            row_nnz.push(cols.len() - before);
        }
        let bundle = (row_nnz, cols, vals);
        if *requester == rank {
            self_bundle = Some(bundle);
        } else {
            let b = wire::idxs(bundle.0.len())
                + wire::idxs(bundle.1.len())
                + wire::f64s(bundle.2.len());
            comm.send(*requester, TAG_ROW_DATA, bundle, b);
        }
    }
    // Receive per-owner bundles in run order; rows arrive in request
    // order, i.e. aligned with `needed`.
    let mut got = GatheredRows {
        rows: needed.to_vec(),
        rowptr: Vec::with_capacity(needed.len() + 1),
        cols: Vec::new(),
        vals: Vec::new(),
    };
    got.rowptr.push(0);
    for &(owner, s, e) in &runs {
        let (counts, cols, vals): RowBundle = if owner == rank {
            self_bundle.take().expect("missing self bundle")
        } else {
            comm.recv(owner, TAG_ROW_DATA)
        };
        debug_assert_eq!(counts.len(), e - s);
        for &n in &counts {
            got.rowptr.push(got.rowptr.last().expect("starts at 0") + n);
        }
        got.cols.extend(cols);
        got.vals.extend(vals);
    }
    got
}

/// Fetches one `f64` per global index from the owning ranks:
/// `local_value(local_idx)` provides the owner-side values. Used to look
/// up C/F state and coarse numbering for extended halos. `needed` may be
/// unsorted and contain duplicates; traffic flows only between true
/// neighbor pairs.
pub fn fetch_values(
    comm: &Comm,
    needed: &[usize],
    starts: &[usize],
    local_value: impl Fn(usize) -> f64,
) -> Vec<f64> {
    let rank = comm.rank();
    let nranks = comm.size();
    let mut requests: Vec<Vec<usize>> = vec![Vec::new(); nranks];
    for &g in needed {
        requests[owner_of(starts, g)].push(g);
    }
    let owners: Vec<usize> = (0..nranks).filter(|&r| !requests[r].is_empty()).collect();
    let sends: Vec<(usize, Vec<usize>)> = owners
        .iter()
        .map(|&r| (r, std::mem::take(&mut requests[r])))
        .collect();
    let incoming = comm.alltoallv(sends, TAG_FETCH_REQ, |r| wire::idxs(r.len()));
    // Serve each requester point-to-point.
    let my_start = starts[rank];
    let mut self_reply: Option<Vec<f64>> = None;
    for (requester, rows) in &incoming {
        let reply: Vec<f64> = rows.iter().map(|&g| local_value(g - my_start)).collect();
        if *requester == rank {
            self_reply = Some(reply);
        } else {
            let b = wire::f64s(reply.len());
            comm.send(*requester, TAG_FETCH_VAL, reply, b);
        }
    }
    let mut responses: Vec<Vec<f64>> = vec![Vec::new(); nranks];
    for &owner in &owners {
        responses[owner] = if owner == rank {
            self_reply.take().expect("missing self reply")
        } else {
            comm.recv(owner, TAG_FETCH_VAL)
        };
    }
    // Reassemble in `needed` order (per-owner replies keep request order).
    let mut cursor = vec![0usize; nranks];
    needed
        .iter()
        .map(|&g| {
            let owner = owner_of(starts, g);
            let v = responses[owner][cursor[owner]];
            cursor[owner] += 1;
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use crate::parcsr::{default_partition, ParCsr};
    use famg_matgen::laplace2d;
    use famg_sparse::MultiVec;

    #[test]
    fn vector_exchange_gathers_correct_elements() {
        let a = laplace2d(8, 8);
        let starts = default_partition(64, 4);
        let (results, _) = run_ranks(4, |c| {
            let r = c.rank();
            let p = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            // x[global i] = 100 + i
            let x_local: Vec<f64> = (starts[r]..starts[r + 1])
                .map(|i| 100.0 + i as f64)
                .collect();
            let plan = VectorExchange::plan(c, &p.colmap, &starts);
            let ext = plan.exchange(c, &x_local);
            (p.colmap.clone(), ext)
        });
        for (colmap, ext) in results {
            for (k, &g) in colmap.iter().enumerate() {
                assert_eq!(ext[k], 100.0 + g as f64);
            }
        }
    }

    #[test]
    fn adhoc_matches_persistent() {
        let a = laplace2d(6, 6);
        let starts = default_partition(36, 3);
        let (results, _) = run_ranks(3, |c| {
            let r = c.rank();
            let p = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            let x_local: Vec<f64> = (starts[r]..starts[r + 1]).map(|i| i as f64 * 0.5).collect();
            let plan = VectorExchange::plan(c, &p.colmap, &starts);
            let e1 = plan.exchange(c, &x_local);
            let e2 = exchange_adhoc(c, &p.colmap, &starts, &x_local);
            (e1, e2)
        });
        for (e1, e2) in results {
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn persistent_fewer_bytes_than_adhoc() {
        let a = laplace2d(16, 16);
        let starts = default_partition(256, 4);
        let exchanges = 10;
        let run = |persistent: bool| {
            let (_, report) = run_ranks(4, |c| {
                let r = c.rank();
                let p = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
                let x: Vec<f64> = vec![1.0; starts[r + 1] - starts[r]];
                if persistent {
                    let plan = VectorExchange::plan(c, &p.colmap, &starts);
                    for _ in 0..exchanges {
                        plan.exchange(c, &x);
                    }
                } else {
                    for _ in 0..exchanges {
                        exchange_adhoc(c, &p.colmap, &starts, &x);
                    }
                }
            });
            report.total_bytes()
        };
        let persistent = run(true);
        let adhoc = run(false);
        assert!(
            persistent < adhoc,
            "persistent {persistent} >= adhoc {adhoc}"
        );
    }

    #[test]
    fn exchange_messages_equal_neighbor_count() {
        // A slab-partitioned 2D Laplacian: interior ranks have exactly two
        // neighbors, boundary ranks one. One exchange must post exactly
        // one message per neighbor — no empty envelopes to distant ranks.
        let a = laplace2d(8, 8);
        let starts = default_partition(64, 4);
        let (per_rank, _) = run_ranks(4, |c| {
            let r = c.rank();
            let p = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            let x: Vec<f64> = vec![1.0; starts[r + 1] - starts[r]];
            let plan = VectorExchange::plan(c, &p.colmap, &starts);
            let before = c.messages_sent();
            plan.exchange(c, &x);
            (c.messages_sent() - before, plan.send_peer_ranks().len())
        });
        for (r, &(sent, peers)) in per_rank.iter().enumerate() {
            assert_eq!(sent as usize, peers, "rank {r}");
            let expect = usize::from(r > 0) + usize::from(r < 3);
            assert_eq!(peers, expect, "rank {r} neighbor count");
        }
    }

    #[test]
    fn self_owned_halo_resolved_at_plan_time() {
        // A colmap that includes globals this rank itself owns (generic
        // partitions produce these): the self range must be paired at
        // plan time and the exchange must fill it by local copy, with no
        // message posted for it.
        let starts = vec![0usize, 4, 8];
        let (results, report) = run_ranks(2, |c| {
            let r = c.rank();
            // Rank 0 needs its own global 1 plus remote 4; rank 1 needs
            // remote 0 plus its own global 5.
            let colmap: Vec<usize> = if r == 0 { vec![1, 4] } else { vec![0, 5] };
            let plan = VectorExchange::plan(c, &colmap, &starts);
            // Self never appears as a wire peer.
            assert!(!plan.send_peer_ranks().contains(&r));
            let x_local: Vec<f64> = (0..4).map(|i| (10 * r + i) as f64).collect();
            plan.exchange(c, &x_local)
        });
        assert_eq!(results[0], vec![1.0, 10.0]); // own x[1], rank 1's x[0]
        assert_eq!(results[1], vec![0.0, 11.0]); // rank 0's x[0], own x[1]
                                                 // One wire message each way for the remote entry; self copies are
                                                 // free.
        assert_eq!(report.total_messages(), 2 + 2); // 2 halo + 2 plan requests
    }

    /// Overlapped post/finish is bitwise identical to the synchronous
    /// exchange, for a plain vector and for a 4-wide block.
    #[test]
    fn post_finish_matches_exchange_bitwise() {
        let a = laplace2d(8, 8);
        let starts = default_partition(64, 4);
        for k in [1usize, 4] {
            let (results, _) = run_ranks(4, |c| {
                let r = c.rank();
                let p = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
                let x: Vec<f64> = (starts[r] * k..starts[r + 1] * k)
                    .map(|i| 1.0 / (i + 1) as f64)
                    .collect();
                let plan = VectorExchange::plan(c, &p.colmap, &starts);
                let sync = plan.exchange_rows(c, &x, k);
                let inflight = plan.post_rows(c, &x, k);
                // Arbitrary local work while the halo is in flight.
                let _busy: f64 = x.iter().sum();
                let over = inflight.finish(c);
                (sync, over)
            });
            for (sync, over) in results {
                let sb: Vec<u64> = sync.iter().map(|v| v.to_bits()).collect();
                let ob: Vec<u64> = over.iter().map(|v| v.to_bits()).collect();
                assert_eq!(sb, ob, "k {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "disagree on the exchange plan")]
    fn payload_length_mismatch_reports_routing() {
        check_halo_payload(0, 1, TAG_VAL, 3, 2);
    }

    /// The batched exchange posts exactly as many messages as a scalar
    /// exchange (the width rides inside the envelopes) and every column
    /// of the strided external buffer is bitwise identical to a scalar
    /// exchange of that column, including the self-copy path.
    #[test]
    fn multi_exchange_matches_scalar_columns_same_message_count() {
        let a = laplace2d(8, 8);
        let starts = default_partition(64, 4);
        for k in [1usize, 2, 3, 4, 8, 9] {
            let (per_rank, _) = run_ranks(4, |c| {
                let r = c.rank();
                let p = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
                let nl = starts[r + 1] - starts[r];
                let plan = VectorExchange::plan(c, &p.colmap, &starts);
                let cols: Vec<Vec<f64>> = (0..k)
                    .map(|j| {
                        (0..nl)
                            .map(|i| 1.0 / (starts[r] + i + j + 1) as f64)
                            .collect()
                    })
                    .collect();
                let x = MultiVec::from_columns(&cols);
                let before = c.messages_sent();
                let ext = plan.exchange_rows(c, x.data(), k);
                let multi_msgs = c.messages_sent() - before;
                let before = c.messages_sent();
                let exts: Vec<Vec<f64>> = cols.iter().map(|col| plan.exchange(c, col)).collect();
                let scalar_msgs = (c.messages_sent() - before) / k as u64;
                (ext, exts, multi_msgs, scalar_msgs, p.colmap.clone())
            });
            for (rank, (ext, exts, multi_msgs, scalar_msgs, colmap)) in per_rank.iter().enumerate()
            {
                assert_eq!(multi_msgs, scalar_msgs, "k {k} rank {rank} message count");
                for (j, se) in exts.iter().enumerate() {
                    for (e, &v) in se.iter().enumerate() {
                        // The owner's value, straight from the global index.
                        let owned = 1.0 / (colmap[e] + j + 1) as f64;
                        assert_eq!(v.to_bits(), owned.to_bits());
                        assert_eq!(
                            ext[e * k + j].to_bits(),
                            owned.to_bits(),
                            "k {k} rank {rank} col {j} entry {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_gather_full_rows() {
        let a = laplace2d(8, 8);
        let starts = default_partition(64, 4);
        let (results, _) = run_ranks(4, |c| {
            let r = c.rank();
            let p = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            let needed = p.colmap.clone();
            let g = gather_rows(c, &needed, &starts, |li, _, emit| {
                p.visit_global_row(li, r, emit);
            });
            (needed, g)
        });
        for (needed, g) in results {
            assert_eq!(g.rows, needed);
            for (k, &row) in needed.iter().enumerate() {
                let (cols, vals) = g.row(k);
                let got: Vec<(usize, f64)> =
                    cols.iter().copied().zip(vals.iter().copied()).collect();
                let expect: Vec<(usize, f64)> = a.row_iter(row).collect();
                assert_eq!(got, expect, "row {row}");
            }
        }
    }

    #[test]
    fn row_gather_filter_reduces_bytes() {
        let a = laplace2d(12, 12);
        let starts = default_partition(144, 4);
        let run = |filtered: bool| {
            let (_, report) = run_ranks(4, |c| {
                let r = c.rank();
                let p = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
                let needed = p.colmap.clone();
                // Filtered: keep only negative entries (sign filter of §4.3).
                gather_rows(c, &needed, &starts, |li, _, emit| {
                    p.visit_global_row(li, r, |g, v| {
                        if !filtered || v < 0.0 {
                            emit(g, v);
                        }
                    });
                });
            });
            report.total_bytes()
        };
        let full = run(false);
        let filtered = run(true);
        assert!(
            filtered < full,
            "filter did not reduce bytes: {filtered} vs {full}"
        );
    }

    #[test]
    fn gather_rows_empty_request_participates() {
        // A rank with nothing to request must still serve others.
        let a = laplace2d(6, 6);
        let starts = default_partition(36, 3);
        let (results, _) = run_ranks(3, |c| {
            let r = c.rank();
            let p = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            let needed: Vec<usize> = if r == 1 { Vec::new() } else { p.colmap.clone() };
            let g = gather_rows(c, &needed, &starts, |li, _, emit| {
                p.visit_global_row(li, r, emit);
            });
            g.rows.len()
        });
        assert_eq!(results[1], 0);
        assert!(results[0] > 0 && results[2] > 0);
    }

    #[test]
    fn fetch_values_with_duplicates() {
        let starts = default_partition(12, 3);
        let (results, _) = run_ranks(3, |c| {
            let needed = vec![5, 5, 1, 5]; // duplicates allowed
            fetch_values(c, &needed, &starts, |li| li as f64 * 10.0)
        });
        for vals in results {
            // global 5 is local 1 on rank 1 -> 10.0; global 1 local 1 on
            // rank 0 -> 10.0.
            assert_eq!(vals, vec![10.0, 10.0, 10.0, 10.0]);
        }
    }

    #[test]
    fn fetch_values_roundtrip() {
        let starts = default_partition(40, 4);
        let (results, _) = run_ranks(4, |c| {
            let r = c.rank();
            // Every rank asks for values scattered across all ranks.
            let needed: Vec<usize> = (0..40).step_by(r + 2).collect();
            let vals = fetch_values(c, &needed, &starts, |li| (starts[r] + li) as f64 * 3.0);
            (needed, vals)
        });
        for (needed, vals) in results {
            for (g, v) in needed.iter().zip(&vals) {
                assert_eq!(*v, *g as f64 * 3.0);
            }
        }
    }
}
