//! Facade over the synchronization primitives the pool is built from.
//!
//! A normal build re-exports `std::sync` types unchanged — the facade
//! compiles away completely. Under `RUSTFLAGS="--cfg famg_model"` the same
//! names resolve to [`famg_model`]'s modeled types instead, so the pool's
//! real locking/parking/atomic code (not a copy of it) runs under the
//! bounded interleaving checker. Everything in [`crate::pool`] and the
//! scope machinery must route its mutexes, condvars, atomics, and worker
//! spawns through this module; `std::sync` imports elsewhere in those
//! files are a bug (and famg-analyze's site rules have no say here — the
//! model build itself stops compiling if a type leaks, because modeled and
//! std guards don't mix).

#[cfg(not(famg_model))]
pub(crate) use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(famg_model))]
pub(crate) use std::sync::{Condvar, Mutex};

#[cfg(famg_model)]
pub(crate) use famg_model::sync::atomic::{AtomicUsize, Ordering};
#[cfg(famg_model)]
pub(crate) use famg_model::sync::{Condvar, Mutex};

/// Handle to a spawned worker thread.
#[cfg(not(famg_model))]
pub(crate) type WorkerHandle = std::thread::JoinHandle<()>;
/// Handle to a spawned (modeled) worker thread.
#[cfg(famg_model)]
pub(crate) type WorkerHandle = famg_model::thread::JoinHandle<()>;

/// Spawns a worker thread. The name is used for real OS threads; the model
/// names threads by tid itself.
pub(crate) fn spawn_worker(name: String, f: impl FnOnce() + Send + 'static) -> WorkerHandle {
    #[cfg(not(famg_model))]
    {
        std::thread::Builder::new()
            .name(name)
            .spawn(f)
            .expect("failed to spawn famg-rayon worker thread")
    }
    #[cfg(famg_model)]
    {
        let _ = name;
        famg_model::thread::spawn(f)
    }
}
