//! Scoped-thread data-parallel helpers built on [`std::thread::scope`].
//!
//! The RustFI stack uses plain data parallelism in two places:
//! fault-injection campaigns fan independent trials across worker threads
//! ([`map_indexed`]), and large matrix multiplies and convolutions split
//! their output rows or batch elements ([`for_each_chunk_mut`]). Both go
//! through the helpers here, so thread management, and the decision whether
//! to fork at all, lives in exactly one module.
//!
//! # One level of parallelism
//!
//! A thread is *marked* while it runs a share of a helper's work: every
//! [`map_indexed`] task, its one-worker inline path included, and every
//! chunk thread that [`for_each_chunk_mut`] spawns. A helper called on a
//! marked thread runs all of its work inline on that thread. So a campaign's
//! trial workers own the cores it is given, and the kernels inside a worker
//! never fork. Outside any task, a split forks only when its work reaches
//! [`FORK_MACS`]. Its inline path leaves the caller unmarked, so a batch-1
//! convolution outside a campaign can still split its GEMM rows. The split
//! never changes results: every helper hands each item to exactly one call,
//! and the kernels compute each output element the same way in any chunk.
//!
//! The [`shield`] submodule is the campaign-resilience primitive: it runs a
//! closure under [`std::panic::catch_unwind`] while suppressing the global
//! panic hook's stderr spew for that thread, so a deliberately isolated
//! panicking trial neither kills the worker nor floods the terminal.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::LocalKey;

/// Work, in multiply-accumulates, from which a split outside any task forks;
/// smaller splits run on the calling thread.
pub const FORK_MACS: usize = 1 << 20;

thread_local! {
    /// Set while this thread runs a share of a helper's work.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread's `flag` set, then restores the flag's previous
/// value, also on unwind.
fn with_flag<R>(flag: &'static LocalKey<Cell<bool>>, f: impl FnOnce() -> R) -> R {
    struct Restore(&'static LocalKey<Cell<bool>>, bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            self.0.set(self.1);
        }
    }
    let _restore = Restore(flag, flag.replace(true));
    f()
}

/// Threads a helper may use for `units` independent units of work: one on a
/// marked thread, else up to [`worker_count`].
fn fork_width(units: usize) -> usize {
    if IN_TASK.get() {
        1
    } else {
        worker_count().min(units)
    }
}

/// Number of worker threads to use (cached; at least 1).
pub fn worker_count() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Splits `out` into contiguous chunks of whole items, `item_width`
/// elements each, and runs `f(first_item_index, items_in_chunk, chunk)` on
/// every chunk.
///
/// `macs` is the work of the whole call. The chunks run on threads of their
/// own only when the caller is outside any task (see the
/// [module docs](self)), `macs` reaches [`FORK_MACS`], and both items and
/// workers number at least two. Otherwise `f` runs once, inline, over all
/// items.
///
/// # Panics
///
/// Panics if `item_width == 0` or `out.len()` is not a multiple of it, or if
/// `f` panics.
pub fn for_each_chunk_mut<F>(out: &mut [f32], item_width: usize, macs: usize, f: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    for_each_chunk_mut_aligned(out, item_width, 1, macs, f);
}

/// Like [`for_each_chunk_mut`], but rounds each chunk's item count up to a
/// multiple of `align`, so every chunk *starts* on an `align`-item boundary.
/// Tiled kernels (packed GEMM panels) use this so workers always begin on a
/// panel edge.
///
/// # Panics
///
/// Panics if `item_width == 0` or `align == 0`, if `out.len()` is not a
/// multiple of `item_width`, or if `f` panics.
pub fn for_each_chunk_mut_aligned<F>(
    out: &mut [f32],
    item_width: usize,
    align: usize,
    macs: usize,
    f: F,
) where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    assert!(item_width > 0, "item_width must be positive");
    assert!(align > 0, "align must be positive");
    assert_eq!(
        out.len() % item_width,
        0,
        "output length {} is not a multiple of item width {}",
        out.len(),
        item_width
    );
    let items = out.len() / item_width;
    if items == 0 {
        return;
    }
    let workers = if macs >= FORK_MACS {
        fork_width(items.div_ceil(align))
    } else {
        1
    };
    if workers <= 1 {
        f(0, items, out);
        return;
    }
    let per = items.div_ceil(workers).div_ceil(align) * align;
    std::thread::scope(|scope| {
        let f = &f;
        for (i, chunk) in out.chunks_mut(per * item_width).enumerate() {
            let items = chunk.len() / item_width;
            scope.spawn(move || with_flag(&IN_TASK, || f(i * per, items, chunk)));
        }
    });
}

/// Runs `f(i)` for every `i in 0..n` across worker threads and collects the
/// results in order.
///
/// Every call of `f` runs as a task (see the [module docs](self)), on a
/// spawned worker or, with one worker, inline on the caller's thread, which
/// is unmarked again once this returns. Work is distributed by index
/// striding through an atomic counter, so uneven per-item cost still
/// balances. Results are returned in input order.
///
/// # Panics
///
/// Panics if `f` panics.
pub fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = fork_width(n);
    if workers <= 1 {
        return with_flag(&IN_TASK, || (0..n).map(f).collect());
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let counter = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let fref = &f;
                let cref = &counter;
                scope.spawn(move || {
                    with_flag(&IN_TASK, || {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = cref.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, fref(i)));
                        }
                        local
                    })
                })
            })
            .collect();
        for handle in handles {
            for (i, v) in handle.join().expect("parallel worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("worker skipped an index"))
        .collect()
}

/// Panic containment for fault-injection trials.
///
/// A fault-injection campaign deliberately drives models into pathological
/// states; a trial that panics (an index assert tripped by an extreme
/// perturbation, an interrupt raised by a guard hook) must be *recorded*,
/// not allowed to kill the worker thread — and must not spray a backtrace
/// for every isolated trial.
pub mod shield {
    use std::any::Any;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Once;

    thread_local! {
        static SHIELDED: Cell<bool> = const { Cell::new(false) };
    }

    /// Installs (once, process-wide) a panic hook that stays silent on
    /// threads currently inside [`run_quietly`] and delegates to the
    /// previously installed hook everywhere else.
    fn install_quiet_hook() {
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !SHIELDED.with(Cell::get) {
                    prev(info);
                }
            }));
        });
    }

    /// Runs `f`, catching any panic it raises. While `f` runs, panics on
    /// this thread do not reach the panic hook's default stderr output;
    /// other threads are unaffected. Nested calls are safe.
    pub fn run_quietly<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
        install_quiet_hook();
        super::with_flag(&SHIELDED, || catch_unwind(AssertUnwindSafe(f)))
    }

    /// Best-effort human-readable message from a caught panic payload.
    pub fn payload_message(payload: &(dyn Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            String::from("non-string panic payload")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn catches_and_describes_panics() {
            let caught = run_quietly(|| panic!("boom {}", 42)).unwrap_err();
            assert_eq!(payload_message(caught.as_ref()), "boom 42");
            let caught = run_quietly(|| std::panic::panic_any(7u32)).unwrap_err();
            assert_eq!(payload_message(caught.as_ref()), "non-string panic payload");
        }

        #[test]
        fn passes_values_through_on_success() {
            assert_eq!(run_quietly(|| 1 + 1).unwrap(), 2);
        }

        #[test]
        fn shield_flag_restores_after_nesting() {
            let outer = run_quietly(|| {
                let inner = run_quietly(|| panic!("inner"));
                assert!(inner.is_err());
                // Still shielded after the nested call returns.
                SHIELDED.with(Cell::get)
            });
            assert!(outer.unwrap());
            assert!(
                !SHIELDED.with(Cell::get),
                "flag cleared after outermost call"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn chunked_fill_covers_everything() {
        for align in [1, 4] {
            let mut out = vec![0.0f32; 37 * 5];
            for_each_chunk_mut_aligned(&mut out, 5, align, FORK_MACS, |start, items, slab| {
                assert_eq!(start % align, 0, "chunk starts off a boundary");
                assert_eq!(slab.len(), items * 5);
                for (i, v) in slab.iter_mut().enumerate() {
                    *v = (start + i / 5) as f32;
                }
            });
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, (i / 5) as f32, "align {align}");
            }
        }
    }

    #[test]
    fn chunked_handles_empty() {
        let mut out: Vec<f32> = Vec::new();
        for_each_chunk_mut(&mut out, 4, FORK_MACS, |_, _, _| panic!("should not run"));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn chunked_rejects_misaligned_width() {
        let mut out = vec![0.0f32; 7];
        for_each_chunk_mut(&mut out, 2, 0, |_, _, _| {});
    }

    /// The threads that ran each chunk of an 8-item split with work `macs`.
    fn chunk_threads(macs: usize) -> Vec<ThreadId> {
        let ids = Mutex::new(Vec::new());
        for_each_chunk_mut(&mut [0.0; 8], 1, macs, |_, _, _| {
            ids.lock().unwrap().push(thread::current().id());
        });
        ids.into_inner().unwrap()
    }

    /// Whether a split above the threshold, made here, runs as one inline
    /// call on this thread.
    fn split_runs_inline() -> bool {
        chunk_threads(FORK_MACS) == [thread::current().id()]
    }

    /// Whether a split above the threshold, made here, forks: with more than
    /// one worker, into at least two chunks, none of them on this thread.
    fn split_forks() -> bool {
        if worker_count() == 1 {
            return split_runs_inline();
        }
        let ids = chunk_threads(FORK_MACS);
        ids.len() >= 2 && !ids.contains(&thread::current().id())
    }

    #[test]
    fn splits_inside_a_task_run_on_the_tasks_own_thread() {
        // One worker runs its task inline on the caller's thread, several
        // run theirs on spawned threads, and a nested call runs inline.
        assert_eq!(map_indexed(1, |_| split_runs_inline()), [true]);
        let spawned = map_indexed(worker_count().max(2), |_| split_runs_inline());
        assert!(spawned.iter().all(|&inline| inline), "{spawned:?}");
        let nested = map_indexed(2, |_| {
            let task = thread::current().id();
            map_indexed(3, |_| thread::current().id() == task && split_runs_inline())
        });
        assert!(nested.concat().iter().all(|&inline| inline), "{nested:?}");
    }

    #[test]
    fn splits_inside_a_chunk_thread_run_inline() {
        let inner = Mutex::new(Vec::new());
        for_each_chunk_mut(&mut [0.0; 8], 1, FORK_MACS, |_, _, _| {
            inner.lock().unwrap().push(split_runs_inline());
        });
        let inner = inner.into_inner().unwrap();
        assert!(inner.iter().all(|&inline| inline), "{inner:?}");
    }

    #[test]
    fn splits_outside_any_task_fork_when_there_are_cores() {
        assert!(split_forks());
        // Below the threshold a split runs inline and leaves the caller
        // unmarked, so a split inside it may still fork.
        assert_eq!(chunk_threads(FORK_MACS - 1), [thread::current().id()]);
        let inner = Mutex::new(Vec::new());
        for_each_chunk_mut(&mut [0.0; 8], 1, 0, |_, _, _| {
            inner.lock().unwrap().push(split_forks());
        });
        assert_eq!(inner.into_inner().unwrap(), [true]);
    }

    #[test]
    fn map_indexed_unmarks_its_caller_on_return() {
        assert_eq!(map_indexed(1, |_| split_runs_inline()), [true]);
        assert!(split_forks(), "caller still marked");
        // Also when the task panics.
        assert!(shield::run_quietly(|| map_indexed(1, |_| panic!("trial"))).is_err());
        assert!(split_forks(), "caller still marked after unwind");
    }

    #[test]
    fn map_indexed_preserves_order() {
        let v = map_indexed(100, |i| i * i);
        assert_eq!(v.len(), 100);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn map_indexed_empty() {
        let v: Vec<usize> = map_indexed(0, |i| i);
        assert!(v.is_empty());
    }

    #[test]
    fn map_indexed_single() {
        assert_eq!(map_indexed(1, |i| i + 41), vec![41]);
    }
}
