//! The HEVM worker pool: host-thread parallelism for the gateway's
//! execute phase.
//!
//! [`run_tasks`] fans a round's prepared tasks out to N workers over
//! bounded channels and returns the finished tasks **in dispatch
//! order**, regardless of which worker finished first. Each worker
//! runs [`execute_detached`](crate::service::execute_detached) — a
//! pure function of the bundle, the task and a read-only [`ExecCtx`] —
//! against a private virtual clock, so the results are byte-identical
//! for any worker count; only host wall-clock time changes.
//!
//! Threads come from [`std::thread::scope`], which lets workers borrow
//! the context without `'static` bounds and joins them before the
//! function returns — no runtime, no new dependencies.

use std::sync::mpsc;

use crate::service::{execute_detached, Bundle, ExecCtx, FinishedTask, PreparedTask};

/// Per-worker task-channel depth. Small and bounded per the design:
/// the feeder blocks rather than letting one worker hoard the round.
const WORKER_QUEUE_DEPTH: usize = 2;

/// Executes `tasks` on up to `workers` host threads and returns the
/// results reindexed to dispatch order.
///
/// With `workers <= 1` (or a round of at most one task) everything
/// runs inline on the caller's thread — same code path as the pool
/// minus the threads, which is what makes the 1-vs-N digest
/// comparison meaningful.
pub(crate) fn run_tasks<'b>(
    workers: usize,
    ctx: &ExecCtx<'_>,
    tasks: impl ExactSizeIterator<Item = (&'b Bundle, PreparedTask)>,
) -> Vec<FinishedTask> {
    if workers <= 1 || tasks.len() <= 1 {
        return tasks.map(|(bundle, task)| execute_detached(ctx, bundle, task)).collect();
    }
    let n = workers.min(tasks.len());
    let total = tasks.len();
    let mut slots: Vec<Option<FinishedTask>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<(usize, FinishedTask)>();
        let mut feeders = Vec::with_capacity(n);
        for _ in 0..n {
            let (task_tx, task_rx) =
                mpsc::sync_channel::<(usize, &Bundle, PreparedTask)>(WORKER_QUEUE_DEPTH);
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                while let Ok((index, bundle, task)) = task_rx.recv() {
                    // The receiver outlives the workers; a send can
                    // only fail if the collector below panicked, and
                    // then the scope propagates that panic anyway.
                    let _ = done_tx.send((index, execute_detached(ctx, bundle, task)));
                }
            });
            feeders.push(task_tx);
        }
        drop(done_tx);
        // Round-robin dispatch: task i goes to worker i % n. The
        // assignment affects only which host thread does the work —
        // results are reindexed below — but keeping it deterministic
        // makes host-side profiles reproducible too.
        for (index, (bundle, task)) in tasks.enumerate() {
            feeders[index % n]
                .send((index, bundle, task))
                .expect("worker thread exited before its queue closed");
        }
        drop(feeders);
        for (index, finished) in done_rx {
            slots[index] = Some(finished);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every dispatched task reports a result"))
        .collect()
}
