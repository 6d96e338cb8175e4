//! The image writer: one thread per durable server that writes the
//! checkpoint images pool workers cut and runs the compaction passes, so
//! neither sits between a batch's log commit and its acknowledgements.
//!
//! A worker cuts an image on its own thread — runs copied from its
//! machine's committed image, the host counters and the trimmed applied
//! set, O(changed blocks) for a delta — and hands it over as a [`Job`].
//! The writer encodes it, writes it under the durability config's fsync
//! rule and, after a full image, runs one compaction pass; then it counts
//! the image. Three rules keep the cadence's contract:
//!
//! * **One image in flight per worker.** [`ImageWriter::settle`] blocks
//!   until that worker's previous image is written and counted, and a
//!   worker settles before it cuts the next. It learns there whether the
//!   write succeeded: a delta chains only onto a generation that reached
//!   disk, and a failed write makes the next cut a full image.
//! * **Passes run one at a time, here.** A pass holds the log mutex only
//!   to rotate, then reads, judges and deletes sealed segments while
//!   appends continue ([`fol_persist::Compactor::compact_below`]). Its
//!   report's log floor is published for the workers' applied sets.
//! * **A respawn reads a quiet directory.** [`ImageWriter::hold`] waits
//!   until the writer is idle and keeps it idle while the durable respawn
//!   plans and reads the log, so no pass deletes a file under the planner.
//!
//! [`crate::Server::shutdown`] drains the queue and joins the thread, so a
//! clean shutdown leaves every handed-off generation on disk.

use crate::durability::{classify_record, worker_prefix, REQUEST_LOG_PREFIX};
use crate::queue::Shared;
use crate::DurabilityConfig;
use fol_persist::{Checkpoint, Compactor, DeltaCheckpoint, FsyncPolicy, Image, ImageKind};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// An image a worker cut, ready to encode and write.
pub(crate) enum Cut {
    /// A full image; a compaction pass follows its write.
    Full(Checkpoint),
    /// A delta chained onto the worker's newest written generation.
    Delta(DeltaCheckpoint),
}

/// One hand-off: which worker's generation, and the image.
pub(crate) struct Job {
    pub(crate) worker: usize,
    pub(crate) cut: Cut,
}

struct State {
    queue: VecDeque<Job>,
    /// Per worker: `None` while its image is queued or being written,
    /// then whether it reached disk.
    written: Vec<Option<bool>>,
    /// A job is being written or compacted.
    busy: bool,
    /// Respawns holding the writer idle.
    holds: usize,
    shutdown: bool,
}

/// The writer's queue and the per-worker hand-off state. Lives in
/// [`Shared`]; [`ImageWriter::run`] is the thread's body.
pub(crate) struct ImageWriter {
    dir: PathBuf,
    /// Whether images are fsynced. Only [`FsyncPolicy::Always`] pays for
    /// it: at the weaker tiers the write-ahead log is the source of truth,
    /// so a power-loss-torn image is a typed refusal with fallback, not
    /// lost data. Compaction fsyncs its boundary images itself before
    /// deleting the log coverage they replace.
    sync: bool,
    /// Newest loadable full images compaction retains per worker.
    keep: usize,
    workers: usize,
    state: Mutex<State>,
    cv: Condvar,
}

/// Keeps the writer idle until dropped; see [`ImageWriter::hold`].
pub(crate) struct Hold<'a>(&'a ImageWriter);

impl Drop for Hold<'_> {
    fn drop(&mut self) {
        self.0.lock().holds -= 1;
        self.0.cv.notify_all();
    }
}

impl ImageWriter {
    pub(crate) fn new(d: &DurabilityConfig, workers: usize) -> Self {
        ImageWriter {
            dir: d.dir.clone(),
            sync: d.fsync == FsyncPolicy::Always,
            keep: d.keep_full_images.max(1),
            workers,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                written: vec![Some(true); workers],
                busy: false,
                holds: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until `worker`'s previous image is written and counted, and
    /// returns whether it reached disk (`true` when none was handed off).
    pub(crate) fn settle(&self, worker: usize) -> bool {
        let mut st = self.lock();
        loop {
            if let Some(ok) = st.written[worker] {
                return ok;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Queues `job`. The worker must have settled its previous image.
    pub(crate) fn hand_off(&self, job: Job) {
        let mut st = self.lock();
        debug_assert!(
            st.written[job.worker].is_some(),
            "one image in flight per worker"
        );
        st.written[job.worker] = None;
        st.queue.push_back(job);
        self.cv.notify_all();
    }

    /// Waits until no image is queued or being written, then keeps the
    /// writer from starting another until the returned guard drops.
    pub(crate) fn hold(&self) -> Hold<'_> {
        let mut st = self.lock();
        while st.busy || !st.queue.is_empty() {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.holds += 1;
        Hold(self)
    }

    /// Lets the thread exit once the queue is drained.
    pub(crate) fn shutdown(&self) {
        self.lock().shutdown = true;
        self.cv.notify_all();
    }

    /// The writer thread's body: write queued images in hand-off order
    /// until shut down with an empty queue.
    pub(crate) fn run(&self, shared: &Shared) {
        loop {
            let job = {
                let mut st = self.lock();
                loop {
                    if st.holds == 0 {
                        if let Some(job) = st.queue.pop_front() {
                            st.busy = true;
                            break job;
                        }
                    }
                    if st.shutdown && st.queue.is_empty() {
                        return;
                    }
                    st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let worker = job.worker;
            // A panic here must not strand a worker in `settle`: the image
            // counts as failed and the worker's next cut is a full image.
            let ok = catch_unwind(AssertUnwindSafe(|| self.write(shared, job))).unwrap_or(false);
            let mut st = self.lock();
            st.busy = false;
            st.written[worker] = Some(ok);
            self.cv.notify_all();
        }
    }

    /// Writes one image, compacts after a full one, then counts it: a
    /// written image in `checkpoints_written` or
    /// `delta_checkpoints_written`, a failed write in
    /// `checkpoints_refused`.
    fn write(&self, shared: &Shared, job: Job) -> bool {
        let prefix = worker_prefix(job.worker);
        let stats = &shared.stats;
        let (written, counter) = match &job.cut {
            Cut::Full(c) => (self.commit(c, &prefix), &stats.checkpoints_written),
            Cut::Delta(d) => (self.commit(d, &prefix), &stats.delta_checkpoints_written),
        };
        if written.is_err() {
            stats.checkpoints_refused.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if matches!(job.cut, Cut::Full(_)) {
            self.compact(shared);
        }
        counter.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn commit<K: ImageKind>(
        &self,
        image: &Image<K>,
        prefix: &str,
    ) -> Result<(), fol_persist::PersistError> {
        let path = self.dir.join(Image::<K>::file_name(prefix, image.seq));
        if self.sync {
            image.write(&path)
        } else {
            image.write_unsynced(&path)
        }
    }

    /// One log-structured compaction pass: rotate the shared request log
    /// under its mutex (sealing the segments the new image covers), release
    /// it, and let the [`Compactor`] delete sealed segments below every
    /// worker's retention boundary plus the generations those boundaries
    /// obsolete. Publishes the pass's log floor. Refusals are typed inside
    /// the report; an `Err` (an unreadable directory) leaves everything on
    /// disk.
    fn compact(&self, shared: &Shared) {
        let Some(wal) = &shared.wal else { return };
        let rotated = wal.lock().unwrap_or_else(PoisonError::into_inner).rotate();
        let Ok(active) = rotated else { return };
        let prefixes: Vec<String> = (0..self.workers).map(worker_prefix).collect();
        let refs: Vec<&str> = prefixes.iter().map(String::as_str).collect();
        let compactor = Compactor::new(&self.dir, REQUEST_LOG_PREFIX).keep_full_images(self.keep);
        if let Ok(report) = compactor.compact_below(&refs, classify_record, active) {
            let stats = &shared.stats;
            stats
                .generations_pruned
                .fetch_add(report.generations_removed as u64, Ordering::Relaxed);
            stats
                .wal_segments_pruned
                .fetch_add(report.wal_segments_removed as u64, Ordering::Relaxed);
            if let Some(floor) = report.log_floor {
                shared.log_floor.fetch_max(floor, Ordering::Relaxed);
            }
        }
    }
}
