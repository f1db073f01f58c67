//! The MOFSupplier's disk-prefetch queue: stage requests grouped by MOF,
//! ordered by segment offset within a group, served round-robin across
//! groups (the paper's Fig. 5 discipline).
//!
//! Grouping by MOF turns interleaved chunk traffic from many reducers
//! into long sequential runs per file; offset order within a group keeps
//! each run monotonic; round-robin across groups keeps one hot MOF from
//! starving the others. The queue itself is a passive kernel — the
//! server owns the disk-worker pool that pops from it (see
//! [`crate::server`]), and the reactor pushes:
//!
//! * **request jobs** carry a [`crate::reactor::JobTicket`]; a peer is
//!   waiting for these exact bytes — a `Stage` job for a DataCache
//!   miss, or a `Read` job for a range served without the DataCache
//!   (see [`crate::reactor::JobKind`]) — so the worker frames the
//!   response and delivers it to the reactor's completion queue —
//!   nobody blocks;
//! * **run-ahead jobs** have no reply; they are queued from the hit
//!   path so the disk works *while* the network transmits
//!   already-staged bytes, and stage only MOF bytes.
//!
//! Every job reads through the server's one read path, which decides
//! once whether the hybrid store or the MOF answers.
//!
//! Locking: the single `jobs` mutex is held only to push or pop one job
//! — never across disk I/O or a completion delivery. In the documented
//! order it sits before `indexes`, the MOF store's IndexCache (a worker
//! pops, then reads the store).

use crate::sync::{lock, wait, Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};

/// Who (if anyone) is waiting for a job's bytes, and how to reach them.
pub(crate) enum Reply {
    /// Pure run-ahead: stage only, nobody waits.
    None,
    /// A request's slot waits on these bytes; nobody blocks. The disk
    /// worker builds the complete response frame and delivers it to the
    /// reactor's completion queue (see [`crate::reactor::JobTicket`]),
    /// then wakes the reactor's poll loop.
    Reactor(crate::reactor::JobTicket),
}

impl std::fmt::Debug for Reply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reply::None => f.write_str("None"),
            Reply::Reactor(t) => write!(f, "Reactor(seq={})", t.seq),
        }
    }
}

/// One stage request.
#[derive(Debug)]
pub(crate) struct StageJob {
    /// MOF id (the grouping key).
    pub(crate) mof: u64,
    /// Reducer (partition) number.
    pub(crate) reducer: u32,
    /// Absolute segment offset the read-ahead starts at.
    pub(crate) offset: u64,
    /// Who is waiting for the bytes, if anyone.
    pub(crate) reply: Reply,
}

/// Result of a pop.
pub(crate) enum Pop<T> {
    /// The next job under the round-robin discipline.
    Item(T),
    /// Nothing queued right now; the queue is still open.
    Empty,
    /// The queue was closed; no job will ever appear again.
    Closed,
}

struct GroupedJobs {
    /// Per-MOF queues, each kept in ascending-offset order.
    groups: BTreeMap<u64, VecDeque<StageJob>>,
    /// Round-robin rotation of group keys with pending jobs.
    rotation: VecDeque<u64>,
    closed: bool,
    len: usize,
    peak: usize,
}

/// The grouped, round-robin-served prefetch queue.
pub(crate) struct PrefetchQueue {
    jobs: Mutex<GroupedJobs>,
    /// Wakes blocked [`Self::pop_wait`] callers on push and close, so a
    /// disk-worker pool can sleep on the queue itself without an
    /// external tick channel.
    cv: Condvar,
}

impl PrefetchQueue {
    /// An empty, open queue.
    pub(crate) fn new() -> Self {
        PrefetchQueue {
            jobs: Mutex::new(GroupedJobs {
                groups: BTreeMap::new(),
                rotation: VecDeque::new(),
                closed: false,
                len: 0,
                peak: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Queue a job into its MOF group at its offset-ordered position.
    /// Returns the job back if the queue is already closed (the caller
    /// answers its request instead of losing it silently).
    pub(crate) fn push(&self, job: StageJob) -> Result<(), StageJob> {
        let mut jobs = lock(&self.jobs);
        if jobs.closed {
            return Err(job);
        }
        let mof = job.mof;
        let first_for_mof = {
            let group = jobs.groups.entry(mof).or_default();
            let first = group.is_empty();
            // Ascending segment offset within the group: the disk sees
            // each MOF as a monotonic sequential run.
            let at = group.partition_point(|j| j.offset <= job.offset);
            group.insert(at, job);
            first
        };
        if first_for_mof {
            jobs.rotation.push_back(mof);
        }
        jobs.len += 1;
        jobs.peak = jobs.peak.max(jobs.len);
        self.cv.notify_one();
        Ok(())
    }

    /// Take the next job: the head of the next group in the round-robin
    /// rotation. A group with remaining jobs goes to the rotation's
    /// back, so MOFs are served fairly rather than drained one by one.
    /// (Production pops through [`Self::pop_wait`]; the non-blocking
    /// form keeps the discipline's unit tests deterministic.)
    #[cfg(test)]
    pub(crate) fn try_pop(&self) -> Pop<StageJob> {
        Self::pop_next(&mut lock(&self.jobs))
    }

    /// [`Self::try_pop`], but block on the queue's condvar while it is
    /// empty: returns `Pop::Item` or `Pop::Closed`, never `Pop::Empty`.
    /// The disk-worker pool parks here between jobs.
    pub(crate) fn pop_wait(&self) -> Pop<StageJob> {
        let mut jobs = lock(&self.jobs);
        loop {
            match Self::pop_next(&mut jobs) {
                Pop::Empty => jobs = wait(&self.cv, jobs),
                done => return done,
            }
        }
    }

    fn pop_next(jobs: &mut GroupedJobs) -> Pop<StageJob> {
        match jobs.rotation.pop_front() {
            Some(mof) => {
                let (job, left) = match jobs.groups.get_mut(&mof) {
                    Some(group) => (group.pop_front(), group.len()),
                    None => (None, 0),
                };
                if left > 0 {
                    jobs.rotation.push_back(mof);
                } else {
                    jobs.groups.remove(&mof);
                }
                match job {
                    Some(job) => {
                        jobs.len = jobs.len.saturating_sub(1);
                        Pop::Item(job)
                    }
                    // A rotation key without jobs cannot happen (keys are
                    // enqueued only with their first job), but degrade to
                    // Empty rather than trusting the invariant with I/O.
                    None => Pop::Empty,
                }
            }
            None if jobs.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Close the queue and drain everything still pending. Pushes after
    /// this are refused, and every blocked [`Self::pop_wait`] wakes to
    /// see `Pop::Closed`.
    pub(crate) fn close(&self) -> Vec<StageJob> {
        let mut jobs = lock(&self.jobs);
        jobs.closed = true;
        jobs.rotation.clear();
        jobs.len = 0;
        let groups = std::mem::take(&mut jobs.groups);
        self.cv.notify_all();
        groups.into_values().flatten().collect()
    }

    /// Jobs currently queued.
    pub(crate) fn len(&self) -> usize {
        lock(&self.jobs).len
    }

    /// High-water mark of [`Self::len`] over the queue's lifetime.
    pub(crate) fn peak(&self) -> usize {
        lock(&self.jobs).peak
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn job(mof: u64, offset: u64) -> StageJob {
        StageJob {
            mof,
            reducer: 0,
            offset,
            reply: Reply::None,
        }
    }

    fn pop(q: &PrefetchQueue) -> (u64, u64) {
        match q.try_pop() {
            Pop::Item(j) => (j.mof, j.offset),
            Pop::Empty => panic!("queue unexpectedly empty"),
            Pop::Closed => panic!("queue unexpectedly closed"),
        }
    }

    #[test]
    fn round_robin_across_mofs_offset_order_within() {
        let q = PrefetchQueue::new();
        // MOF 1 jobs arrive out of offset order; MOF 2 interleaves.
        q.push(job(1, 200)).unwrap();
        q.push(job(2, 50)).unwrap();
        q.push(job(1, 100)).unwrap();
        q.push(job(2, 150)).unwrap();
        q.push(job(1, 300)).unwrap();
        assert_eq!(q.len(), 5);
        // Rotation starts with MOF 1 (first pushed), then alternates;
        // within each MOF, offsets come out ascending.
        assert_eq!(pop(&q), (1, 100));
        assert_eq!(pop(&q), (2, 50));
        assert_eq!(pop(&q), (1, 200));
        assert_eq!(pop(&q), (2, 150));
        assert_eq!(pop(&q), (1, 300));
        assert!(matches!(q.try_pop(), Pop::Empty));
        assert_eq!(q.peak(), 5);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn one_hot_mof_does_not_starve_others() {
        let q = PrefetchQueue::new();
        for off in 0..8u64 {
            q.push(job(7, off * 100)).unwrap();
        }
        q.push(job(9, 0)).unwrap();
        // The lone MOF-9 job is served second, not ninth.
        assert_eq!(pop(&q).0, 7);
        assert_eq!(pop(&q).0, 9);
    }

    #[test]
    fn close_drains_and_refuses() {
        let q = PrefetchQueue::new();
        q.push(job(1, 0)).unwrap();
        q.push(job(2, 0)).unwrap();
        let drained = q.close();
        assert_eq!(drained.len(), 2);
        assert!(matches!(q.try_pop(), Pop::Closed));
        assert!(q.push(job(3, 0)).is_err(), "closed queue refuses pushes");
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn equal_offsets_keep_arrival_order() {
        let q = PrefetchQueue::new();
        let mut a = job(1, 100);
        a.reducer = 1;
        let mut b = job(1, 100);
        b.reducer = 2;
        q.push(a).unwrap();
        q.push(b).unwrap();
        let first = match q.try_pop() {
            Pop::Item(j) => j.reducer,
            _ => panic!(),
        };
        assert_eq!(first, 1, "stable order for equal offsets");
    }
}
