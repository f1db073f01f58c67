//! The NetMerger: JBS's native client-side component.
//!
//! One NetMerger per node replaces the MOFCopier threads of *every*
//! ReduceTask on that node (Sec. III-C):
//!
//! * **Consolidation** — all segments needed by all local ReduceTasks flow
//!   through this one process, so the connection count is per node pair,
//!   not per MOFCopier.
//! * **Grouping** — fetch requests are grouped by target remote node;
//!   within a group they are ordered by arrival (here: MOF commit time).
//! * **Balanced injection** — a round-robin scan across groups spreads
//!   requests over remote nodes, "mitigating the impact of burst requests
//!   from an aggressive ReduceTask".
//!
//! This module is pure scheduling state; the engine in [`super`] drives it
//! against the simulated cluster.

use jbs_des::SimTime;
use std::collections::HashMap;

/// One segment to fetch.
///
/// The network-levitated merge fetches each segment's *header* (the first
/// transport buffer) as soon as its MOF commits, so the merge's priority
/// queue can be built — but "levitates" the segment body on the remote
/// disk until the merge phase actually streams it (after the last MOF
/// commits). `body_gate` encodes that barrier; set it to `SimTime::ZERO`
/// for eager fetching.
#[derive(Debug, Clone)]
pub struct SegTask {
    /// MOF id the segment lives in.
    pub mof: usize,
    /// Destination reducer (a ReduceTask local to this NetMerger).
    pub reducer: usize,
    /// Absolute byte offset of the segment inside the MOF file.
    pub seg_off: u64,
    /// Segment length.
    pub bytes: u64,
    /// Bytes already fetched.
    pub fetched: u64,
    /// When the MOF committed (header fetchable after this).
    pub ready: SimTime,
    /// Earliest time the segment *body* (beyond the first buffer) may be
    /// streamed — the start of the merge phase.
    pub body_gate: SimTime,
}

/// Per-remote-node request group.
#[derive(Debug, Clone)]
pub struct Group {
    /// The remote node this group fetches from.
    pub remote: usize,
    /// Segments, ordered by `(ready, mof)` — arrival order.
    pub segs: Vec<SegTask>,
    cur: usize,
    /// Segment most recently picked by `next_action` (may be past `cur`
    /// when the head is body-gated but a later header is fetchable).
    active: usize,
}

impl Group {
    fn is_done(&self) -> bool {
        self.cur >= self.segs.len()
    }
}

/// What the NetMerger wants to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextAction {
    /// Fetch one chunk: `(group index, chunk offset within segment, len)`.
    Chunk {
        /// Index into the merger's group list.
        group: usize,
        /// Segment-relative offset of the chunk.
        chunk_off: u64,
        /// Chunk length.
        len: u64,
    },
    /// Nothing fetchable yet; retry at this time (earliest MOF commit).
    WaitUntil(SimTime),
    /// All segments fetched.
    Done,
}

/// Scheduling state of one node's NetMerger.
pub struct NetMerger {
    /// The node this NetMerger runs on.
    pub node: usize,
    groups: Vec<Group>,
    rr: usize,
    round_robin: bool,
    buffer_bytes: u64,
    remaining_segments: usize,
    /// Pre-merge staging budget per reducer (see `JbsConfig`).
    prefetch_budget: u64,
    fetched_per_reducer: HashMap<usize, u64>,
}

impl NetMerger {
    /// Build a merger over per-remote groups. Each group's segments must be
    /// sorted by arrival (`ready`, then MOF id); [`NetMerger::new`] sorts
    /// them to enforce this.
    pub fn new(node: usize, mut groups: Vec<Group>, buffer_bytes: u64, round_robin: bool) -> Self {
        for g in &mut groups {
            g.segs.sort_by_key(|s| (s.ready, s.mof, s.reducer));
            g.cur = 0;
        }
        // Drop zero-byte segments up front; they need no fetching.
        for g in &mut groups {
            g.segs.retain(|s| s.bytes > 0);
        }
        let remaining = groups.iter().map(|g| g.segs.len()).sum();
        NetMerger {
            node,
            groups,
            rr: 0,
            round_robin,
            buffer_bytes,
            remaining_segments: remaining,
            prefetch_budget: u64::MAX,
            fetched_per_reducer: HashMap::new(),
        }
    }

    /// Cap pre-merge body staging at `budget` bytes per reducer.
    pub fn with_prefetch_budget(mut self, budget: u64) -> Self {
        self.prefetch_budget = budget;
        self
    }

    /// Convenience constructor used by the engine.
    pub fn group(remote: usize, segs: Vec<SegTask>) -> Group {
        Group {
            remote,
            segs,
            cur: 0,
            active: 0,
        }
    }

    /// When the head of a group may fetch its next chunk: the header is
    /// available at MOF commit; bodies stream eagerly while the reducer's
    /// staging budget lasts, then levitate until the merge phase.
    fn effective_ready(
        seg: &SegTask,
        fetched_per_reducer: &HashMap<usize, u64>,
        budget: u64,
    ) -> SimTime {
        let staged = fetched_per_reducer.get(&seg.reducer).copied().unwrap_or(0);
        if seg.fetched == 0 || staged < budget {
            seg.ready
        } else {
            seg.ready.max(seg.body_gate)
        }
    }

    /// Decide the next chunk to inject at time `now`.
    pub fn next_action(&mut self, now: SimTime) -> NextAction {
        if self.remaining_segments == 0 {
            return NextAction::Done;
        }
        let n = self.groups.len();
        let mut earliest = SimTime::MAX;
        for step in 0..n {
            let gi = if self.round_robin {
                (self.rr + step) % n
            } else {
                step
            };
            let g = &mut self.groups[gi];
            while !g.is_done() && g.segs[g.cur].fetched >= g.segs[g.cur].bytes {
                g.cur += 1;
            }
            // With the body gate, a group's head may be gated while a later
            // header is fetchable; scan a small window past the head.
            let Some(cur) = (g.cur < g.segs.len()).then_some(g.cur) else {
                continue;
            };
            // Scan up to 64 *incomplete* segments past the head: completed
            // segments (eagerly staged earlier) must not consume the
            // window, or fetchable headers further along would be missed.
            let mut pick = None;
            let mut scanned = 0usize;
            let mut si = cur;
            while si < g.segs.len() && scanned < 64 {
                let seg = &g.segs[si];
                if seg.fetched >= seg.bytes {
                    si += 1;
                    continue;
                }
                scanned += 1;
                let ready =
                    Self::effective_ready(seg, &self.fetched_per_reducer, self.prefetch_budget);
                if ready <= now {
                    pick = Some(si);
                    break;
                }
                earliest = earliest.min(ready);
                si += 1;
            }
            if let Some(si) = pick {
                let g = &mut self.groups[gi];
                let seg = &g.segs[si];
                let chunk_off = seg.fetched;
                let len = self.buffer_bytes.min(seg.bytes - seg.fetched);
                g.active = si;
                if self.round_robin {
                    self.rr = (gi + 1) % n;
                }
                return NextAction::Chunk {
                    group: gi,
                    chunk_off,
                    len,
                };
            }
        }
        if earliest == SimTime::MAX {
            NextAction::Done
        } else {
            NextAction::WaitUntil(earliest)
        }
    }

    /// Record that `len` bytes of the segment picked by the last
    /// `next_action` on `group` were fetched. Returns `Some((reducer,
    /// mof))` when that completes the segment.
    pub fn complete_chunk(&mut self, group: usize, len: u64) -> Option<(usize, usize)> {
        let g = &mut self.groups[group];
        let seg = &mut g.segs[g.active];
        *self.fetched_per_reducer.entry(seg.reducer).or_insert(0) += len;
        seg.fetched += len;
        debug_assert!(seg.fetched <= seg.bytes);
        if seg.fetched == seg.bytes {
            self.remaining_segments -= 1;
            let done = (seg.reducer, seg.mof);
            while g.cur < g.segs.len() && g.segs[g.cur].fetched >= g.segs[g.cur].bytes {
                g.cur += 1;
            }
            Some(done)
        } else {
            None
        }
    }

    /// The remote node of a group.
    pub fn remote_of(&self, group: usize) -> usize {
        self.groups[group].remote
    }

    /// Segment the last `next_action` on `group` picked.
    pub fn head_of(&self, group: usize) -> &SegTask {
        let g = &self.groups[group];
        &g.segs[g.active]
    }

    /// Segments not yet fully fetched.
    pub fn remaining_segments(&self) -> usize {
        self.remaining_segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(mof: usize, reducer: usize, bytes: u64, ready_s: u64) -> SegTask {
        SegTask {
            mof,
            reducer,
            seg_off: 0,
            bytes,
            fetched: 0,
            ready: SimTime::from_secs(ready_s),
            body_gate: SimTime::ZERO,
        }
    }

    fn merger(round_robin: bool) -> NetMerger {
        let groups = vec![
            NetMerger::group(1, vec![seg(0, 0, 300, 0), seg(2, 0, 100, 0)]),
            NetMerger::group(2, vec![seg(1, 0, 200, 0)]),
        ];
        NetMerger::new(0, groups, 100, round_robin)
    }

    #[test]
    fn round_robin_alternates_groups() {
        let mut m = merger(true);
        let mut picks = Vec::new();
        for _ in 0..4 {
            if let NextAction::Chunk { group, .. } = m.next_action(SimTime::ZERO) {
                picks.push(group);
                m.complete_chunk(group, 100);
            }
        }
        assert_eq!(picks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn fifo_mode_drains_first_group_first() {
        let mut m = merger(false);
        let mut picks = Vec::new();
        for _ in 0..4 {
            if let NextAction::Chunk { group, .. } = m.next_action(SimTime::ZERO) {
                picks.push(group);
                m.complete_chunk(group, 100);
            }
        }
        assert_eq!(picks, vec![0, 0, 0, 0]);
    }

    #[test]
    fn waits_for_earliest_unready_mof() {
        let groups = vec![NetMerger::group(
            1,
            vec![seg(0, 0, 100, 5), seg(1, 0, 100, 3)],
        )];
        let mut m = NetMerger::new(0, groups, 100, true);
        // Segments resorted by ready time: head is the ready=3 one.
        match m.next_action(SimTime::ZERO) {
            NextAction::WaitUntil(t) => assert_eq!(t, SimTime::from_secs(3)),
            other => panic!("expected wait, got {other:?}"),
        }
        match m.next_action(SimTime::from_secs(4)) {
            NextAction::Chunk { .. } => {}
            other => panic!("expected chunk, got {other:?}"),
        }
    }

    #[test]
    fn chunking_respects_buffer_size() {
        let groups = vec![NetMerger::group(1, vec![seg(0, 0, 250, 0)])];
        let mut m = NetMerger::new(0, groups, 100, true);
        let mut lens = Vec::new();
        loop {
            match m.next_action(SimTime::ZERO) {
                NextAction::Chunk { group, len, .. } => {
                    lens.push(len);
                    m.complete_chunk(group, len);
                }
                NextAction::Done => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(lens, vec![100, 100, 50]);
        assert_eq!(m.remaining_segments(), 0);
    }

    #[test]
    fn segment_completion_reports_reducer_and_mof() {
        let groups = vec![NetMerger::group(1, vec![seg(7, 3, 100, 0)])];
        let mut m = NetMerger::new(0, groups, 100, true);
        if let NextAction::Chunk { group, len, .. } = m.next_action(SimTime::ZERO) {
            assert_eq!(m.complete_chunk(group, len), Some((3, 7)));
        } else {
            panic!("expected chunk");
        }
        assert_eq!(m.next_action(SimTime::ZERO), NextAction::Done);
    }

    #[test]
    fn zero_byte_segments_are_dropped() {
        let groups = vec![NetMerger::group(1, vec![seg(0, 0, 0, 0)])];
        let mut m = NetMerger::new(0, groups, 100, true);
        assert_eq!(m.next_action(SimTime::ZERO), NextAction::Done);
    }

    #[test]
    fn chunk_offsets_advance_sequentially() {
        let groups = vec![NetMerger::group(1, vec![seg(0, 0, 300, 0)])];
        let mut m = NetMerger::new(0, groups, 100, true);
        let mut offs = Vec::new();
        while let NextAction::Chunk {
            group,
            chunk_off,
            len,
        } = m.next_action(SimTime::ZERO)
        {
            offs.push(chunk_off);
            m.complete_chunk(group, len);
        }
        assert_eq!(offs, vec![0, 100, 200]);
    }
}
