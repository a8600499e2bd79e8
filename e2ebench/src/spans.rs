//! In-memory spans for the traced run, their self times, and the
//! "where the time goes" table.
//!
//! The benchmark records its own spans around each call it makes into the
//! program and merges the program's existing `vgen-obs` stage spans
//! underneath them. Each span has a name, a start, an end, a parent, a
//! lane and an item id; the spans of one row, request or candidate share
//! the item id. Nothing is written until the run ends.
//!
//! Self time: at every instant, the wall time is split equally between
//! the innermost spans open at that instant (the open spans none of whose
//! children are open). For spans on one thread this is exactly a span's
//! duration minus the time its children cover; with several lanes open at
//! once, the split makes the self times of a tree sum to its root's wall
//! time. Time no named stage covers stays with the enclosing span.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One finished interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub item: u64,
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorded by the program itself (a `vgen-obs` event or a
/// Chrome trace event), before it has a parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Raw {
    pub name: String,
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans an in-process `vgen-obs` recording collected.
pub fn raw_events(report: &vgen_obs::ObsReport) -> Vec<Raw> {
    report
        .events
        .iter()
        .map(|e| Raw {
            name: e.name.to_string(),
            lane: e.lane,
            start_ns: e.start_ns,
            end_ns: e.start_ns + e.dur_ns,
        })
        .collect()
}

/// Lanes of adopted program spans are offset so they never collide with
/// the benchmark's own lanes in the span file.
const ADOPTED_LANE_BASE: u32 = 100;

/// The span store of one traced run. Parents are always stored before
/// their children.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

/// The benchmark's clock: the program's own monotonic clock, so that
/// in-process `vgen-obs` spans line up with the benchmark's spans.
pub fn now_ns() -> u64 {
    vgen_obs::now_ns()
}

impl Trace {
    /// Opens a span now; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>, item: u64, lane: u32) -> usize {
        let t = now_ns();
        self.push(name, parent, item, lane, t, t)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = now_ns();
    }

    pub fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        item: u64,
        lane: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            item,
            lane,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Merges program spans under the subtree of `root`. On each lane the
    /// raw spans nest by time; a lane's outermost spans go under the
    /// innermost existing span of the subtree that contains them (the
    /// subtree's spans must lie on one thread), or under `root`. Adopted
    /// spans take the item id of the span they land under.
    pub fn adopt(&mut self, mut raw: Vec<Raw>, root: usize) {
        let in_tree = self.subtree(root);
        let mut hosts: Vec<usize> = (0..self.spans.len()).filter(|&i| in_tree[i]).collect();
        hosts.sort_by_key(|&i| self.spans[i].start_ns);
        raw.sort_by(|a, b| {
            (a.lane, a.start_ns, std::cmp::Reverse(a.end_ns)).cmp(&(
                b.lane,
                b.start_ns,
                std::cmp::Reverse(b.end_ns),
            ))
        });
        let mut stack: Vec<(usize, u32)> = Vec::new();
        for ev in raw {
            while let Some(&(top, lane)) = stack.last() {
                let t = &self.spans[top];
                if lane == ev.lane && t.start_ns <= ev.start_ns && ev.end_ns <= t.end_ns {
                    break;
                }
                stack.pop();
            }
            let parent = match stack.last() {
                Some(&(top, _)) => top,
                None => self.host_for(&hosts, root, ev.start_ns, ev.end_ns),
            };
            let item = self.spans[parent].item;
            let id = self.push(
                &ev.name,
                Some(parent),
                item,
                ADOPTED_LANE_BASE + ev.lane,
                ev.start_ns,
                ev.end_ns,
            );
            stack.push((id, ev.lane));
        }
    }

    /// The innermost span among `hosts` (sorted by start) containing
    /// `[start, end)`, else `root`.
    fn host_for(&self, hosts: &[usize], root: usize, start: u64, end: u64) -> usize {
        let idx = hosts.partition_point(|&h| self.spans[h].start_ns <= start);
        let Some(&last) = idx.checked_sub(1).and_then(|i| hosts.get(i)) else {
            return root;
        };
        let mut cur = last;
        loop {
            let s = &self.spans[cur];
            if s.start_ns <= start && end <= s.end_ns {
                return cur;
            }
            match s.parent {
                Some(p) if cur != root => cur = p,
                _ => return root,
            }
        }
    }

    /// Which spans belong to the subtree rooted at `root`.
    pub fn subtree(&self, root: usize) -> Vec<bool> {
        let mut in_tree = vec![false; self.spans.len()];
        for i in 0..self.spans.len() {
            in_tree[i] = i == root || self.spans[i].parent.is_some_and(|p| in_tree[p]);
        }
        in_tree
    }

    /// Clamps every span into its parent's interval, so that children
    /// never outlast their parents (a program span is placed on the
    /// benchmark's clock only up to the offset of its process start).
    pub fn clamp(&mut self) {
        for i in 0..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                let (ps, pe) = (self.spans[p].start_ns, self.spans[p].end_ns);
                let s = &mut self.spans[i];
                s.start_ns = s.start_ns.clamp(ps, pe);
                s.end_ns = s.end_ns.clamp(s.start_ns, pe);
            }
        }
    }

    /// Self time (ns, fractional) of every span in the subtree of `root`;
    /// zero outside it. Call [`Trace::clamp`] first.
    pub fn self_times(&self, root: usize) -> Vec<f64> {
        let in_tree = self.subtree(root);
        let n = self.spans.len();
        let mut depth = vec![0usize; n];
        for i in 0..n {
            if let Some(p) = self.spans[i].parent {
                depth[i] = depth[p] + 1;
            }
        }
        // (time, phase, order, span): ends (phase 0, deepest first) before
        // starts (phase 1, shallowest first) at equal times.
        // Empty spans own no time; after clamping their children are
        // empty too, so both are left out.
        let mut events: Vec<(u64, u8, usize, usize)> = Vec::new();
        for i in (0..n).filter(|&i| in_tree[i] && self.spans[i].end_ns > self.spans[i].start_ns) {
            events.push((self.spans[i].start_ns, 1, depth[i], i));
            events.push((self.spans[i].end_ns, 0, usize::MAX - depth[i], i));
        }
        events.sort_unstable();
        let mut open_children = vec![0usize; n];
        let mut open = vec![false; n];
        // The innermost set, with each member's position for O(1) removal.
        let mut leaves: Vec<usize> = Vec::new();
        let mut slot = vec![usize::MAX; n];
        let mut out = vec![0.0f64; n];
        let mut last_t = events.first().map_or(0, |e| e.0);
        let insert = |leaves: &mut Vec<usize>, slot: &mut Vec<usize>, s: usize| {
            slot[s] = leaves.len();
            leaves.push(s);
        };
        let remove = |leaves: &mut Vec<usize>, slot: &mut Vec<usize>, s: usize| {
            let at = slot[s];
            let moved = *leaves.last().expect("member present");
            leaves.swap_remove(at);
            if moved != s {
                slot[moved] = at;
            }
            slot[s] = usize::MAX;
        };
        for (t, phase, _, s) in events {
            if t > last_t && !leaves.is_empty() {
                let share = (t - last_t) as f64 / leaves.len() as f64;
                for &l in &leaves {
                    out[l] += share;
                }
            }
            last_t = t;
            let parent = self.spans[s].parent.filter(|&p| open[p]);
            if phase == 1 {
                open[s] = true;
                insert(&mut leaves, &mut slot, s);
                if let Some(p) = parent {
                    open_children[p] += 1;
                    if open_children[p] == 1 {
                        remove(&mut leaves, &mut slot, p);
                    }
                }
            } else {
                open[s] = false;
                if slot[s] != usize::MAX {
                    remove(&mut leaves, &mut slot, s);
                }
                if let Some(p) = parent {
                    open_children[p] -= 1;
                    if open_children[p] == 0 {
                        insert(&mut leaves, &mut slot, p);
                    }
                }
            }
        }
        out
    }

    /// Per-name totals over the subtree of `root`.
    pub fn table(&self, root: usize) -> Table {
        let selfs = self.self_times(root);
        let in_tree = self.subtree(root);
        let mut rows: BTreeMap<String, Row> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(i, _)| in_tree[*i]) {
            let row = rows.entry(s.name.clone()).or_default();
            row.calls += 1;
            row.incl_ns += (s.end_ns - s.start_ns) as f64;
            row.self_ns += selfs[i];
        }
        let root_span = &self.spans[root];
        Table {
            title: root_span.name.clone(),
            wall_ns: (root_span.end_ns - root_span.start_ns) as f64,
            rows,
        }
    }

    /// The spans as JSON lines, times in µs from the first span's start.
    pub fn to_jsonl(&self) -> String {
        let t0 = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"item\":{},\"lane\":{},\"name\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.item,
                s.lane,
                vgen_serve::Json::str(s.name.as_str()).render(),
                (s.start_ns - t0) as f64 / 1e3,
                (s.end_ns - t0) as f64 / 1e3,
            );
        }
        out
    }
}

/// One line of a [`Table`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Row {
    pub calls: u64,
    pub incl_ns: f64,
    pub self_ns: f64,
}

/// Where the time of one root span went, by span name.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub title: String,
    pub wall_ns: f64,
    pub rows: BTreeMap<String, Row>,
}

impl Table {
    pub fn row(&self, name: &str) -> Row {
        self.rows.get(name).copied().unwrap_or_default()
    }

    pub fn self_sum_ns(&self) -> f64 {
        self.rows.values().map(|r| r.self_ns).sum()
    }

    pub fn render(&self) -> String {
        let mut rows: Vec<(&String, &Row)> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.total_cmp(&a.1.self_ns));
        let mut out = format!(
            "where the time goes: {} (wall {:.1} ms)\n{:<22} {:>9} {:>12} {:>12} {:>7}\n",
            self.title,
            self.wall_ns / 1e6,
            "span",
            "calls",
            "incl ms",
            "self ms",
            "self %"
        );
        for (name, r) in rows {
            let _ = writeln!(
                out,
                "{:<22} {:>9} {:>12.3} {:>12.3} {:>7.2}",
                name,
                r.calls,
                r.incl_ns / 1e6,
                r.self_ns / 1e6,
                100.0 * r.self_ns / self.wall_ns.max(1.0)
            );
        }
        let _ = writeln!(
            out,
            "{:<22} {:>9} {:>12} {:>12.3} {:>7.2}",
            "sum of self",
            "",
            "",
            self.self_sum_ns() / 1e6,
            100.0 * self.self_sum_ns() / self.wall_ns.max(1.0)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name: &str, lane: u32, s: u64, e: u64) -> Raw {
        Raw {
            name: name.to_string(),
            lane,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn single_lane_self_time_is_duration_minus_children() {
        let mut t = Trace::default();
        let root = t.push("root", None, 0, 0, 0, 100);
        let a = t.push("a", Some(root), 1, 0, 10, 60);
        t.push("b", Some(a), 1, 0, 20, 30);
        t.push("b", Some(a), 1, 0, 40, 45);
        t.clamp();
        let table = t.table(root);
        assert_eq!(table.row("root").self_ns, 50.0);
        assert_eq!(table.row("a").self_ns, 35.0);
        assert_eq!(table.row("b").self_ns, 15.0);
        assert_eq!(table.row("b").calls, 2);
        assert_eq!(table.self_sum_ns(), 100.0);
    }

    #[test]
    fn parallel_lanes_split_time_and_sum_to_wall() {
        let mut t = Trace::default();
        let root = t.push("root", None, 0, 0, 0, 100);
        t.adopt(
            vec![
                raw("check", 1, 10, 90),
                raw("parse", 1, 20, 40),
                raw("check", 2, 30, 70),
                raw("sim", 2, 50, 60),
            ],
            root,
        );
        t.clamp();
        let table = t.table(root);
        assert!((table.self_sum_ns() - 100.0).abs() < 1e-9);
        // 30..40: parse and the lane-2 check share the instant.
        assert!((table.row("parse").self_ns - 15.0).abs() < 1e-9);
        assert_eq!(table.row("root").self_ns, 20.0);
        assert_eq!(table.row("check").calls, 2);
    }

    #[test]
    fn adopted_spans_nest_under_the_innermost_host() {
        let mut t = Trace::default();
        let root = t.push("run", None, 0, 0, 0, 1000);
        let c1 = t.push("candidate", Some(root), 1, 0, 0, 400);
        t.push("parse", Some(c1), 1, 0, 0, 100);
        let c2 = t.push("candidate", Some(root), 2, 0, 500, 900);
        t.adopt(
            vec![
                raw("simulate", 0, 150, 350),
                raw("elaborate", 0, 600, 700),
                raw("x", 0, 950, 990),
            ],
            root,
        );
        let find = |name: &str| t.spans.iter().position(|s| s.name == name).expect("span");
        assert_eq!(t.spans[find("simulate")].parent, Some(c1));
        assert_eq!(t.spans[find("simulate")].item, 1);
        assert_eq!(t.spans[find("elaborate")].parent, Some(c2));
        assert_eq!(t.spans[find("x")].parent, Some(root));
    }

    #[test]
    fn clamping_keeps_children_inside_parents() {
        let mut t = Trace::default();
        let root = t.push("row", None, 0, 0, 100, 200);
        t.adopt(vec![raw("late", 0, 150, 260)], root);
        t.clamp();
        assert_eq!(t.spans[1].end_ns, 200);
        let table = t.table(root);
        assert_eq!(table.self_sum_ns(), 100.0);
    }
}
