//! Spans recorded by the harness around its calls into each layer.
//!
//! Nothing here is inside the program under test: the layered replay times
//! the same frame at each boundary from outside and records one span per
//! call. Spans stay in memory and are written out once, at exit.

use std::io::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Index of the frame in the pass: spans of one frame share it.
    pub trace: u32,
}

#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        parent: Option<usize>,
        trace: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            trace,
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (children clipped to the parent,
    /// overlaps between children counted once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some(entry) => entry.1 += self_ns,
                None => out.push((s.name, self_ns)),
            }
        }
        out
    }

    /// One line per span: `name,start_ns,end_ns,parent,trace`.
    pub fn write_csv<W: Write>(&self, mut out: W) -> std::io::Result<()> {
        writeln!(out, "name,start_ns,end_ns,parent,trace")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.trace
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let mut spans = Spans::default();
        let root = spans.push("frame", 0, 100, None, 0);
        let call = spans.push("call", 10, 60, Some(root), 0);
        spans.push("parse", 0, 10, Some(root), 0);
        spans.push("spig", 10, 20, Some(call), 0);
        spans.push("cand", 30, 30, Some(call), 0);
        assert_eq!(spans.self_times(), vec![30, 10, 10, 20, 30]);
        let by_name = spans.self_by_name();
        assert_eq!(by_name[0], ("frame", 30));
        // Self times partition the root: nothing is counted twice.
        assert_eq!(by_name.iter().map(|e| e.1).sum::<u64>(), 100);
    }

    #[test]
    fn children_never_take_more_than_the_parent_has() {
        let mut spans = Spans::default();
        let root = spans.push("frame", 100, 50, None, 7);
        // Overlapping children, one of them running past the parent's end.
        spans.push("a", 100, 30, Some(root), 7);
        spans.push("b", 120, 60, Some(root), 7);
        let selfs = spans.self_times();
        assert_eq!(selfs[0], 0);
        let covered: u64 = 50 - selfs[0];
        assert!(covered <= 50);
    }

    #[test]
    fn csv_has_one_line_per_span() {
        let mut spans = Spans::default();
        let root = spans.push("frame", 5, 10, None, 3);
        spans.push("call", 6, 2, Some(root), 3);
        let mut out = Vec::new();
        spans.write_csv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "name,start_ns,end_ns,parent,trace\nframe,5,15,,3\ncall,6,8,0,3\n"
        );
    }
}
