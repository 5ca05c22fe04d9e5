//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end on the recorder's clock, the span that
//! caused it, and an identifier shared by every span of one request, session or
//! build.  Spans stay in memory until [`Recorder::write_json`] at the end of a
//! traced run.  A layer's self time is its duration minus the part of it that its
//! direct children cover ([`self_times`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nested spans on one thread.  A disabled recorder runs the wrapped
/// closures without reading the clock, so a traced and an untraced pass execute
/// the same calls.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times in nanoseconds grouped by span name, in recording order.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            by_name.entry(span.name).or_default().push(own as f64);
        }
        by_name
    }

    /// Writes every span as one JSON object per line, in recording order (a
    /// span's `parent` is the line number, from 0, of its parent):
    /// `{"name","id","parent","start_ns","end_ns","self_ns"}`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, own) in self.spans.iter().zip(self_ns) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.name, span.id, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the length of the union of its
/// direct children's intervals, each clipped to the parent's interval.  Children
/// may overlap (work fanned over threads); covered time is counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let covered = children
                .get(&i)
                .map_or(0, |kids| covered_ns(span.start_ns, span.end_ns, kids));
            duration - covered.min(duration)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("a", None, 10, 35)];
        assert_eq!(self_times(&spans), vec![25]);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [
            span("root", None, 0, 100),
            span("parse", Some(0), 10, 30),
            span("render", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // [10, 60) and [40, 80) overlap on [40, 60): together they cover 70 ns.
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 40, 80),
            span("c", Some(0), 45, 55),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        let spans = [
            span("root", None, 100, 200),
            // Starts before and ends after the parent: clipped to [100, 200).
            span("wide", Some(0), 50, 150),
            // A grandchild only reduces its own parent's self time.
            span("grand", Some(1), 60, 140),
            span("late", Some(0), 190, 260),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 50 - 10);
        assert_eq!(own[1], 100 - 80);
        assert_eq!(own[3], 70);
    }

    #[test]
    fn recorder_nests_and_shares_ids() {
        let mut rec = Recorder::new(true);
        let value = rec.span("request", 7, |rec| {
            rec.span("wire.parse", 7, |_| 1) + rec.span("wire.render", 7, |_| 2)
        });
        assert_eq!(value, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 7 && s.end_ns >= s.start_ns));
        assert_eq!(rec.self_times_by_name()["wire.parse"].len(), 1);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("request", 1, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
