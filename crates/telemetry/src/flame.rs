//! Collapsed-stack flamegraph export for host-time profiles.
//!
//! The "collapsed" (folded) format is the lingua franca of flamegraph
//! tooling — one line per call path, frames joined with `;`, a space,
//! then an integer weight:
//!
//! ```text
//! host.session;host.tick;host.forward 1523
//! ```
//!
//! Both Brendan Gregg's `flamegraph.pl` and inferno's
//! `inferno-flamegraph` consume it directly. Weights here are **self
//! microseconds**, so the rendered flame sums to profiled wall time
//! and the reconciliation invariant (Σ weights ≤ session wall µs)
//! holds by construction.

use crate::prof::HostProfileSnapshot;

/// Renders a profile snapshot as collapsed-stack text, one line per
/// observed call path (paths whose self-time rounds to 0 µs are kept,
/// with weight 0, so the scope vocabulary stays visible).
pub fn collapsed_stack(snap: &HostProfileSnapshot) -> String {
    let mut out = String::new();
    for p in &snap.paths {
        out.push_str(&p.path.join(";"));
        out.push(' ');
        out.push_str(&(p.self_ns / 1_000).to_string());
        out.push('\n');
    }
    out
}

/// One parsed collapsed-stack line: the frame path and its weight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollapsedLine {
    /// Frames, outermost first.
    pub frames: Vec<String>,
    /// The line's integer weight (self µs in our exports).
    pub weight: u64,
}

/// Parses collapsed-stack text, validating the format strictly enough
/// to serve as the CI smoke check: every non-empty line must be
/// `frame(;frame)* <integer>` with no empty frames.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_collapsed(text: &str) -> Result<Vec<CollapsedLine>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (stack, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no weight separator: {line:?}", i + 1))?;
        let weight: u64 = weight
            .parse()
            .map_err(|_| format!("line {}: non-integer weight: {line:?}", i + 1))?;
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        if frames.is_empty() || frames.iter().any(String::is_empty) {
            return Err(format!("line {}: empty frame in stack: {line:?}", i + 1));
        }
        out.push(CollapsedLine { frames, weight });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;
    use crate::prof::{self, HostProfiler};

    #[test]
    fn export_parses_back_and_reconciles() {
        let profiler = HostProfiler::new();
        let _install = prof::install(&profiler);
        {
            crate::prof_scope!(names::host::SESSION);
            for _ in 0..2 {
                crate::prof_scope!(names::host::TICK);
                {
                    crate::prof_scope!(names::host::FORWARD);
                    std::hint::black_box(vec![0u8; 256]);
                }
            }
        }
        let snap = profiler.snapshot();
        let text = collapsed_stack(&snap);
        let lines = parse_collapsed(&text).expect("export parses");
        assert_eq!(lines.len(), 3, "three collapsed paths:\n{text}");
        let mut leaves: Vec<&str> = lines
            .iter()
            .map(|l| l.frames.last().expect("non-empty stack").as_str())
            .collect();
        leaves.sort_unstable();
        assert_eq!(
            leaves,
            vec![
                names::host::FORWARD,
                names::host::SESSION,
                names::host::TICK
            ]
        );
        let total: u64 = lines.iter().map(|l| l.weight).sum();
        assert!(
            (total as f64) <= snap.wall_secs * 1e6,
            "Σ self µs ({total}) must reconcile against wall time"
        );
        // Deepest path is the full collapsed stack.
        let deep = lines
            .iter()
            .find(|l| l.frames.len() == 3)
            .expect("nested path present");
        assert_eq!(
            deep.frames,
            vec![
                names::host::SESSION,
                names::host::TICK,
                names::host::FORWARD
            ]
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_collapsed("just-a-stack-no-weight").is_err());
        assert!(parse_collapsed("a;b notanumber").is_err());
        assert!(parse_collapsed("a;;b 12").is_err());
        assert_eq!(parse_collapsed("").unwrap(), vec![]);
        let ok = parse_collapsed("a;b 12\n\nc 0\n").unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[0].weight, 12);
        assert_eq!(ok[1].frames, vec!["c".to_string()]);
    }
}
