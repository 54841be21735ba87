//! The rule catalogue. Each rule is a function over the analyzed
//! [`Workspace`](crate::Workspace) appending [`Finding`]s to the report; waiver matching
//! and accounting is centralized in [`emit`].

mod atomic_ordering;
pub mod concurrency;
mod determinism;
mod hot_path;
mod lock_across_io;
mod lock_order;
mod metric_names;
mod panic_hygiene;
mod thread_lifecycle;

pub use atomic_ordering::check as atomic_ordering;
pub use determinism::check as determinism;
pub use hot_path::check as hot_path;
pub use lock_across_io::check as lock_across_io;
pub use lock_order::check as lock_order;
pub use metric_names::check as metric_names;
pub use panic_hygiene::check as panic_hygiene;
pub use thread_lifecycle::check as thread_lifecycle;

use crate::report::{Finding, Report, WaivedFinding};
use crate::source::SourceFile;
use std::collections::BTreeSet;

/// Tracks which waivers suppressed something, for unused-waiver drift.
#[derive(Default)]
pub struct WaiverLedger {
    used: BTreeSet<(String, usize)>,
}

impl WaiverLedger {
    /// `true` when the waiver at `(file, index)` suppressed a finding.
    pub fn was_used(&self, file: &str, index: usize) -> bool {
        self.used.contains(&(file.to_owned(), index))
    }
}

/// Records a finding, routing it through any matching inline waiver.
pub fn emit(
    report: &mut Report,
    ledger: &mut WaiverLedger,
    file: &SourceFile,
    rule: &'static str,
    line: u32,
    message: String,
) {
    let finding = Finding {
        rule,
        file: file.rel_path.clone(),
        line,
        message,
    };
    match file.waiver_for(rule, line) {
        Some(idx) => {
            ledger.used.insert((file.rel_path.clone(), idx));
            report.waived.push(WaivedFinding {
                reason: file.waivers[idx].reason.clone(),
                finding,
            });
        }
        None => report.findings.push(finding),
    }
}

/// Records a finding that can never be waived (meta/syntax errors).
pub fn emit_unwaivable(
    report: &mut Report,
    rule: &'static str,
    file: &str,
    line: u32,
    message: String,
) {
    report.findings.push(Finding {
        rule,
        file: file.to_owned(),
        line,
        message,
    });
}

/// Matches `needle` as a token sequence at position `i` of `toks`,
/// where each needle element is either an identifier (`"ident"`) or a
/// single punctuation character (`"("`).
pub fn seq_at(toks: &[crate::lexer::Tok], i: usize, needle: &[&str]) -> bool {
    if i + needle.len() > toks.len() {
        return false;
    }
    needle.iter().enumerate().all(|(k, &pat)| {
        let t = &toks[i + k];
        if pat.len() == 1
            && !pat
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            t.is_punct(pat.chars().next().unwrap_or(' '))
        } else {
            t.is_ident(pat)
        }
    })
}
