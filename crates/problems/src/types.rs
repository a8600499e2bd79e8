//! Core types for the 17-problem benchmark set (paper Table II).

use std::fmt;
use std::sync::{Mutex, OnceLock};

use vgen_verilog::SourceFile;

/// Problem difficulty tier from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Difficulty {
    /// Problems 1–4.
    Basic,
    /// Problems 5–12.
    Intermediate,
    /// Problems 13–17.
    Advanced,
}

impl Difficulty {
    /// All tiers in ascending order.
    pub const ALL: [Difficulty; 3] = [
        Difficulty::Basic,
        Difficulty::Intermediate,
        Difficulty::Advanced,
    ];
}

impl fmt::Display for Difficulty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Difficulty::Basic => "Basic",
            Difficulty::Intermediate => "Intermediate",
            Difficulty::Advanced => "Advanced",
        };
        f.write_str(s)
    }
}

/// Prompt detail level from §IV-B: Low has only the leading description and
/// module header; Medium adds signal-level comments; High approaches
/// pseudo-code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PromptLevel {
    /// Terse: description comment + header + internal declarations.
    Low,
    /// Medium: adds comments describing behaviour via signal names.
    Medium,
    /// High: pseudo-code-like step-by-step comments.
    High,
}

impl PromptLevel {
    /// All levels in ascending detail order.
    pub const ALL: [PromptLevel; 3] = [PromptLevel::Low, PromptLevel::Medium, PromptLevel::High];

    /// Single-letter tag used in the paper's tables.
    pub fn tag(self) -> &'static str {
        match self {
            PromptLevel::Low => "L",
            PromptLevel::Medium => "M",
            PromptLevel::High => "H",
        }
    }
}

impl fmt::Display for PromptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One benchmark problem: prompts at three detail levels, reference
/// solutions, and a self-checking testbench.
///
/// A *prompt* always opens the DUT module (ending inside its body); a
/// *solution body* is completion text that closes it. The same body
/// completes all three prompt levels — they differ only in comments.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Problem number, 1–17 (Table II).
    pub id: u8,
    /// Short name, e.g. "A 1-to-12 counter".
    pub name: &'static str,
    /// Name of the module the prompts open (the testbench instantiates it).
    pub module_name: &'static str,
    /// Difficulty tier.
    pub difficulty: Difficulty,
    /// Prompts indexed L, M, H.
    pub prompts: [&'static str; 3],
    /// The canonical correct solution body.
    pub reference_body: &'static str,
    /// Alternate correct solution bodies (different idioms; all must pass).
    pub alternate_bodies: &'static [&'static str],
    /// Self-checking testbench; prints `ALL TESTS PASSED` on success.
    pub testbench: &'static str,
}

impl Problem {
    /// The prompt at a given detail level.
    pub fn prompt(&self, level: PromptLevel) -> &'static str {
        match level {
            PromptLevel::Low => self.prompts[0],
            PromptLevel::Medium => self.prompts[1],
            PromptLevel::High => self.prompts[2],
        }
    }

    /// Assembles a complete candidate module from a solution body, using the
    /// Low prompt (comments don't affect simulation).
    pub fn assemble(&self, body: &str) -> String {
        let prompt = self.prompt(PromptLevel::Low);
        let mut src = String::with_capacity(prompt.len() + body.len() + 1);
        src.push_str(prompt);
        if !prompt.ends_with('\n') {
            src.push('\n');
        }
        src.push_str(body);
        src
    }

    /// The canonical full solution source (Low prompt + reference body).
    pub fn reference_source(&self) -> String {
        self.assemble(self.reference_body)
    }

    /// All correct solution sources: canonical plus alternates.
    pub fn all_solutions(&self) -> Vec<String> {
        let mut v = vec![self.reference_source()];
        v.extend(self.alternate_bodies.iter().map(|b| self.assemble(b)));
        v
    }

    /// The testbench, parsed once per process and shared by every check
    /// of this problem (a candidate is elaborated together with it rather
    /// than re-parsed as one concatenated text).
    ///
    /// # Panics
    ///
    /// If the testbench does not parse; every catalog testbench does.
    pub fn testbench_ast(&self) -> &'static SourceFile {
        static CATALOG: OnceLock<Vec<OnceLock<SourceFile>>> = OnceLock::new();
        static OTHERS: Mutex<Vec<(&'static str, &'static SourceFile)>> = Mutex::new(Vec::new());
        let parse = || {
            vgen_verilog::parse(self.testbench)
                .unwrap_or_else(|e| panic!("problem {} testbench: {e}", self.id))
        };
        // Catalog problems get a slot by id; anything else (a hand-built
        // `Problem`) is keyed by its testbench text.
        if crate::problem(self.id).is_some_and(|p| std::ptr::eq(p.testbench, self.testbench)) {
            let table = CATALOG.get_or_init(|| {
                let n = crate::problems().len() + crate::extended_problems().len();
                (0..n).map(|_| OnceLock::new()).collect()
            });
            return table[usize::from(self.id) - 1].get_or_init(parse);
        }
        let mut others = OTHERS.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, ast)) = others.iter().find(|(tb, _)| *tb == self.testbench) {
            return ast;
        }
        let ast: &'static SourceFile = Box::leak(Box::new(parse()));
        others.push((self.testbench, ast));
        ast
    }
}

/// The marker the harness looks for in testbench output (see DESIGN.md).
pub const PASS_MARKER: &str = "ALL TESTS PASSED";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difficulty_ordering() {
        assert!(Difficulty::Basic < Difficulty::Advanced);
        assert_eq!(Difficulty::ALL.len(), 3);
    }

    #[test]
    fn prompt_level_tags() {
        assert_eq!(PromptLevel::Low.tag(), "L");
        assert_eq!(format!("{}", PromptLevel::High), "H");
    }
}
