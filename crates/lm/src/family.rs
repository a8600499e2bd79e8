//! The calibrated family engine: a generative model of the paper's six
//! LLMs.
//!
//! Multi-GPU fine-tuning of 0.35B–16B transformers is the unreproducible
//! gate in this paper (see DESIGN.md). This engine substitutes a
//! *distribution over Verilog candidates* per (model, tuning, problem,
//! prompt level, temperature), anchored to the paper's measured pass rates
//! (Tables III and IV) and its temperature/size/detail trends (Figs 6–7):
//!
//! * a **compile anchor** per (model, difficulty) from Table III,
//! * a **functional anchor** per (model, difficulty, level) from Table IV,
//! * an exponential **temperature decay** (§V-B.1),
//! * per-problem multipliers reproducing the §VI failure analysis
//!   (problems 7 and 12 never pass; 9 almost never),
//! * a small **corpus factor** for the GitHub+books ablation (+1.4%).
//!
//! Crucially the engine emits *real Verilog text*: correct candidates come
//! from verified solution banks; functional failures from AST mutants
//! verified to compile-but-fail; compile failures from corrupted text
//! verified to fail the parser. Every candidate still flows through the
//! real compile+simulate pipeline downstream — the harness measures, it
//! does not trust.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vgen_corpus::CorpusSource;
use vgen_problems::{Difficulty, Problem, PromptLevel};
use vgen_verilog::SourceFile;

use crate::engine::{Completion, CompletionEngine};
use crate::latency::sample_seconds;
use crate::mutate::{SemanticMutants, SyntaxMutants};
use crate::registry::{ModelFamily, ModelId, Tuning};

/// Compile-rate anchor from Table III (best temperature, n = 10).
pub fn compile_anchor(model: ModelId, difficulty: Difficulty) -> f64 {
    use Difficulty::*;
    use ModelFamily::*;
    use Tuning::*;
    let (b, i, a) = match (model.family, model.tuning) {
        (Megatron355M, Pretrained) => (0.000, 0.000, 0.000),
        (Megatron355M, FineTuned) => (0.730, 0.391, 0.165),
        (CodeGen2B, Pretrained) => (0.080, 0.065, 0.176),
        (CodeGen2B, FineTuned) => (0.902, 0.612, 0.592),
        (CodeGen6B, Pretrained) => (0.052, 0.152, 0.187),
        (CodeGen6B, FineTuned) => (0.987, 0.689, 0.599),
        (J1Large7B, Pretrained) => (0.182, 0.176, 0.108),
        (J1Large7B, FineTuned) => (0.882, 0.635, 0.588),
        (CodeGen16B, Pretrained) => (0.132, 0.203, 0.240),
        (CodeGen16B, FineTuned) => (0.942, 0.728, 0.596),
        (CodeDavinci002, _) => (0.847, 0.452, 0.569),
    };
    match difficulty {
        Basic => b,
        Intermediate => i,
        Advanced => a,
    }
}

/// Functional pass-rate anchor from Table IV (best temperature, n = 10),
/// resolved per prompt detail level.
pub fn functional_anchor(model: ModelId, difficulty: Difficulty, level: PromptLevel) -> f64 {
    use Difficulty::*;
    use ModelFamily::*;
    use Tuning::*;
    // Rows: [basic L M H, intermediate L M H, advanced L M H].
    let row: [f64; 9] = match (model.family, model.tuning) {
        (Megatron355M, Pretrained) => [0.0; 9],
        (Megatron355M, FineTuned) => [
            0.170, 0.591, 0.245, 0.043, 0.018, 0.025, 0.000, 0.000, 0.000,
        ],
        (CodeGen2B, Pretrained) => [
            0.000, 0.000, 0.000, 0.000, 0.000, 0.000, 0.000, 0.016, 0.020,
        ],
        (CodeGen2B, FineTuned) => [
            0.835, 0.350, 0.630, 0.130, 0.092, 0.163, 0.132, 0.048, 0.068,
        ],
        (CodeGen6B, Pretrained) => [
            0.000, 0.000, 0.000, 0.000, 0.000, 0.013, 0.000, 0.000, 0.000,
        ],
        (CodeGen6B, FineTuned) => [
            1.000, 0.500, 0.760, 0.135, 0.150, 0.168, 0.284, 0.164, 0.164,
        ],
        (J1Large7B, Pretrained) => [
            0.044, 0.058, 0.067, 0.000, 0.000, 0.021, 0.000, 0.000, 0.000,
        ],
        (J1Large7B, FineTuned) => [
            0.388, 0.283, 0.342, 0.125, 0.075, 0.200, 0.000, 0.000, 0.000,
        ],
        (CodeGen16B, Pretrained) => [
            0.000, 0.085, 0.055, 0.035, 0.003, 0.045, 0.012, 0.000, 0.016,
        ],
        (CodeGen16B, FineTuned) => [
            0.745, 0.720, 0.745, 0.213, 0.270, 0.255, 0.246, 0.290, 0.294,
        ],
        (CodeDavinci002, _) => [
            0.520, 0.685, 0.775, 0.175, 0.200, 0.150, 0.156, 0.184, 0.344,
        ],
    };
    let d = match difficulty {
        Basic => 0,
        Intermediate => 3,
        Advanced => 6,
    };
    let l = match level {
        PromptLevel::Low => 0,
        PromptLevel::Medium => 1,
        PromptLevel::High => 2,
    };
    row[d + l]
}

/// Exponential temperature decay (§V-B.1: "Pass@(scenario·10) has the
/// highest value for t=0.1 and degrades exponentially with temperature").
/// Anchors are defined at t = 0.1.
pub fn temperature_factor(t: f64, decay: f64) -> f64 {
    (-decay * (t - 0.1).max(0.0)).exp()
}

/// Decay constant for compile success (syntax survives heat better).
pub const COMPILE_DECAY: f64 = 0.9;
/// Decay constant for functional success.
pub const FUNCTIONAL_DECAY: f64 = 1.8;

/// Mild completions-per-prompt effect (§V-B.2, Fig 6 right panel):
/// n = 1 is slightly better than n = 10; n = 25 recovers part of it.
pub fn n_factor(n: usize) -> f64 {
    match n {
        0..=1 => 1.06,
        2..=10 => 1.0,
        _ => 1.03,
    }
}

/// Per-problem multiplier reproducing the §VI failure analysis: problems 7
/// (LFSR) and 12 (truth table) never pass even for CodeGen-16B FT; problem
/// 9 (shift/rotate) passes once in 540. The remaining problems in each
/// difficulty tier compensate so the tier mean stays at the anchor.
pub fn problem_multiplier(problem_id: u8) -> f64 {
    match problem_id {
        7 | 12 => 0.0,
        9 => 0.02,
        // 5 of the 8 intermediate problems share the mass of the three
        // crippled ones: 8 / 5 ≈ 1.6 keeps the tier mean at 1.
        5 | 6 | 8 | 10 | 11 => 1.596,
        _ => 1.0,
    }
}

/// Per-problem multiplier under the *engineered* prompts of
/// [`vgen_problems::engineered_prompt`] — the paper's §VI prognosis made
/// concrete: problem 7's failure is prompt-fixable ("a better prompt might
/// yield a correct result"), problem 9's partially so, while problem 12's
/// stems from "insufficient diversity in the training corpus" and no prompt
/// fixes it.
pub fn engineered_multiplier(problem_id: u8) -> f64 {
    match problem_id {
        7 => 0.70,
        9 => 0.55,
        12 => 0.0,
        other => problem_multiplier(other),
    }
}

/// Functional-rate bonus for fine-tuning on GitHub + textbooks instead of
/// GitHub alone (§VI ablation: "option (b) is marginally better (1.4%)").
pub fn corpus_factor(source: CorpusSource) -> f64 {
    match source {
        CorpusSource::GithubOnly => 1.0,
        CorpusSource::GithubAndBooks => 1.014,
    }
}

/// Verified candidate pools for one problem.
#[derive(Debug, Clone)]
pub struct MutantBank {
    /// Complete sources that pass the testbench.
    pub correct: Vec<String>,
    /// Complete sources that compile but fail the testbench.
    pub functional_fail: Vec<String>,
    /// Texts that fail to compile.
    pub syntax_fail: Vec<String>,
}

/// Builds (and verifies) the candidate bank for a problem.
///
/// Semantic mutants are kept only if they elaborate *and* fail the
/// testbench; corrupted texts only if they fail the parser. An empty-body
/// candidate (outputs left `x`) guarantees the functional pool is never
/// empty, and a torn-off header guarantees the syntax pool is never empty.
///
/// A pure function of its arguments, so banks can be built in any order
/// and on any thread (see [`FamilyEngine`]'s `prepare`).
pub fn build_bank(problem: &Problem, seed: u64, per_pool: usize) -> MutantBank {
    let _span = vgen_obs::span("bank.build");
    let reference = problem.reference_source();
    // Parsed once per bank and dropped with it: unlike the checker, a
    // bank builder need not hold every testbench AST for the process's
    // life (a simulation-only process builds banks for all problems).
    let testbench = vgen_verilog::parse(problem.testbench).ok();
    // Both mutant streams are lazy: a pool stops pulling once it is full,
    // so mutants it would never look at are not rendered.
    let mut functional_fail = vec![problem.assemble("endmodule\n")];
    let mut semantic = SemanticMutants::new(&reference, seed, per_pool * 3);
    while functional_fail.len() < per_pool {
        let Some((mutant, _)) = semantic.next() else {
            break;
        };
        let Some(file) = compiled(&mutant) else {
            continue;
        };
        if !passes_testbench(&file, testbench.as_ref()) {
            functional_fail.push(mutant);
        }
    }
    // Syntax mutants already failed the parser, so none of them compiles.
    let mut syntax_fail = vec![problem.assemble("always @( begin\n")];
    let missing = per_pool.saturating_sub(syntax_fail.len());
    syntax_fail.extend(
        SyntaxMutants::new(&reference, seed ^ 0xBAD, per_pool)
            .take(missing)
            .map(|(mutant, _)| mutant),
    );
    MutantBank {
        correct: problem.all_solutions(),
        functional_fail,
        syntax_fail,
    }
}

/// The harness-level compile check: parse plus elaboration of the DUT.
pub fn compiles(source: &str) -> bool {
    compiled(source).is_some()
}

/// The parsed DUT when it passes [`compiles`].
fn compiled(source: &str) -> Option<SourceFile> {
    let file = vgen_verilog::parse(source).ok()?;
    vgen_sim::elab::elaborate_first(&file).ok()?;
    Some(file)
}

/// Whether a parsed DUT passes a parsed testbench (never, when the
/// testbench did not parse).
fn passes_testbench(dut: &SourceFile, testbench: Option<&SourceFile>) -> bool {
    let Some(tb) = testbench else {
        return false;
    };
    let unlimited = vgen_obs::CancelToken::unlimited();
    match vgen_sim::elab::elaborate_files(&[dut, tb], "tb", &unlimited) {
        Ok(design) => vgen_sim::Simulator::with_config(design, vgen_sim::SimConfig::default())
            .run()
            .stdout
            .contains(vgen_problems::PASS_MARKER),
        Err(_) => false,
    }
}

/// The calibrated engine for one (family, tuning) row.
#[derive(Debug)]
pub struct FamilyEngine {
    model: ModelId,
    corpus: CorpusSource,
    seed: u64,
    bank_size: usize,
    engineered_prompts: bool,
    banks: HashMap<u8, MutantBank>,
}

impl FamilyEngine {
    /// Creates an engine for a model row, fine-tuned (when applicable) on
    /// the given corpus configuration.
    pub fn new(model: ModelId, corpus: CorpusSource, seed: u64) -> Self {
        FamilyEngine {
            model,
            corpus,
            seed,
            bank_size: 10,
            engineered_prompts: false,
            banks: HashMap::new(),
        }
    }

    /// Switches to the engineered prompts of
    /// [`vgen_problems::engineered_prompt`] for the §VI failure problems
    /// (see [`engineered_multiplier`]).
    pub fn with_engineered_prompts(mut self) -> Self {
        self.engineered_prompts = true;
        self
    }

    /// The model row this engine simulates.
    pub fn model(&self) -> ModelId {
        self.model
    }

    /// Probability that one completion compiles, for a scenario.
    pub fn p_compile(&self, difficulty: Difficulty, t: f64) -> f64 {
        (compile_anchor(self.model, difficulty) * temperature_factor(t, COMPILE_DECAY))
            .clamp(0.0, 1.0)
    }

    /// Probability that one completion passes the testbench.
    pub fn p_functional(&self, problem: &Problem, level: PromptLevel, t: f64, n: usize) -> f64 {
        let multiplier = if self.engineered_prompts {
            engineered_multiplier(problem.id)
        } else {
            problem_multiplier(problem.id)
        };
        let base = functional_anchor(self.model, problem.difficulty, level)
            * temperature_factor(t, FUNCTIONAL_DECAY)
            * multiplier
            * n_factor(n);
        let boosted = if self.model.tuning == Tuning::FineTuned {
            base * corpus_factor(self.corpus)
        } else {
            base
        };
        boosted
            .clamp(0.0, 1.0)
            .min(self.p_compile(problem.difficulty, t))
    }

    /// The bank for `problem`, built on first use.
    fn bank_for(&mut self, problem: &Problem) -> &MutantBank {
        let seed = self.seed;
        let size = self.bank_size;
        self.banks
            .entry(problem.id)
            .or_insert_with(|| build_bank(problem, seed ^ problem.id as u64, size))
    }

    fn request_rng(&self, problem: &Problem, level: PromptLevel, t: f64, n: usize) -> StdRng {
        let mut h = DefaultHasher::new();
        self.seed.hash(&mut h);
        self.model.hash(&mut h);
        problem.id.hash(&mut h);
        level.hash(&mut h);
        t.to_bits().hash(&mut h);
        n.hash(&mut h);
        StdRng::seed_from_u64(h.finish())
    }
}

impl CompletionEngine for FamilyEngine {
    fn name(&self) -> String {
        format!("{}", self.model)
    }

    fn generate(
        &mut self,
        problem: &Problem,
        level: PromptLevel,
        temperature: f64,
        n: usize,
    ) -> Vec<Completion> {
        let _span = vgen_obs::span("generate");
        let p_compile = self.p_compile(problem.difficulty, temperature);
        let p_functional = self.p_functional(problem, level, temperature, n);
        let model = self.model;
        let mut rng = self.request_rng(problem, level, temperature, n);
        let bank = self.bank_for(problem);
        (0..n)
            .map(|_| {
                let text = if !rng.gen_bool(p_compile) {
                    pick(&bank.syntax_fail, &mut rng)
                } else if rng.gen_bool((p_functional / p_compile.max(1e-9)).clamp(0.0, 1.0)) {
                    let mut t = pick(&bank.correct, &mut rng);
                    // LLMs over-generate past the module ~20% of the time;
                    // the harness truncation must cut this.
                    if rng.gen_bool(0.2) {
                        t.push_str(
                            "\n// continued output\nmodule scratch(input t_unused);\nendmodule\n",
                        );
                    }
                    t
                } else {
                    pick(&bank.functional_fail, &mut rng)
                };
                Completion {
                    text,
                    latency_s: sample_seconds(model, &mut rng),
                }
            })
            .collect()
    }

    /// Builds every missing bank for `problems` on up to `jobs` threads.
    /// [`build_bank`] is pure, so the banks (and every later `generate`)
    /// are the same as the lazy build's.
    fn prepare(&mut self, problems: &[&Problem], jobs: usize) {
        let mut missing: Vec<&Problem> = Vec::new();
        for &p in problems {
            if !self.banks.contains_key(&p.id) && !missing.iter().any(|m| m.id == p.id) {
                missing.push(p);
            }
        }
        let (seed, size) = (self.seed, self.bank_size);
        let build = |p: &Problem| (p.id, build_bank(p, seed ^ p.id as u64, size));
        let workers = jobs.min(missing.len());
        if workers <= 1 {
            self.banks.extend(missing.into_iter().map(build));
            return;
        }
        let next = AtomicUsize::new(0);
        let built: Vec<(u8, MutantBank)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|i| {
                    std::thread::Builder::new()
                        .name(format!("vgen-bank-{i}"))
                        .spawn_scoped(scope, || {
                            let mut out = Vec::new();
                            while let Some(&p) = missing.get(next.fetch_add(1, Ordering::Relaxed)) {
                                out.push(build(p));
                            }
                            out
                        })
                        .expect("spawn bank builder")
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        self.banks.extend(built);
    }
}

fn pick(pool: &[String], rng: &mut StdRng) -> String {
    pool[rng.gen_range(0..pool.len())].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgen_problems::problems;

    fn cg16_ft() -> ModelId {
        ModelId::new(ModelFamily::CodeGen16B, Tuning::FineTuned)
    }

    #[test]
    fn anchors_match_paper_tables() {
        // Spot checks straight out of Tables III and IV.
        assert_eq!(compile_anchor(cg16_ft(), Difficulty::Intermediate), 0.728);
        assert_eq!(
            functional_anchor(cg16_ft(), Difficulty::Basic, PromptLevel::Medium),
            0.720
        );
        let davinci = ModelId::new(ModelFamily::CodeDavinci002, Tuning::Pretrained);
        assert_eq!(
            functional_anchor(davinci, Difficulty::Advanced, PromptLevel::High),
            0.344
        );
        let meg_pt = ModelId::new(ModelFamily::Megatron355M, Tuning::Pretrained);
        assert_eq!(compile_anchor(meg_pt, Difficulty::Basic), 0.0);
    }

    #[test]
    fn temperature_factor_decays() {
        assert!((temperature_factor(0.1, FUNCTIONAL_DECAY) - 1.0).abs() < 1e-12);
        let t3 = temperature_factor(0.3, FUNCTIONAL_DECAY);
        let t10 = temperature_factor(1.0, FUNCTIONAL_DECAY);
        assert!(t3 < 1.0 && t10 < t3);
        assert!(t10 < 0.25, "t=1.0 should be strongly degraded: {t10}");
    }

    #[test]
    fn intermediate_multipliers_average_to_one() {
        let ids = [5u8, 6, 7, 8, 9, 10, 11, 12];
        let mean: f64 = ids.iter().map(|&i| problem_multiplier(i)).sum::<f64>() / ids.len() as f64;
        assert!((mean - 1.0).abs() < 0.01, "tier mean {mean}");
    }

    #[test]
    fn bank_pools_verified() {
        let p = &problems()[5]; // counter
        let bank = build_bank(p, 11, 6);
        assert!(!bank.correct.is_empty());
        assert!(!bank.functional_fail.is_empty());
        assert!(!bank.syntax_fail.is_empty());
        let tb = vgen_verilog::parse(p.testbench).ok();
        for c in &bank.correct {
            let file = compiled(c).expect("correct solution compiles");
            assert!(passes_testbench(&file, tb.as_ref()));
        }
        for f in &bank.functional_fail {
            let file = compiled(f);
            assert!(file.is_some(), "functional-fail mutant must compile:\n{f}");
            assert!(!passes_testbench(&file.unwrap(), tb.as_ref()));
        }
        for s in &bank.syntax_fail {
            assert!(!compiles(s));
        }
    }

    #[test]
    fn prepared_banks_equal_lazy_banks() {
        let ps: Vec<&Problem> = problems().iter().take(6).collect();
        // Duplicates and an already-built bank are skipped, not rebuilt.
        let mut asked = ps.clone();
        asked.push(ps[0]);
        for jobs in [1, 4] {
            let mut engine = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 42);
            engine.bank_for(ps[2]);
            engine.prepare(&asked, jobs);
            assert_eq!(engine.banks.len(), ps.len());
            for p in &ps {
                let lazy = build_bank(p, 42 ^ p.id as u64, 10);
                let built = &engine.banks[&p.id];
                assert_eq!(built.correct, lazy.correct, "jobs {jobs}, problem {}", p.id);
                assert_eq!(built.functional_fail, lazy.functional_fail);
                assert_eq!(built.syntax_fail, lazy.syntax_fail);
            }
        }
        // And generation after `prepare` matches generation without it.
        let mut lazy = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 42);
        let mut prepared = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 42);
        prepared.prepare(&ps, 2);
        for p in &ps {
            let a = lazy.generate(p, PromptLevel::Low, 0.5, 10);
            let b = prepared.generate(p, PromptLevel::Low, 0.5, 10);
            assert_eq!(a, b, "problem {}", p.id);
        }
    }

    #[test]
    fn generated_mix_tracks_probabilities() {
        let p = &problems()[1]; // AND gate (basic)
        let mut engine = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 5);
        let completions = engine.generate(p, PromptLevel::Medium, 0.1, 400);
        let compiled = completions
            .iter()
            .filter(|c| {
                let src = vgen_verilog::truncate::truncate_completion(&c.text);
                compiles(src)
            })
            .count();
        let rate = compiled as f64 / 400.0;
        let expect = engine.p_compile(Difficulty::Basic, 0.1);
        assert!(
            (rate - expect).abs() < 0.08,
            "compile rate {rate} should track anchor {expect}"
        );
    }

    #[test]
    fn crippled_problems_never_pass() {
        let p7 = &problems()[6];
        let engine = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 6);
        assert_eq!(engine.p_functional(p7, PromptLevel::High, 0.1, 10), 0.0);
    }

    #[test]
    fn functional_never_exceeds_compile() {
        for model in ModelId::all_evaluated() {
            let engine = FamilyEngine::new(model, CorpusSource::GithubOnly, 1);
            for p in problems() {
                for level in PromptLevel::ALL {
                    for &t in &[0.1, 0.5, 1.0] {
                        assert!(
                            engine.p_functional(p, level, t, 10)
                                <= engine.p_compile(p.difficulty, t) + 1e-12
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn books_ablation_helps_fine_tuned_only() {
        let p = &problems()[0];
        let ft_git = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 2);
        let ft_both = FamilyEngine::new(cg16_ft(), CorpusSource::GithubAndBooks, 2);
        assert!(
            ft_both.p_functional(p, PromptLevel::Low, 0.1, 10)
                > ft_git.p_functional(p, PromptLevel::Low, 0.1, 10)
        );
        let pt = ModelId::new(ModelFamily::CodeGen16B, Tuning::Pretrained);
        let pt_git = FamilyEngine::new(pt, CorpusSource::GithubOnly, 2);
        let pt_both = FamilyEngine::new(pt, CorpusSource::GithubAndBooks, 2);
        assert_eq!(
            pt_both.p_functional(p, PromptLevel::Low, 0.1, 10),
            pt_git.p_functional(p, PromptLevel::Low, 0.1, 10)
        );
    }

    #[test]
    fn engineered_prompts_recover_prompt_fixable_problems() {
        let p7 = &problems()[6]; // LFSR: prompt-fixable per §VI.
        let p12 = &problems()[11]; // Truth table: corpus problem, not fixable.
        let plain = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 4);
        let eng =
            FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 4).with_engineered_prompts();
        assert_eq!(plain.p_functional(p7, PromptLevel::High, 0.1, 10), 0.0);
        assert!(eng.p_functional(p7, PromptLevel::High, 0.1, 10) > 0.1);
        assert_eq!(eng.p_functional(p12, PromptLevel::High, 0.1, 10), 0.0);
        // Other problems are unaffected.
        let p6 = &problems()[5];
        assert_eq!(
            plain.p_functional(p6, PromptLevel::Low, 0.1, 10),
            eng.p_functional(p6, PromptLevel::Low, 0.1, 10)
        );
    }

    #[test]
    fn deterministic_generation() {
        let p = &problems()[3];
        let mut a = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 9);
        let mut b = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 9);
        let ca: Vec<String> = a
            .generate(p, PromptLevel::Low, 0.3, 10)
            .into_iter()
            .map(|c| c.text)
            .collect();
        let cb: Vec<String> = b
            .generate(p, PromptLevel::Low, 0.3, 10)
            .into_iter()
            .map(|c| c.text)
            .collect();
        assert_eq!(ca, cb);
    }
}
