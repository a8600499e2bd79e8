//! Long reference-comparison testbenches, VerilogEval style.
//!
//! For a problem, [`testbench`] emits a renamed copy of the reference
//! solution (`<module>__golden`) and a `tb` module that instantiates the
//! candidate and the golden copy side by side, drives both with the same
//! seeded `$random` stimulus for a fixed number of cycles, counts output
//! mismatches, and prints the pass marker when there are none. A
//! candidate is then simulated through the public entry points:
//! `vgen_verilog::parse` → `vgen_sim::elab::elaborate` →
//! `Simulator::with_config` → `run`, on the default backend.

use std::fmt::Write as _;

use vgen_problems::{Problem, PASS_MARKER};
use vgen_sim::{SimConfig, Simulator};

use crate::spans::now_ns;
use crate::stats::Rng;

/// Simulated time units per testbench cycle.
pub const PERIOD: u64 = 10;

/// One port of the DUT's ANSI header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    pub input: bool,
    pub name: String,
    /// Declared range text such as `[7:0]`, empty for one bit.
    pub range: String,
    pub signed: bool,
    pub bits: u32,
}

/// Parses the ANSI port list of `module <name>(...)` in `source`.
pub fn ports(source: &str, module: &str) -> Result<Vec<Port>, String> {
    let at = find_module(source, module).ok_or(format!("no `module {module}` header"))?;
    let open = source[at..].find('(').ok_or("header has no port list")? + at;
    let close = source[open..].find(')').ok_or("unterminated port list")? + open;
    let mut out: Vec<Port> = Vec::new();
    for decl in source[open + 1..close].split(',') {
        let mut toks: Vec<String> = Vec::new();
        // Split `[7:0]` off as its own token even when glued to a name.
        let spaced = decl.replace('[', " [").replace(']', "] ");
        for t in spaced.split_whitespace() {
            toks.push(t.to_string());
        }
        let name = toks.pop().ok_or("empty port declaration")?;
        let mut port = match out.last() {
            Some(prev) if toks.is_empty() => Port {
                name: name.clone(),
                ..prev.clone()
            },
            _ => Port {
                input: true,
                name: name.clone(),
                range: String::new(),
                signed: false,
                bits: 1,
            },
        };
        for t in &toks {
            match t.as_str() {
                "input" => port.input = true,
                "output" => port.input = false,
                "reg" | "wire" => {}
                "signed" => port.signed = true,
                r if r.starts_with('[') => {
                    let (msb, lsb) = r
                        .trim_matches(|c| c == '[' || c == ']')
                        .split_once(':')
                        .ok_or(format!("unsupported range {r}"))?;
                    let msb: u32 = msb.trim().parse().map_err(|_| format!("range {r}"))?;
                    let lsb: u32 = lsb.trim().parse().map_err(|_| format!("range {r}"))?;
                    port.range = r.to_string();
                    port.bits = msb.abs_diff(lsb) + 1;
                }
                other => return Err(format!("unsupported port token `{other}`")),
            }
        }
        out.push(port);
    }
    Ok(out)
}

/// Byte offset of `module <name>` followed by a non-identifier character.
fn find_module(source: &str, module: &str) -> Option<usize> {
    let needle = format!("module {module}");
    let mut from = 0;
    while let Some(i) = source[from..].find(&needle) {
        let at = from + i;
        let next = source[at + needle.len()..].chars().next();
        if !matches!(next, Some(c) if c.is_alphanumeric() || c == '_' || c == '$') {
            return Some(at);
        }
        from = at + needle.len();
    }
    None
}

fn is_clock(p: &Port) -> bool {
    p.input && p.name == "clk"
}

fn is_reset(p: &Port) -> bool {
    p.input && (p.name == "reset" || p.name == "rst")
}

/// The golden copy plus the comparison testbench for `problem`, driving
/// `cycles` cycles of stimulus derived from `seed`.
pub fn testbench(problem: &Problem, seed: u64, cycles: u32) -> Result<String, String> {
    let module = problem.module_name;
    let reference = problem.reference_source();
    let ports = ports(&reference, module)?;
    let at = find_module(&reference, module).ok_or("reference lost its header")?;
    let golden = format!(
        "{}module {module}__golden{}",
        &reference[..at],
        &reference[at + "module ".len() + module.len()..]
    );
    let sequential = ports.iter().any(is_clock);
    let mut rng = Rng::new(seed, u64::from(problem.id));
    let skip = rng.below(256);
    let mask = rng.next() as u32;

    let mut tb = String::new();
    let w = &mut tb;
    let _ = writeln!(w, "module tb;");
    for p in &ports {
        let signed = if p.signed { " signed" } else { "" };
        if p.input {
            let _ = writeln!(w, "  reg{signed} {} {};", p.range, p.name);
        } else {
            let _ = writeln!(
                w,
                "  wire{signed} {} {n}_dut, {n}_gold;",
                p.range,
                n = p.name
            );
        }
    }
    let _ = writeln!(w, "  integer errors, cycle, i;\n  reg [31:0] r;");
    let conns = |suffix: &str| -> String {
        ports
            .iter()
            .map(|p| {
                if p.input {
                    format!(".{n}({n})", n = p.name)
                } else {
                    format!(".{n}({n}{suffix})", n = p.name)
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(w, "  {module} dut({});", conns("_dut"));
    let _ = writeln!(w, "  {module}__golden gold({});", conns("_gold"));
    let _ = writeln!(w, "  initial begin\n    errors = 0;");
    // The simulator's `$random` ignores seed arguments, so the seed picks
    // how far into the stream the stimulus starts and a mask over it.
    let _ = writeln!(w, "    for (i = 0; i < {skip}; i = i + 1) r = $random;");
    for p in ports.iter().filter(|p| p.input) {
        let v = if is_reset(p) { "1" } else { "0" };
        let _ = writeln!(w, "    {} = {v};", p.name);
    }
    let _ = writeln!(
        w,
        "    for (cycle = 0; cycle < {cycles}; cycle = cycle + 1) begin"
    );
    if sequential {
        let _ = writeln!(w, "      #{} clk = 1;\n      #1;", PERIOD / 2);
    } else {
        let _ = writeln!(w, "      #{};", PERIOD / 2);
    }
    for p in ports.iter().filter(|p| !p.input) {
        let _ = writeln!(
            w,
            "      if ({n}_dut !== {n}_gold) errors = errors + 1;",
            n = p.name
        );
    }
    for p in ports.iter().filter(|p| p.input && !is_clock(p)) {
        if is_reset(p) {
            let _ = writeln!(
                w,
                "      r = $random ^ 32'h{mask:08x}; {} = (cycle < 2) || (r[4:0] == 5'd0);",
                p.name
            );
        } else {
            let words = p.bits.div_ceil(32);
            let draws: Vec<String> = (0..words)
                .map(|_| format!("($random ^ 32'h{mask:08x})"))
                .collect();
            let _ = writeln!(w, "      {} = {{{}}};", p.name, draws.join(", "));
        }
    }
    if sequential {
        let _ = writeln!(w, "      #{} clk = 0;", PERIOD / 2 - 1);
    } else {
        let _ = writeln!(w, "      #{};", PERIOD / 2);
    }
    let _ = writeln!(w, "    end");
    let _ = writeln!(
        w,
        "    if (errors == 0) $display(\"{PASS_MARKER}\");\n    else $display(\"MISMATCHES: %0d\", errors);\n    $finish;\n  end\nendmodule"
    );
    Ok(format!("{golden}\n{tb}"))
}

/// What one candidate run did, with the boundaries of its four stages
/// (parse, elaborate, lower, run) on the benchmark clock.
#[derive(Debug, Clone, PartialEq)]
pub struct CandRun {
    pub verdict: String,
    pub steps: u64,
    pub cycles: u64,
    pub marks: [u64; 5],
}

/// Simulates `candidate` against a generated testbench text.
pub fn run_candidate(candidate: &str, testbench: &str) -> CandRun {
    let src = format!("{candidate}\n{testbench}");
    let t0 = now_ns();
    let parsed = vgen_verilog::parse(&src);
    let t1 = now_ns();
    let file = match parsed {
        Ok(f) => f,
        Err(e) => return failed(format!("parse-error: {e}"), [t0, t1, t1, t1, t1]),
    };
    let elaborated = vgen_sim::elab::elaborate(&file, "tb");
    let t2 = now_ns();
    let design = match elaborated {
        Ok(d) => d,
        Err(e) => return failed(format!("elab-error: {e}"), [t0, t1, t2, t2, t2]),
    };
    let sim = Simulator::with_config(design, SimConfig::default());
    let t3 = now_ns();
    let out = sim.run();
    let t4 = now_ns();
    let verdict = if out.stdout.contains(PASS_MARKER) {
        "pass".to_string()
    } else if let Some(line) = out.stdout.lines().find(|l| l.starts_with("MISMATCHES:")) {
        line.to_string()
    } else {
        format!("stopped: {:?}", out.reason)
    };
    CandRun {
        verdict,
        steps: out.steps,
        cycles: out.time / PERIOD,
        marks: [t0, t1, t2, t3, t4],
    }
}

fn failed(verdict: String, marks: [u64; 5]) -> CandRun {
    CandRun {
        verdict,
        steps: 0,
        cycles: 0,
        marks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_problems() -> Vec<&'static Problem> {
        (1..=25)
            .map(|id| vgen_problems::problem(id).expect("problem"))
            .collect()
    }

    #[test]
    fn parses_every_catalog_header() {
        for p in all_problems() {
            let ports = ports(&p.reference_source(), p.module_name).expect("ports");
            assert!(ports.iter().any(|x| x.input), "problem {}", p.id);
            assert!(ports.iter().any(|x| !x.input), "problem {}", p.id);
        }
    }

    #[test]
    fn testbench_is_deterministic_in_its_seed() {
        let p = vgen_problems::problem(14).expect("p14");
        assert_eq!(testbench(p, 5, 100), testbench(p, 5, 100));
        assert_ne!(testbench(p, 5, 100), testbench(p, 6, 100));
    }

    #[test]
    fn reference_and_alternates_pass_for_problems_1_to_25() {
        for p in all_problems() {
            let tb = testbench(p, 3, 300).expect("testbench");
            for (k, cand) in p.all_solutions().iter().enumerate() {
                let run = run_candidate(cand, &tb);
                assert_eq!(run.verdict, "pass", "problem {} solution {k}:\n{tb}", p.id);
                assert_eq!(run.cycles, 300, "problem {} solution {k}", p.id);
            }
        }
    }

    #[test]
    fn a_wrong_candidate_mismatches() {
        let p = vgen_problems::problem(2).expect("p2");
        let wrong = p.assemble("assign y = a | b;\nendmodule\n");
        let run = run_candidate(&wrong, &testbench(p, 1, 200).expect("testbench"));
        assert!(run.verdict.starts_with("MISMATCHES:"), "{}", run.verdict);
    }
}
