//! Backend parity: the bytecode VM must be observationally identical to
//! the tree-walking interpreter on *arbitrary* elaborated designs — same stdout, same stop reason, same
//! final simulation time, same step count, same VCD text, and the same
//! final value of every signal and memory word.
//!
//! Two generators feed the property. The first is the seeded
//! recursive-descent sampler from `lint_totality.rs`, re-aimed at
//! simulation: every identifier is declared, processes mix delays, edge
//! waits, level waits, blocking and non-blocking assignment, and some cases
//! never terminate on their own — which is the point, because the
//! budget/cancel classification must also match exactly (step-for-step)
//! across backends. The second emits multi-always *synchronous* designs —
//! several `always @(posedge clk)` processes over a shared clock with
//! cross-process register reads, so non-blocking commits and same-edge
//! wake ordering are exercised densely.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vgen::obs::CancelToken;
use vgen::sim::{SimBackend, SimConfig, SimOutput, Simulator, State};

// --------------------------------------------------- random source synthesis

/// Declared state the generator may read and write.
fn gen_ident(rng: &mut StdRng) -> String {
    const NAMES: [&str; 7] = ["a", "b", "clk", "q0", "q1", "q2", "wide"];
    NAMES[rng.gen_range(0..NAMES.len())].to_string()
}

fn gen_expr(rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 || rng.gen_range(0u32..4) == 0 {
        return match rng.gen_range(0u32..4) {
            0 => gen_ident(rng),
            1 => rng.gen_range(0u64..1024).to_string(),
            2 => format!("{}'d{}", rng.gen_range(1u32..64), rng.gen_range(0u64..256)),
            _ => "1'bx".to_string(),
        };
    }
    match rng.gen_range(0u32..8) {
        0 => {
            const OPS: [&str; 10] = ["+", "-", "*", "&", "|", "^", "==", "<", "<<", ">>"];
            let op = OPS[rng.gen_range(0..OPS.len())];
            format!(
                "({} {op} {})",
                gen_expr(rng, depth - 1),
                gen_expr(rng, depth - 1)
            )
        }
        1 => format!(
            "({} ? {} : {})",
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1)
        ),
        2 => format!("q2[{}:{}]", rng.gen_range(4i64..16), rng.gen_range(0i64..4)),
        3 => format!("{}[{}]", gen_ident(rng), rng.gen_range(0i64..8)),
        4 => format!("mem[{}]", rng.gen_range(0i64..4)),
        5 => {
            let parts: Vec<String> = (0..rng.gen_range(1usize..4))
                .map(|_| gen_expr(rng, depth - 1))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
        6 => format!("~{}", gen_expr(rng, depth - 1)),
        _ => format!("|{}", gen_expr(rng, depth - 1)),
    }
}

fn gen_stmt(rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 || rng.gen_range(0u32..3) == 0 {
        return match rng.gen_range(0u32..8) {
            0..=3 => {
                const TARGETS: [&str; 5] = ["q0", "q1", "q2", "wide", "mem[1]"];
                let target = TARGETS[rng.gen_range(0..TARGETS.len())];
                let op = if rng.gen::<bool>() { "=" } else { "<=" };
                format!("{target} {op} {};", gen_expr(rng, 3))
            }
            4 => format!("#{} q0 = {};", rng.gen_range(1u64..20), gen_expr(rng, 2)),
            5 => "$display(\"t=%0d q2=%d q0=%b\", $time, q2, q0);".to_string(),
            6 => format!("wait ({}) q1 = ~q1;", gen_expr(rng, 1)),
            _ => "@(posedge clk) q2 = q2 + 1;".to_string(),
        };
    }
    match rng.gen_range(0u32..6) {
        0 => format!("if ({}) {}", gen_expr(rng, 2), gen_stmt(rng, depth - 1)),
        1 => format!(
            "if ({}) {} else {}",
            gen_expr(rng, 2),
            gen_stmt(rng, depth - 1),
            gen_stmt(rng, depth - 1)
        ),
        2 => format!(
            "case ({}) 2'd0: {} default: {} endcase",
            gen_expr(rng, 2),
            gen_stmt(rng, depth - 1),
            gen_stmt(rng, depth - 1)
        ),
        3 => format!(
            "begin {} {} end",
            gen_stmt(rng, depth - 1),
            gen_stmt(rng, depth - 1)
        ),
        4 => format!(
            "repeat ({}) {}",
            rng.gen_range(0u64..4),
            gen_stmt(rng, depth - 1)
        ),
        _ => format!("for (i = 0; i < 4; i = i + 1) {}", gen_stmt(rng, depth - 1)),
    }
}

fn gen_item(rng: &mut StdRng) -> String {
    const SENS: [&str; 5] = [
        "@*",
        "@(posedge clk)",
        "@(a)",
        "@(a or b)",
        "@(posedge clk or negedge b)",
    ];
    match rng.gen_range(0u32..5) {
        0 => format!("assign y = {};", gen_expr(rng, 2)),
        1 => format!(
            "always {} begin {} end",
            SENS[rng.gen_range(0..SENS.len())],
            gen_stmt(rng, 3)
        ),
        2 => format!(
            "initial begin #{} {} end",
            rng.gen_range(0u64..30),
            gen_stmt(rng, 3)
        ),
        3 => format!("always #{} clk = ~clk;", rng.gen_range(1u64..10)),
        _ => format!("initial begin {} end", gen_stmt(rng, 3)),
    }
}

/// A self-contained testbench module; roughly half of the sampled designs
/// terminate via `$finish`, the rest run into the time or step budget.
fn gen_module(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let items: Vec<String> = (0..rng.gen_range(1usize..6))
        .map(|_| gen_item(&mut rng))
        .collect();
    let dump = if rng.gen::<bool>() { "$dumpvars;" } else { "" };
    let finish = if rng.gen::<bool>() {
        format!("initial begin #{} $finish; end", rng.gen_range(50u64..400))
    } else {
        String::new()
    };
    format!(
        "module fuzz;\n\
         reg a; reg b; reg clk;\n\
         reg [3:0] q0;\nreg q1;\nreg [15:0] q2;\nreg [79:0] wide;\n\
         reg [7:0] mem [0:3];\ninteger i;\nwire y;\n\
         initial begin {dump} a = 0; b = 1; clk = 0; q0 = 0; q1 = 0; q2 = 0; wide = 0; end\n\
         {}\n{finish}\nendmodule\n",
        items.join("\n")
    )
}

// ------------------------------------------- synchronous design synthesis

/// Registers available to synchronous process `p` (its own bank plus a
/// neighbour's, so processes read each other's registers).
fn sync_reg(rng: &mut StdRng, procs: usize) -> String {
    let p = rng.gen_range(0..procs);
    format!("r{}_{}", p, rng.gen_range(0..3))
}

/// Side-effect-free expression over registers and constants (no div/rem,
/// no x literals), so every sampled design stays synthesizable.
fn gen_sync_expr(rng: &mut StdRng, procs: usize, depth: u32) -> String {
    if depth == 0 || rng.gen_range(0u32..3) == 0 {
        return match rng.gen_range(0u32..3) {
            0 => sync_reg(rng, procs),
            1 => rng.gen_range(0u64..256).to_string(),
            _ => format!("{}'d{}", rng.gen_range(2u32..17), rng.gen_range(0u64..64)),
        };
    }
    match rng.gen_range(0u32..4) {
        0 => {
            const OPS: [&str; 10] = ["+", "-", "&", "|", "^", "==", "<", "<<", ">>", "*"];
            let op = OPS[rng.gen_range(0..OPS.len())];
            format!(
                "({} {op} {})",
                gen_sync_expr(rng, procs, depth - 1),
                gen_sync_expr(rng, procs, depth - 1)
            )
        }
        1 => format!(
            "({} ? {} : {})",
            gen_sync_expr(rng, procs, depth - 1),
            gen_sync_expr(rng, procs, depth - 1),
            gen_sync_expr(rng, procs, depth - 1)
        ),
        2 => format!("~({})", gen_sync_expr(rng, procs, depth - 1)),
        _ => format!("|({})", gen_sync_expr(rng, procs, depth - 1)),
    }
}

/// One statement of a synchronous body: non-blocking assignments under
/// optional if/else and case control, all registered on the same clock.
fn gen_sync_stmt(rng: &mut StdRng, p: usize, procs: usize, depth: u32) -> String {
    let target = format!("r{}_{}", p, rng.gen_range(0..3));
    if depth == 0 || rng.gen_range(0u32..3) == 0 {
        return format!("{target} <= {};", gen_sync_expr(rng, procs, 2));
    }
    match rng.gen_range(0u32..4) {
        0 => format!(
            "if ({}) {}",
            gen_sync_expr(rng, procs, 1),
            gen_sync_stmt(rng, p, procs, depth - 1)
        ),
        1 => format!(
            "if ({}) {} else {}",
            gen_sync_expr(rng, procs, 1),
            gen_sync_stmt(rng, p, procs, depth - 1),
            gen_sync_stmt(rng, p, procs, depth - 1)
        ),
        2 => format!(
            "case ({}) 8'd0: {} 8'd1: {} default: {} endcase",
            gen_sync_expr(rng, procs, 1),
            gen_sync_stmt(rng, p, procs, depth - 1),
            gen_sync_stmt(rng, p, procs, depth - 1),
            gen_sync_stmt(rng, p, procs, depth - 1)
        ),
        _ => format!(
            "begin {} {} end",
            gen_sync_stmt(rng, p, procs, depth - 1),
            gen_sync_stmt(rng, p, procs, depth - 1)
        ),
    }
}

/// A multi-always synchronous testbench: 2–4 `always @(posedge clk)`
/// processes over a shared clock, zero-initialized registers, and a
/// deterministic `$finish`.
fn gen_sync_module(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let procs = rng.gen_range(2usize..5);
    let mut decls = String::new();
    let mut init = String::from("clk = 0; ");
    for p in 0..procs {
        for i in 0..3 {
            let width = [8usize, 16, 64][rng.gen_range(0..3)];
            decls.push_str(&format!("reg [{}:0] r{p}_{i};\n", width - 1));
            init.push_str(&format!("r{p}_{i} = {}; ", rng.gen_range(0u64..16)));
        }
    }
    let bodies: Vec<String> = (0..procs)
        .map(|p| {
            let stmts: Vec<String> = (0..rng.gen_range(1usize..4))
                .map(|_| gen_sync_stmt(&mut rng, p, procs, 2))
                .collect();
            format!("always @(posedge clk) begin {} end", stmts.join(" "))
        })
        .collect();
    format!(
        "module fuzz;\nreg clk;\n{decls}\
         initial begin {init}end\n\
         always #5 clk = ~clk;\n\
         {}\n\
         initial #{} $finish;\nendmodule\n",
        bodies.join("\n"),
        rng.gen_range(100u64..400)
    )
}

// ------------------------------------------------------------------ harness

/// Parse + elaborate + run one backend; `None` when the sampled source does
/// not reach a runnable design (parity is vacuous there).
fn run_backend(
    src: &str,
    backend: SimBackend,
    cancel: Option<&CancelToken>,
) -> Option<(SimOutput, State)> {
    let file = vgen::verilog::parse(src).ok()?;
    let design = vgen::sim::elab::elaborate(&file, "fuzz").ok()?;
    let config = SimConfig::default()
        .with_max_time(2_000)
        .with_max_steps(20_000)
        .with_backend(backend);
    let mut sim = Simulator::with_config(design, config);
    if let Some(c) = cancel {
        sim = sim.cancelled_by(c.clone());
    }
    Some(sim.run_with_state())
}

/// Asserts full observational equality of the bytecode VM against the
/// interpreter's run.
fn assert_parity(src: &str, cancel: Option<&CancelToken>) -> Result<(), TestCaseError> {
    let interp = run_backend(src, SimBackend::Interp, cancel);
    let bytecode = run_backend(src, SimBackend::Bytecode, cancel);
    match (interp, bytecode) {
        (None, None) => {}
        (Some((io, is)), Some((bo, bs))) => {
            prop_assert_eq!(&io.stdout, &bo.stdout, "stdout diverged\n{}", src);
            prop_assert_eq!(io.reason, bo.reason, "stop reason diverged\n{}", src);
            prop_assert_eq!(io.time, bo.time, "final time diverged\n{}", src);
            prop_assert_eq!(io.steps, bo.steps, "sim.steps diverged\n{}", src);
            prop_assert_eq!(&io.vcd, &bo.vcd, "VCD diverged\n{}", src);
            prop_assert_eq!(&is.signals, &bs.signals, "signal state diverged\n{}", src);
            prop_assert_eq!(&is.memories, &bs.memories, "memory state diverged\n{}", src);
            prop_assert_eq!(is.time, bs.time, "state time diverged\n{}", src);
        }
        (i, b) => {
            return Err(TestCaseError::Fail(format!(
                "front-end disagreement: interp ran: {}, bytecode ran: {}\n{}",
                i.is_some(),
                b.is_some(),
                src
            )))
        }
    }
    Ok(())
}

/// Guards the property against vacuous truth: if the generator drifts to
/// where almost nothing parses and elaborates, parity stops being tested
/// and this fails loudly instead.
#[test]
fn generator_mostly_produces_runnable_designs() {
    let runnable = (0u64..200)
        .filter(|&seed| {
            let src = gen_module(seed);
            run_backend(&src, SimBackend::Interp, None).is_some()
        })
        .count();
    assert!(
        runnable >= 100,
        "only {runnable}/200 sampled designs elaborate and run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Identical waves, output, and step counts on random designs.
    #[test]
    fn backends_agree_on_generated_modules(seed in any::<u64>()) {
        assert_parity(&gen_module(seed), None)?;
    }

    /// Multi-always synchronous designs: dense non-blocking commits and
    /// same-edge wakes across processes.
    #[test]
    fn backends_agree_on_synchronous_modules(seed in any::<u64>()) {
        assert_parity(&gen_sync_module(seed), None)?;
    }

    /// Under an already-expired deadline both backends must classify the
    /// run as a soft timeout at the same poll boundary — cancellation is
    /// part of the observable contract, not an escape hatch from it.
    #[test]
    fn backends_agree_under_expired_deadline(seed in any::<u64>()) {
        let cancel = CancelToken::with_deadline(Duration::ZERO);
        assert_parity(&gen_module(seed), Some(&cancel))?;
    }

    /// Cancellation on the synchronous designs: the VM's poll boundaries
    /// must land on the same step as the interpreter's.
    #[test]
    fn backends_agree_on_synchronous_modules_under_expired_deadline(seed in any::<u64>()) {
        let cancel = CancelToken::with_deadline(Duration::ZERO);
        assert_parity(&gen_sync_module(seed), Some(&cancel))?;
    }
}
