//! `sim_profile` — runs the `sim_throughput` counter testbench alone, on
//! one backend, for profiler attachment (`gprofng collect app …`) and quick
//! A/B timing without the vector-op and sweep phases.
//!
//! With `all` (or no backend argument) it runs the per-backend breakdown
//! instead: the same testbench through interp and bytecode back-to-back
//! with the bytecode/interp ratio, so a throughput regression is
//! attributable to a specific backend at a glance.
//!
//! ```text
//! cargo run --release -p vgen-bench --bin sim_profile -- \
//!     [interp|bytecode|all] [cycles] [bank] [procs] [nba|blocking]
//! ```

use std::time::Instant;

use vgen_sim::{SimBackend, SimConfig, Simulator};

fn counter_testbench(cycles: u64, bank: usize, procs: usize, nba: bool) -> String {
    let op = if nba { "<=" } else { "=" };
    let mut src = String::from("module tb;\nreg clk;\n");
    for p in 0..procs {
        for i in 0..bank {
            src.push_str(&format!("reg [63:0] acc{p}_{i};\n"));
        }
    }
    src.push_str("initial begin clk = 0; ");
    for p in 0..procs {
        for i in 0..bank {
            src.push_str(&format!("acc{p}_{i} = 0; "));
        }
    }
    src.push_str("end\n");
    src.push_str("always #5 clk = ~clk;\n");
    for p in 0..procs {
        src.push_str("always @(posedge clk) begin\n");
        src.push_str(&format!("  acc{p}_0 {op} acc{p}_0 + 1;\n"));
        for i in 1..bank {
            src.push_str(&format!(
                "  acc{p}_{i} {op} acc{p}_{i} + acc{p}_{};\n",
                i - 1
            ));
        }
        src.push_str("end\n");
    }
    src.push_str(&format!(
        "initial begin #{} $display(\"acc0=%d\", acc0_0); $finish; end\nendmodule\n",
        cycles * 10
    ));
    src
}

/// One timed run: executed steps and wall seconds.
fn run_one(src: &str, config: SimConfig) -> (u64, f64) {
    let file = vgen_verilog::parse(src).expect("counter testbench parses");
    let design = vgen_sim::elab::elaborate(&file, "tb").expect("counter testbench elaborates");
    let sim = Simulator::with_config(design, config);
    let start = Instant::now();
    let out = sim.run();
    (out.steps, start.elapsed().as_secs_f64())
}

/// Per-backend breakdown: both backends on the identical testbench.
fn breakdown(src: &str, cycles: u64, config: &SimConfig) {
    let mut interp_secs = None;
    for backend in [SimBackend::Interp, SimBackend::Bytecode] {
        let cfg = SimConfig { backend, ..*config };
        let (steps, seconds) = run_one(src, cfg);
        let vs_interp = match interp_secs {
            None => {
                interp_secs = Some(seconds);
                1.0
            }
            Some(base) => base / seconds,
        };
        println!(
            "{:>8}: {:>9.3}s = {:>9.0} cycles/s  ({:>7.2} Msteps/s, {} steps)  {:>5.2}x vs interp",
            backend.as_str(),
            seconds,
            cycles as f64 / seconds,
            steps as f64 / seconds / 1e6,
            steps,
            vs_interp,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.first().map(|a| a == "all").unwrap_or(true);
    let backend: SimBackend = args
        .first()
        .filter(|a| *a != "all")
        .map(|a| a.parse().expect("backend is interp or bytecode"))
        .unwrap_or_default();
    let cycles: u64 = args
        .get(1)
        .map(|a| a.parse().expect("cycle count"))
        .unwrap_or(1_000_000);
    let bank: usize = args
        .get(2)
        .map(|a| a.parse().expect("accumulator bank size"))
        .unwrap_or(8);
    let procs: usize = args
        .get(3)
        .map(|a| a.parse().expect("process count"))
        .unwrap_or(1);
    let nba = args.get(4).map(|a| a == "nba").unwrap_or(true);
    let src = counter_testbench(cycles, bank, procs, nba);
    let config = SimConfig::default()
        .with_max_time(cycles * 10 + 100)
        .with_max_steps(u64::MAX)
        .with_backend(backend);
    if all {
        println!("sim_profile breakdown: {cycles} cycles, bank={bank}, procs={procs}, nba={nba}");
        breakdown(&src, cycles, &config);
        return;
    }
    let (steps, seconds) = run_one(&src, config);
    println!(
        "{}: {} cycles, {} steps, {:.3}s = {:.0} cycles/s ({:.2} Msteps/s)",
        backend.as_str(),
        cycles,
        steps,
        seconds,
        cycles as f64 / seconds,
        steps as f64 / seconds / 1e6
    );
}
