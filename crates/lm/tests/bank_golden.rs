//! Golden fingerprints of the bank builder and the semantic mutator.
//!
//! The constants were recorded from the implementation that re-parsed the
//! reference for every mutation attempt and verified mutants by
//! simulating one concatenated DUT + testbench text. Any change to the
//! mutation engine, its RNG draw order or the bank's verification must
//! leave them unchanged: reports and journals depend on every byte.

use vgen_lm::family::build_bank;
use vgen_lm::mutate::semantic_mutants;

const SEEDS: [u64; 2] = [42, 7 ^ 3];

/// FNV-1a over `parts`, each terminated by a 0xff byte.
fn fnv(parts: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_ref().iter().chain(&[0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn problems() -> Vec<&'static vgen_problems::Problem> {
    (1..=25)
        .map(|id| vgen_problems::problem(id).expect("problem"))
        .collect()
}

#[test]
fn banks_match_golden_fingerprint() {
    let mut parts: Vec<String> = Vec::new();
    for seed in SEEDS {
        for p in problems() {
            let bank = build_bank(p, seed ^ u64::from(p.id), 10);
            for pool in [&bank.correct, &bank.functional_fail, &bank.syntax_fail] {
                parts.push(format!("{}:{seed}:{}", p.id, pool.len()));
                parts.extend(pool.iter().cloned());
            }
        }
    }
    assert_eq!(
        fnv(&parts),
        9_125_687_188_627_597_664,
        "build_bank output drifted"
    );
}

#[test]
fn semantic_mutants_match_golden_fingerprint() {
    let mut parts: Vec<String> = Vec::new();
    for seed in SEEDS {
        for p in problems() {
            let mutants = semantic_mutants(&p.reference_source(), seed ^ u64::from(p.id), 30);
            parts.push(format!("{}:{seed}:{}", p.id, mutants.len()));
            parts.extend(mutants.into_iter().map(|(m, op)| format!("{op:?}\n{m}")));
        }
    }
    assert_eq!(
        fnv(&parts),
        8_071_103_704_275_405_210,
        "semantic_mutants output drifted"
    );
}
