//! The seeded regression corpus (see `common::corpus`): every pinned random
//! circuit must reach its golden optimal area and golden pivot count under
//! the default search. This is the coarse-grained differential harness for
//! search-layer changes — bounding, branching, warm-start or fixing bugs
//! that lose exactness show up here as a diff against a known answer rather
//! than as a silent quality regression.

mod common;

use advbist::core::{synthesis, SynthesisConfig};
use common::corpus::CORPUS;

#[test]
fn corpus_reaches_golden_optima_with_the_default_search() {
    assert!(!CORPUS.is_empty(), "corpus must not be empty");
    for case in CORPUS {
        let input = case.input();
        let design = synthesis::synthesize_bist(&input, case.sessions, &SynthesisConfig::exact())
            .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", case.name));
        assert!(design.optimal, "{}: not proven optimal", case.name);
        assert_eq!(
            design.area.total(),
            case.golden_area,
            "{}: area diverged from the golden optimum",
            case.name
        );
        // Work regression check on the revised kernel: pivot counts are
        // bit-deterministic for a fixed configuration, so any drift means
        // the kernel (or the search layer above it) changed behaviour and
        // the goldens must be consciously regenerated.
        assert_eq!(
            design.stats.lp_pivots, case.golden_pivots,
            "{}: simplex pivot count diverged from the golden kernel work",
            case.name
        );
    }
}

/// Regenerates the golden corpus table. Run with
/// `cargo test --test corpus regenerate_corpus_goldens -- --ignored --nocapture`
/// and paste the printed rows into `tests/common/corpus.rs`.
#[test]
#[ignore = "regenerates the golden corpus table; run with --ignored --nocapture"]
fn regenerate_corpus_goldens() {
    use advbist::dfg::benchmarks::{random_dfg, RandomDfgConfig};
    for (seed, num_ops, num_inputs, multipliers) in [
        (11u64, 5usize, 3usize, 1usize),
        (23, 6, 4, 1),
        (37, 6, 3, 1),
        (58, 5, 4, 1),
        (71, 6, 4, 2),
        (92, 7, 3, 1),
    ] {
        let config = RandomDfgConfig {
            seed,
            num_ops,
            num_inputs,
            multipliers,
            alus: 1,
        };
        let input = random_dfg(&config);
        let max_k = input.binding().num_modules();
        let mut sessions: Vec<usize> = vec![1, max_k];
        sessions.dedup();
        for k in sessions {
            let design = synthesis::synthesize_bist(&input, k, &SynthesisConfig::exact()).unwrap();
            assert!(design.optimal, "seed {seed} k={k} did not solve exactly");
            // Second opinion at generation time: a best-first search must
            // land on the same optimum.
            let mut best_first = SynthesisConfig::exact();
            best_first.solver.search = advbist::ilp::SearchOrder::BestFirst;
            let check = synthesis::synthesize_bist(&input, k, &best_first).unwrap();
            assert_eq!(
                design.area.total(),
                check.area.total(),
                "seed {seed} k={k}: searches disagree at generation time"
            );
            println!(
                "    CorpusCase {{ name: \"r{seed}k{k}\", seed: {seed}, num_ops: {num_ops}, \
                 num_inputs: {num_inputs}, multipliers: {multipliers}, sessions: {k}, \
                 golden_area: {}, golden_pivots: {} }},",
                design.area.total(),
                design.stats.lp_pivots
            );
        }
    }
}
