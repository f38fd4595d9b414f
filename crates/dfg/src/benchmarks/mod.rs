//! The benchmark circuits of the DAC'99 evaluation.
//!
//! The paper evaluates six circuits: *tseng* and *paulin* (the two standard
//! high-level BIST synthesis benchmarks), and four filters synthesised with
//! HYPER — a 6th-order FIR filter, a 3rd-order IIR filter, a 4-point DCT and
//! a 6-tap wavelet filter. HYPER and the authors' intermediate files are not
//! available, so the filter DFGs here are reconstructed from the textbook
//! filter structures and scheduled/bound with this crate's list scheduler and
//! minimal binding. The `resource_counts_match_expectations` test pins the
//! resulting module counts and lists the paper's counts next to them.
//!
//! Every function returns a fully validated [`SynthesisInput`] (DFG +
//! schedule + module binding), ready for register/BIST assignment.

mod dct4;
mod figure1;
mod fir6;
mod iir3;
mod paulin;
mod random;
mod tseng;
mod wavelet6;

pub use dct4::dct4;
pub use figure1::figure1;
pub use fir6::fir6;
pub use iir3::iir3;
pub use paulin::paulin;
pub use random::{random_dfg, RandomDfgConfig};
pub use tseng::tseng;
pub use wavelet6::wavelet6;

use crate::graph::SynthesisInput;

/// The six evaluation circuits of the paper, in the order of its tables.
pub fn all() -> Vec<(&'static str, SynthesisInput)> {
    vec![
        ("tseng", tseng()),
        ("paulin", paulin()),
        ("fir6", fir6()),
        ("iir3", iir3()),
        ("dct4", dct4()),
        ("wavelet6", wavelet6()),
    ]
}

/// The subset of circuits small enough for exact (optimal) ILP solving in a
/// few seconds; used by the quick harness mode and by integration tests.
pub fn small() -> Vec<(&'static str, SynthesisInput)> {
    vec![
        ("figure1", figure1()),
        ("tseng", tseng()),
        ("paulin", paulin()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::LifetimeTable;

    #[test]
    fn all_benchmarks_are_valid_and_named() {
        let circuits = all();
        assert_eq!(circuits.len(), 6);
        for (name, input) in circuits {
            assert_eq!(input.name(), name);
            assert!(input.dfg().num_ops() >= 4, "{name} too small");
            assert!(
                input.binding().num_modules() >= 2,
                "{name} needs >= 2 modules"
            );
            let table = LifetimeTable::new(&input).unwrap();
            assert!(
                table.min_registers() >= 3,
                "{name} register count suspicious"
            );
        }
    }

    #[test]
    fn resource_counts_match_expectations() {
        // (name, modules, registers) — our reconstruction targets; the
        // paper's counts are (tseng 3/5, paulin 4/5, fir6 3/7, iir3 3/6,
        // dct4 4/6, wavelet6 3/7). Registers may differ slightly because the
        // filter DFGs are rebuilt from textbook structures (see the module
        // docs).
        let expectations = [
            ("tseng", 3),
            ("paulin", 4),
            ("fir6", 3),
            ("iir3", 3),
            ("dct4", 4),
            ("wavelet6", 3),
        ];
        for (name, modules) in expectations {
            let input = all()
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, i)| i)
                .unwrap();
            assert_eq!(
                input.binding().num_modules(),
                modules,
                "{name}: module count"
            );
        }
    }

    #[test]
    fn every_module_has_at_least_one_operation() {
        for (name, input) in all() {
            for module in input.binding().module_ids() {
                assert!(
                    !input.ops_on_module(module).is_empty(),
                    "{name}: module {module:?} is unused"
                );
            }
        }
    }
}
