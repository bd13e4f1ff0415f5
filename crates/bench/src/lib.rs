//! Experiment harness behind the `tables` binary: runs the paper's
//! Experiments 1–3 on the synthetic suite and formats the corresponding
//! tables.

pub mod experiments;
pub mod report;

pub use experiments::{
    run_expt1, run_expt2, run_expt3, run_fig9, Expt1Row, Expt2Row, Expt3Outcome, Fig9Outcome,
};
pub use report::{print_table, Table};
