//! # asynciter-report
//!
//! Output plumbing for the experiment harness: CSV writers, ASCII line
//! charts and histograms, Gantt timeline rendering (the paper's Fig. 1 /
//! Fig. 2 as terminal art), aligned text tables, and hand-rolled JSON
//! serialization for the benchmark gate's machine-readable artefacts.
//! Everything is dependency-free (beyond the workspace's own core crate)
//! and writes either to `String`s or to files under a results directory.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod ascii;
pub mod cli;
pub mod csv;
pub mod gantt;
pub mod json;
pub mod stream;
pub mod table;

pub use ascii::{line_chart, log_line_chart, ChartSeries};
pub use csv::CsvWriter;
pub use gantt::render_gantt;
pub use json::{GateDoc, GateRecord, Json, JsonError, SCHEMA_VERSION};
pub use stream::{hash_f64s, ServiceBatch, ServiceDoc, ServiceRecord};
pub use table::TextTable;
