//! Label-memory report: what one published generation holds — the
//! packed labelling and the CSR view readers traverse, which is also
//! the only graph the index keeps.
//!
//! A generation's packed labelling costs ~3 bytes per *logical* entry
//! (u16 landmark id + width-narrowed distance) plus per-vertex overhead;
//! its view is a CSR base shared by the generations published since the
//! last compaction, plus an overlay of per-batch chunks. The report
//! measures the generation published after [`BATCHES`] fully dynamic
//! batches, so the overlays hold what those batches rewrote, and prints
//! the labelling, the view's base and overlay, the generation's bytes
//! per vertex and the narrowed highway width — the memory half of the
//! packed-storage evaluation (perfbench's `hcl.bound_us_p50` measures
//! the latency half).

use super::ExpContext;
use crate::datasets::dataset;
use crate::measure::Table;
use crate::workload::{fully_dynamic_batches, WorkloadConfig};
use batchhl_core::index::Algorithm;

/// Update batches applied before measuring.
pub const BATCHES: usize = 3;

fn human(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

pub fn run(ctx: &ExpContext) {
    println!("== Label memory: generation footprint after {BATCHES} batches ==");
    let mut table = Table::new(&[
        "Dataset",
        "Entries",
        "Packed labels",
        "View base",
        "View overlay",
        "B/vertex gen",
        "B/entry packed",
        "HW width",
    ]);
    for name in ctx.static_datasets() {
        let g = dataset(name, ctx.scale);
        let config = WorkloadConfig::new(BATCHES, ctx.scale.batch_size(), ctx.seed);
        let batches = fully_dynamic_batches(&g, config);
        let mut index = ctx.index(g, Algorithm::BhlPlus, 1);
        for b in &batches {
            index.apply_batch(b);
        }
        let generation = index.published();
        let packed = generation.lab.packed();
        let entries = packed.labels.num_entries();
        let labels = packed.resident_bytes();
        let view = generation.view.resident_bytes();
        let overlay = generation.view.overlay_bytes();
        let n = index.num_vertices().max(1);
        table.row(vec![
            name.to_string(),
            entries.to_string(),
            human(labels),
            human(view - overlay),
            human(overlay),
            format!("{:.1}", (labels + view) as f64 / n as f64),
            format!("{:.2}", labels as f64 / entries.max(1) as f64),
            format!("u{}", 8 * packed.highway.width()),
        ]);
    }
    print!("{}", table.render());
}
