//! Label-memory report: resident bytes of the dense canonical label
//! rows versus the packed query mirror (`batchhl_hcl::packed`).
//!
//! The dense layout costs `4·|R|` bytes per vertex regardless of how
//! many labels the vertex actually has; the packed CSR costs ~3 bytes
//! per *logical* entry (u16 landmark id + width-narrowed distance) plus
//! per-vertex overhead. This report prints both, the compression ratio,
//! and the narrowed highway width — the memory half of the packed-
//! storage evaluation (perfbench's `hcl.bound_us_p50` measures the
//! latency half).

use super::ExpContext;
use crate::datasets::dataset;
use crate::measure::Table;
use batchhl_core::index::Algorithm;
use batchhl_hcl::active_kernel;

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
    println!(
        "== Label memory: dense rows vs packed mirror (kernel: {}) ==",
        active_kernel().name()
    );
    let mut table = Table::new(&[
        "Dataset",
        "Entries",
        "Dense",
        "Packed",
        "Ratio",
        "B/entry dense",
        "B/entry packed",
        "HW width",
    ]);
    for name in ctx.static_datasets() {
        let g = dataset(name, ctx.scale);
        let index = ctx.index(g, Algorithm::BhlPlus, 1);
        let lab = index.labelling();
        let packed = lab.packed();
        let entries = packed.labels.num_entries();
        let dense = lab.dense_resident_bytes();
        let compact = packed.resident_bytes();
        table.row(vec![
            name.to_string(),
            entries.to_string(),
            human(dense),
            human(compact),
            format!("{:.2}x", dense as f64 / compact as f64),
            format!("{:.2}", dense as f64 / entries as f64),
            format!("{:.2}", compact as f64 / entries as f64),
            format!("u{}", 8 * packed.highway.width()),
        ]);
    }
    print!("{}", table.render());
}
