//! Synthetic stand-ins for the paper's 14 datasets (Table 2).
//!
//! The real networks (SNAP / LAW / KONECT, up to 3.7 B edges) are
//! replaced by seeded generators whose *shape knobs* — average degree,
//! degree skew, small diameter — mirror each original:
//! Barabási–Albert for the social networks, R-MAT for the skewed
//! web/communication graphs, and an evolving preferential stream for
//! the two real-dynamic Wikipedia networks. [`Scale`] multiplies the
//! vertex counts so the same harness runs from smoke-test to
//! overnight sizes. If a real SNAP edge list is available, drop it in
//! with `BATCHHL_DATA_DIR` and it takes precedence.

use batchhl_graph::generators::{barabasi_albert, rmat, RmatParams};
use batchhl_graph::stream::EvolvingStream;
use batchhl_graph::DynamicGraph;

/// Dataset size multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test (~1–2k vertices): seconds for the whole suite.
    Tiny,
    /// Default (~6–16k vertices): minutes for the whole suite.
    Small,
    /// ~4× Small.
    Medium,
    /// ~16× Small; expect long runs.
    Large,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// Vertex-count multiplier relative to [`Scale::Small`].
    pub fn factor(self) -> f64 {
        match self {
            Scale::Tiny => 0.25,
            Scale::Small => 1.0,
            Scale::Medium => 4.0,
            Scale::Large => 16.0,
        }
    }

    fn n(self, base: usize) -> usize {
        ((base as f64 * self.factor()) as usize).max(64)
    }

    /// R-MAT scale exponent adjustment.
    fn rmat_scale(self, base: u32) -> u32 {
        match self {
            Scale::Tiny => base - 2,
            Scale::Small => base,
            Scale::Medium => base + 2,
            Scale::Large => base + 4,
        }
    }

    /// Default batch size, scaled from the paper's 1,000.
    pub fn batch_size(self) -> usize {
        match self {
            Scale::Tiny => 50,
            Scale::Small => 200,
            Scale::Medium => 500,
            Scale::Large => 1000,
        }
    }

    /// Default query-sample size, scaled from the paper's 100,000.
    pub fn query_count(self) -> usize {
        match self {
            Scale::Tiny => 2_000,
            Scale::Small => 10_000,
            Scale::Medium => 30_000,
            Scale::Large => 100_000,
        }
    }
}

/// The 12 static datasets of Table 2, in the paper's order.
pub const STATIC_DATASETS: &[&str] = &[
    "youtube",
    "skitter",
    "flickr",
    "wikitalk",
    "hollywood",
    "orkut",
    "enwiki",
    "livejournal",
    "indochina",
    "twitter",
    "friendster",
    "uk",
];

/// The two real-dynamic datasets (timestamped streams).
pub const DYNAMIC_DATASETS: &[&str] = &["italianwiki", "frenchwiki"];

/// All 14 dataset names.
pub fn dataset_names() -> Vec<&'static str> {
    STATIC_DATASETS
        .iter()
        .chain(DYNAMIC_DATASETS.iter())
        .copied()
        .collect()
}

/// The four datasets the paper could still run FulPLL on.
pub const PLL_FRIENDLY: &[&str] = &["youtube", "skitter", "flickr", "wikitalk"];

/// Domain tag shown in Table 2.
pub fn dataset_kind(name: &str) -> &'static str {
    match name {
        "youtube" | "flickr" | "hollywood" | "orkut" | "livejournal" | "twitter" | "friendster"
        | "enwiki" | "italianwiki" | "frenchwiki" => "social",
        "skitter" => "comp",
        "wikitalk" => "comm",
        "indochina" | "uk" => "web",
        _ => "synthetic",
    }
}

/// Build a static dataset by name. Deterministic per (name, scale).
///
/// If `BATCHHL_DATA_DIR` is set and contains `<name>.txt`, that real
/// edge list is loaded instead of a synthetic stand-in.
pub fn dataset(name: &str, scale: Scale) -> DynamicGraph {
    if let Ok(dir) = std::env::var("BATCHHL_DATA_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{name}.txt"));
        if path.exists() {
            return batchhl_graph::io::read_graph(&path)
                .unwrap_or_else(|e| panic!("failed to read {}: {e}", path.display()));
        }
    }
    // (generator, base n, attachment / edge factor, seed) tuned to
    // mirror Table 2's avg-degree column.
    match name {
        "youtube" => barabasi_albert(scale.n(8_000), 3, 0xA001),
        "skitter" => barabasi_albert(scale.n(8_000), 7, 0xA002),
        "flickr" => barabasi_albert(scale.n(8_000), 9, 0xA003),
        "wikitalk" => rmat(
            scale.rmat_scale(13),
            scale.n(16_000),
            RmatParams::graph500(),
            0xA004,
        ),
        "hollywood" => barabasi_albert(scale.n(6_000), 49, 0xA005),
        "orkut" => barabasi_albert(scale.n(8_000), 38, 0xA006),
        "enwiki" => barabasi_albert(scale.n(8_000), 22, 0xA007),
        "livejournal" => barabasi_albert(scale.n(8_000), 9, 0xA008),
        "indochina" => rmat(
            scale.rmat_scale(13),
            scale.n(8_192 * 20),
            RmatParams::graph500(),
            0xA009,
        ),
        "twitter" => barabasi_albert(scale.n(10_000), 29, 0xA00A),
        "friendster" => barabasi_albert(scale.n(10_000), 28, 0xA00B),
        "uk" => rmat(
            scale.rmat_scale(14),
            scale.n(16_384 * 31),
            RmatParams::graph500(),
            0xA00C,
        ),
        "italianwiki" => stream(name, scale).initial,
        "frenchwiki" => stream(name, scale).initial,
        other => panic!("unknown dataset {other:?}"),
    }
}

/// The timestamped update stream of a dynamic dataset.
pub fn stream(name: &str, scale: Scale) -> EvolvingStream {
    match name {
        "italianwiki" => EvolvingStream::generate(
            scale.n(6_000),
            16,
            (10_000.0 * scale.factor()) as usize,
            0.35,
            0xB001,
        ),
        "frenchwiki" => EvolvingStream::generate(
            scale.n(8_000),
            13,
            (10_000.0 * scale.factor()) as usize,
            0.35,
            0xB002,
        ),
        other => panic!("{other:?} is not a dynamic dataset"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_static_datasets_build_at_tiny() {
        for name in STATIC_DATASETS {
            let g = dataset(name, Scale::Tiny);
            assert!(g.num_vertices() >= 64, "{name}");
            assert!(g.num_edges() > 0, "{name}");
            g.validate().unwrap();
        }
    }

    #[test]
    fn dynamic_datasets_stream() {
        for name in DYNAMIC_DATASETS {
            let s = stream(name, Scale::Tiny);
            assert!(!s.events.is_empty(), "{name}");
            assert!(s.initial.num_edges() > 0);
        }
    }

    #[test]
    fn deterministic_per_name_and_scale() {
        let a = dataset("youtube", Scale::Tiny);
        let b = dataset("youtube", Scale::Tiny);
        assert_eq!(a, b);
        let c = dataset("skitter", Scale::Tiny);
        assert_ne!(a, c);
    }

    #[test]
    fn degree_shape_mirrors_table2_ordering() {
        // hollywood must be much denser than youtube, as in Table 2.
        let yt = dataset("youtube", Scale::Tiny);
        let hw = dataset("hollywood", Scale::Tiny);
        assert!(hw.avg_degree() > 10.0 * yt.avg_degree());
        // skewed generators produce hubs.
        let wt = dataset("wikitalk", Scale::Tiny);
        assert!(wt.max_degree() as f64 > 8.0 * wt.avg_degree());
    }

    #[test]
    fn scale_names_parse() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("TINY"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("bogus"), None);
    }
}
