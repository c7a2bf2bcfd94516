//! Property-based check of the two chunked overlays — the CSR
//! adjacency view and the packed labels — against a `BTreeMap` model.
//!
//! Both resolve an overlaid vertex by rank in the shared
//! `OverlayIndex` (prefix count plus `popcount`), through per-patch
//! chunks that later patches share. A random sequence interleaves
//! patches (re-patching vertices, growing the vertex range) with
//! compactions, forced directly or by a low policy threshold, and after
//! every step every lookup must equal the model.

use batchhl::common::SplitMix64;
use batchhl::graph::csr::{CompactionPolicy, Csr, CsrOverlay};
use batchhl::hcl::{Labelling, RowDelta, NO_LABEL};
use batchhl::{Dist, Vertex};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A policy no overlay crosses.
const NEVER: CompactionPolicy = CompactionPolicy {
    fraction: f32::INFINITY,
    min_entries: usize::MAX,
};

/// Up to `max` distinct vertices of `0..n`, ascending; one call in four
/// returns a run of up to 130 consecutive vertices instead, so whole
/// 64-vertex words of the overlay mask fill up.
fn some_vertices(rng: &mut SplitMix64, n: usize, max: u64) -> Vec<Vertex> {
    if rng.below(4) == 0 {
        let len = 1 + rng.below(n.min(130) as u64) as usize;
        let start = rng.below((n - len + 1) as u64) as usize;
        return (start as Vertex..(start + len) as Vertex).collect();
    }
    let picked: BTreeSet<Vertex> = (0..1 + rng.below(max))
        .map(|_| rng.below(n as u64) as Vertex)
        .collect();
    picked.into_iter().collect()
}

fn some_list(rng: &mut SplitMix64) -> Vec<Vertex> {
    (0..rng.below(6))
        .map(|_| rng.below(1000) as Vertex)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Step kinds: 0 compacts directly, 1 patches, 2 patches under a low
    // threshold (compacting when crossed), 3 patches and grows.
    #[test]
    fn csr_overlay_matches_a_model(steps in prop::collection::vec((0..4u32, 0..1u64 << 40), 1..25)) {
        let mut rng = SplitMix64::new(7);
        let mut n = 150;
        let mut model: BTreeMap<Vertex, Vec<Vertex>> =
            (0..n as Vertex).map(|v| (v, some_list(&mut rng))).collect();
        let mut view = CsrOverlay::new(Csr::build(n, |v| model[&v].as_slice()));
        let mut overlaid = BTreeSet::new();
        for (kind, seed) in steps {
            let mut rng = SplitMix64::new(seed);
            if kind == 0 {
                view = view.compacted();
                overlaid.clear();
            } else {
                let grown = if kind == 3 { n + 1 + rng.below(70) as usize } else { n };
                let changed = some_vertices(&mut rng, grown, 8);
                let lists: Vec<Vec<Vertex>> = changed.iter().map(|_| some_list(&mut rng)).collect();
                let policy = (kind == 2).then(|| CompactionPolicy::eager(0.05));
                let mut seen_old = Vec::new();
                let mut k = 0;
                view = view.patched(grown, &changed, policy, |v, old, out| {
                    seen_old.push((v, old.to_vec()));
                    out.extend_from_slice(&lists[k]);
                    k += 1;
                });
                for (v, old) in seen_old {
                    let want = model.get(&v).map_or(&[][..], |l| l.as_slice());
                    prop_assert_eq!(old.as_slice(), want, "old list of {}", v);
                }
                for (v, list) in changed.iter().zip(lists) {
                    model.insert(*v, list);
                    overlaid.insert(*v);
                }
                n = grown;
                if view.chunks().is_empty() {
                    overlaid.clear(); // the policy compacted
                }
            }
            prop_assert_eq!(view.num_vertices(), n);
            prop_assert_eq!(view.overlay_vertices(), overlaid.len());
            for v in 0..n as Vertex {
                prop_assert_eq!(view.list(v), model.get(&v).map_or(&[][..], |l| l.as_slice()), "vertex {}", v);
            }
        }
    }

    // The same step kinds on a labelling over 3 landmarks (vertices 0–2),
    // patched through `seal_patched` (kind 0 compacts any non-empty
    // overlay); distances span the u8 and u16 tiers, and a quarter of
    // the cells remove an entry.
    #[test]
    fn packed_overlay_matches_a_model(steps in prop::collection::vec((0..4u32, 0..1u64 << 40), 1..25)) {
        let r = 3;
        let mut n = 150;
        let mut lab = Labelling::empty(n, (0..r as Vertex).collect()).unwrap();
        let mut model: BTreeMap<(Vertex, usize), Dist> = BTreeMap::new();
        for (kind, seed) in steps {
            let mut rng = SplitMix64::new(seed);
            let policy = match kind {
                0 => CompactionPolicy::eager(0.0),
                2 => CompactionPolicy::eager(0.05),
                _ => NEVER,
            };
            if kind == 3 {
                n += 1 + rng.below(70) as usize;
                lab.ensure_vertices(n);
            }
            let mut deltas = vec![RowDelta::default(); r];
            for (i, delta) in deltas.iter_mut().enumerate() {
                for v in some_vertices(&mut rng, n - r, 10) {
                    let v = v + r as Vertex;
                    let d = if rng.below(4) == 0 { NO_LABEL } else { 1 + rng.below(400) as Dist };
                    delta.labels.push((v, d));
                    if d == NO_LABEL {
                        model.remove(&(v, i));
                    } else {
                        model.insert((v, i), d);
                    }
                }
            }
            let before = lab.packed().labels.overlay_entries();
            lab = lab.seal_patched(&deltas, policy);
            if kind == 0 && before > 0 {
                prop_assert_eq!(lab.packed().labels.overlay_entries(), 0, "compacted");
            }
            prop_assert_eq!(lab.num_vertices(), n);
            prop_assert_eq!(lab.size_entries(), model.len());
            for v in r as Vertex..n as Vertex {
                for i in 0..r {
                    let want = model.get(&(v, i)).copied().unwrap_or(NO_LABEL);
                    prop_assert_eq!(lab.label(i, v), want, "label({}, {})", i, v);
                }
            }
        }
    }
}
