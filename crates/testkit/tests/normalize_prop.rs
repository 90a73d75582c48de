//! Property tests for WSD normalization: the rewrites must preserve the
//! induced probability distribution over database *instances* exactly (up to
//! float tolerance), while never growing the representation.

use std::sync::Arc;

use maybms_core::collect_stats;
use maybms_core::rng::Rng;
use maybms_testkit::oracle::stats_by_rows;
use maybms_testkit::{
    assert_image_as_built, gen_world_set, without_images, GenConfig, WORLD_LIMIT,
};

const CASES: u64 = 200;
const EPS: f64 = 1e-9;

#[test]
fn normalization_preserves_instance_distribution() {
    let cfg = GenConfig::default();
    for case in 0..CASES {
        let mut rng = Rng::new(0x4E04 ^ case);
        let ws = gen_world_set(&mut rng, &cfg);
        let before = ws
            .instance_distribution(WORLD_LIMIT)
            .expect("small world set");

        let mut normalized = ws.clone();
        normalized.normalize();
        let after = normalized
            .instance_distribution(WORLD_LIMIT)
            .expect("small world set");

        assert_eq!(
            before.len(),
            after.len(),
            "case {case}: instance support changed\nbefore: {ws:?}\nafter: {normalized:?}"
        );
        for ((db_b, p_b), (db_a, p_a)) in before.iter().zip(&after) {
            assert_eq!(db_b, db_a, "case {case}: instance contents changed");
            assert!(
                (p_b - p_a).abs() < EPS,
                "case {case}: instance probability drifted: {p_b} vs {p_a}"
            );
        }

        let rows =
            |w: &maybms_core::WorldSet| -> usize { w.relations.values().map(|r| r.len()).sum() };
        assert!(
            rows(&normalized) <= rows(&ws),
            "case {case}: normalization grew the representation"
        );
        assert!(normalized.components.len() <= ws.components.len());
    }
}

#[test]
fn normalization_is_idempotent() {
    let cfg = GenConfig::default();
    for case in 0..50 {
        let mut rng = Rng::new(0x1DE0 ^ case);
        let mut ws = gen_world_set(&mut rng, &cfg);
        ws.normalize();
        let once = ws.clone();
        ws.normalize();
        assert_eq!(ws, once, "case {case}: normalize is not idempotent");
    }
}

/// Garbage collection renumbers components in the images normalization made
/// and in nothing else. A world set cloned before the normalize shares every
/// image with the clone; after it, the original still holds the same images
/// (the same `Arc`s, still the images of its rows) with the same statistics
/// and equals a copy of itself, while each of the clone's relations holds a
/// new image that is the one a conversion of its renumbered rows builds.
#[test]
fn gc_renumbers_only_the_images_normalize_made() {
    let cfg = GenConfig::default();
    // Cases in which a kept component moved to a lower id (a lower bound:
    // equal components hide a move).
    let mut renumbered = 0;
    for case in 0..CASES {
        let mut rng = Rng::new(0x6C_4E04 ^ case);
        let original = gen_world_set(&mut rng, &cfg);
        // Warm: every image built and every statistics memo filled.
        let warm: Vec<_> = original
            .relations
            .values()
            .map(|r| {
                let stats = collect_stats(r, &original.components);
                (Arc::clone(r.image()), stats)
            })
            .collect();
        let copy = without_images(&original);
        let mut clone = original.clone();
        clone.normalize();
        let moved = clone
            .components
            .iter()
            .any(|(c, comp)| original.components.get(c) != comp);
        renumbered += usize::from(moved);
        for (name, rel) in &clone.relations {
            let at = format!("case {case}: normalized {name}");
            assert!(rel.is_empty() || rel.has_image(), "{at}: no image");
            assert_image_as_built(rel, &at);
            let stats = collect_stats(rel, &clone.components);
            assert_eq!(stats, stats_by_rows(rel, &clone.components), "{at}");
        }
        assert_eq!(original, copy, "case {case}");
        for ((name, rel), (image, stats)) in original.relations.iter().zip(&warm) {
            let at = format!("case {case}: original {name}");
            assert!(Arc::ptr_eq(rel.image(), image), "{at}");
            assert_eq!(&collect_stats(rel, &original.components), stats, "{at}");
            assert_image_as_built(rel, &at);
        }
    }
    assert!(renumbered >= 10, "only {renumbered} cases renumbered");
}
