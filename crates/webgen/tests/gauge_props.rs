//! Properties of the lazy world's site-memory gauge, which accounts every
//! site materialization and release and whose readings the streaming
//! tests and the benchmark's peak-site-bytes figure rely on: `current`
//! never exceeds `peak`, releases saturate at zero instead of wrapping,
//! and balanced add/sub sequences always return to zero — under any
//! interleaving of operations, including erroneous double releases.

use aipan_webgen::MemoryGauge;
use proptest::prelude::*;
use std::sync::Arc;

#[test]
fn current_never_exceeds_peak_and_never_wraps() {
    let mut gen = Gen::from_name("gauge_current_vs_peak");
    for _case in 0..64usize {
        let gauge = MemoryGauge::default();
        let ops = Strategy::generate(&(1usize..40), &mut gen);
        for _ in 0..ops {
            let bytes = Strategy::generate(&(0usize..10_000), &mut gen);
            // A third of the operations are releases — over-releasing on
            // purpose, since callers may release a site twice.
            if Strategy::generate(&(0u64..3), &mut gen) == 0 {
                gauge.sub(bytes);
            } else {
                gauge.add(bytes);
            }
            assert!(
                gauge.current_bytes() <= gauge.peak_bytes(),
                "current {} exceeded peak {}",
                gauge.current_bytes(),
                gauge.peak_bytes()
            );
            assert!(
                gauge.current_bytes() < usize::MAX / 2,
                "gauge wrapped: current {}",
                gauge.current_bytes()
            );
        }
    }
}

#[test]
fn double_release_saturates_at_zero() {
    let gauge = MemoryGauge::default();
    gauge.add(100);
    gauge.sub(100);
    gauge.sub(100); // erroneous second release of the same site
    assert_eq!(gauge.current_bytes(), 0);
    assert_eq!(gauge.peak_bytes(), 100);
    // The gauge still works after saturating.
    gauge.add(40);
    assert_eq!(gauge.current_bytes(), 40);
    assert_eq!(gauge.peak_bytes(), 100);
}

#[test]
fn balanced_sequences_return_to_zero() {
    let mut gen = Gen::from_name("gauge_balanced");
    for _case in 0..32usize {
        let gauge = MemoryGauge::default();
        let sites = Strategy::generate(&(1usize..20), &mut gen);
        let sizes: Vec<usize> = (0..sites)
            .map(|_| Strategy::generate(&(1usize..5_000), &mut gen))
            .collect();
        for &s in &sizes {
            gauge.add(s);
        }
        let total: usize = sizes.iter().sum();
        assert_eq!(gauge.peak_bytes(), total, "all sites resident at once");
        for &s in &sizes {
            gauge.sub(s);
        }
        assert_eq!(gauge.current_bytes(), 0, "balanced release must zero out");
        assert_eq!(gauge.peak_bytes(), total, "peak is a high-water mark");
    }
}

#[test]
fn concurrent_over_release_keeps_invariants() {
    let gauge = Arc::new(MemoryGauge::default());
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let gauge = Arc::clone(&gauge);
            std::thread::spawn(move || {
                for i in 0..1_000usize {
                    gauge.add(i % 97);
                    gauge.sub(i % 101); // deliberately unbalanced
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("gauge thread");
    }
    assert!(gauge.current_bytes() <= gauge.peak_bytes());
    assert!(gauge.current_bytes() < usize::MAX / 2, "gauge wrapped");
}
