//! The paper's claims, asserted at a scale that fits CI. Each test is
//! tagged with the section it checks; a claim that does not hold here is
//! not asserted with a looser bound but explained by cause in ROADMAP.md.

use setcorr_bench::harness::{measure_sketch_overhead, Scale, SKETCH_BITS_PER_DOC};

/// §2: per-tag Bloom filters of document ids flag more spurious
/// co-occurring pairs than there are true pairs, at every bit budget the
/// `experiments sketch` table prints — the overhead that rules sketches out.
#[test]
fn section_2_sketches_flag_more_spurious_pairs_than_true_ones() {
    let (docs, reports) = measure_sketch_overhead(&Scale::default());
    assert!(docs > 0, "the window holds tagged documents");
    assert_eq!(reports.len(), SKETCH_BITS_PER_DOC.len());
    for (report, bits) in reports.iter().zip(SKETCH_BITS_PER_DOC) {
        assert_eq!(report.bits_per_doc, bits);
        assert!(
            report.overhead_factor() > 1.0,
            "{bits} bits/doc: {:.2} spurious pairs per true pair",
            report.overhead_factor()
        );
    }
}
