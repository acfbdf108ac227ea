//! Cross-crate integration: the full system stack reproduces the paper's
//! qualitative results (figure shapes) at test scale.

use psoram::core::ProtocolPolicy;
use psoram::core::ProtocolVariant;
use psoram::system::{System, SystemConfig};
use psoram::trace::SpecWorkload;

const RECORDS: usize = 12_000;
const WARMUP: usize = 3_000;

fn run(variant: ProtocolVariant, channels: usize, w: SpecWorkload) -> psoram::system::SimResult {
    let mut sys = System::new(SystemConfig::quick_test(variant, channels));
    sys.run_workload_with_warmup(w, WARMUP, RECORDS)
}

#[test]
fn figure5_shape_ps_oram_cheap_naive_and_fullnvm_expensive() {
    let w = SpecWorkload::Sphinx3;
    let base = run(ProtocolVariant::Baseline, 1, w);
    let ps = run(ProtocolVariant::PsOram, 1, w);
    let naive = run(ProtocolVariant::NaivePsOram, 1, w);
    let full = run(ProtocolVariant::FullNvm, 1, w);
    let stt = run(ProtocolVariant::FullNvmStt, 1, w);

    let t = |r: &psoram::system::SimResult| r.exec_cycles as f64 / base.exec_cycles as f64;
    assert!(t(&ps) < 1.15, "PS-ORAM overhead too large: {:.3}", t(&ps));
    assert!(
        t(&naive) > t(&ps) + 0.10,
        "Naive must clearly exceed PS-ORAM"
    );
    assert!(t(&full) > t(&stt), "PCM buffers slower than STT buffers");
    assert!(t(&stt) > t(&ps), "FullNVM(STT) slower than PS-ORAM");
}

#[test]
fn figure5b_shape_recursive_costs_and_ps_delta_small() {
    let w = SpecWorkload::Mcf;
    let base = run(ProtocolVariant::Baseline, 1, w);
    let rb = run(ProtocolVariant::RcrBaseline, 1, w);
    let rp = run(ProtocolVariant::RcrPsOram, 1, w);
    assert!(
        rb.exec_cycles > base.exec_cycles,
        "recursion must cost time"
    );
    let delta = rp.exec_cycles as f64 / rb.exec_cycles as f64;
    assert!(
        delta > 0.99 && delta < 1.2,
        "Rcr-PS over Rcr-Base out of band: {delta:.3}"
    );
}

#[test]
fn figure6_shape_traffic() {
    // A pointer-chasing workload: PLB hit rates stay low, so the recursive
    // read amplification is visible (streaming workloads mostly hit the
    // PLB, as Figure 6 itself shows per-workload variation).
    let w = SpecWorkload::Mcf;
    let base = run(ProtocolVariant::Baseline, 1, w);
    let ps = run(ProtocolVariant::PsOram, 1, w);
    let naive = run(ProtocolVariant::NaivePsOram, 1, w);
    let full = run(ProtocolVariant::FullNvm, 1, w);
    let rb = run(ProtocolVariant::RcrBaseline, 1, w);

    // Reads: recursion adds a lot; the others are unchanged.
    assert_eq!(base.total_reads(), ps.total_reads());
    assert!(rb.total_reads() as f64 > base.total_reads() as f64 * 1.3);

    // Writes: PS-ORAM adds only a few percent; Naive and FullNVM roughly
    // double.
    let wr = |r: &psoram::system::SimResult| r.total_writes() as f64 / base.total_writes() as f64;
    assert!(
        wr(&ps) < 1.10,
        "PS-ORAM write overhead too big: {:.3}",
        wr(&ps)
    );
    assert!(
        wr(&naive) > 1.5,
        "Naive writes should roughly double: {:.3}",
        wr(&naive)
    );
    assert!(
        wr(&full) > 1.5,
        "FullNVM writes should roughly double: {:.3}",
        wr(&full)
    );
}

#[test]
fn figure7_shape_multichannel_speedup_sublinear() {
    let w = SpecWorkload::Bzip2;
    let c1 = run(ProtocolVariant::PsOram, 1, w).exec_cycles as f64;
    let c2 = run(ProtocolVariant::PsOram, 2, w).exec_cycles as f64;
    let c4 = run(ProtocolVariant::PsOram, 4, w).exec_cycles as f64;
    assert!(c2 < c1, "2 channels must help");
    assert!(c4 < c2 * 1.02, "4 channels must not be slower than 2");
    // Sub-linear scaling, as the paper observes.
    assert!(c1 / c4 < 4.0);
}

#[test]
fn section51_oram_overhead_in_paper_range() {
    let w = SpecWorkload::Libquantum;
    let oram = run(ProtocolVariant::Baseline, 1, w);
    let mut plain_sys = System::new(SystemConfig {
        use_oram: false,
        ..SystemConfig::quick_test(ProtocolVariant::Baseline, 1)
    });
    let plain = plain_sys.run_workload_with_warmup(w, WARMUP, RECORDS);
    let overhead = oram.exec_cycles as f64 / plain.exec_cycles as f64;
    assert!(
        (2.0..40.0).contains(&overhead),
        "ORAM overhead {overhead:.1}x outside plausible band"
    );
}

#[test]
fn crash_mid_system_run_recovers() {
    let mut sys = System::new(SystemConfig::quick_test(ProtocolVariant::PsOram, 1));
    sys.run_workload(SpecWorkload::Gcc, 5_000);
    let oram = sys.oram_mut().expect("oram backend");
    oram.crash_now();
    assert!(oram.recover().consistent);
    oram.verify_contents(true)
        .expect("committed data must survive a system-level crash");
}

#[test]
fn all_variants_complete_and_report() {
    for variant in ProtocolVariant::all() {
        let r = run(variant, 1, SpecWorkload::Namd);
        assert!(r.exec_cycles > 0, "{variant}");
        assert!(r.llc_misses > 0, "{variant}");
        assert_eq!(r.variant, variant.label());
    }
}
