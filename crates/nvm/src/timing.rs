//! Device timing parameters for the simulated memory technologies.

use serde::{Deserialize, Serialize};

/// Core clock cycles per memory clock cycle.
///
/// The paper models a 3.2 GHz in-order core over a 400 MHz memory system,
/// giving a fixed 8:1 ratio. All [`crate::NvmController`] bookkeeping is in
/// *memory* cycles; multiply by this constant to convert to core cycles.
pub const CORE_CYCLES_PER_MEM_CYCLE: u64 = 8;

/// The modeled core frequency: the paper's 3.2 GHz in-order core (and
/// `psoram-trace`'s 1-IPC one). The one constant that converts simulated
/// core cycles to seconds, for arrival rates, latencies and lifetimes.
pub const CORE_HZ: u64 = 3_200_000_000;

/// Memory device technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemTech {
    /// Phase-change memory (the paper's default main memory).
    Pcm,
    /// Spin-transfer-torque RAM (used for `FullNVM(STT)` on-chip buffers).
    SttRam,
    /// Idealized DRAM-like timing, used only by the non-ORAM reference
    /// system in the §5.1 overhead comparison.
    Dram,
}

impl std::fmt::Display for MemTech {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemTech::Pcm => write!(f, "PCM"),
            MemTech::SttRam => write!(f, "STT-RAM"),
            MemTech::Dram => write!(f, "DRAM"),
        }
    }
}

/// Device timing constraints, in memory-clock cycles (400 MHz).
///
/// Field names follow the paper's Table 3 (and NVMain's convention):
///
/// * `t_rcd` — row-to-column delay: activate → first read data.
/// * `t_wp`  — write-pulse width: the cell programming time.
/// * `t_cwd` — column-write delay: write command → data on the bus.
/// * `t_wtr` — write-to-read turnaround on the same bank.
/// * `t_rp`  — row precharge / recovery after an access.
/// * `t_ccd` — minimum gap between successive column commands.
///
/// # Examples
///
/// ```
/// use psoram_nvm::{TimingParams, MemTech};
///
/// let pcm = TimingParams::for_tech(MemTech::Pcm);
/// assert_eq!(pcm.t_rcd, 48);
/// assert_eq!(pcm.t_wp, 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Activate-to-read delay (cycles).
    pub t_rcd: u64,
    /// Write pulse width (cycles).
    pub t_wp: u64,
    /// Column write delay (cycles).
    pub t_cwd: u64,
    /// Write-to-read turnaround (cycles).
    pub t_wtr: u64,
    /// Precharge/recovery (cycles).
    pub t_rp: u64,
    /// Column-to-column delay (cycles).
    pub t_ccd: u64,
}

impl TimingParams {
    /// The paper's Table 3 timing for a given technology.
    ///
    /// PCM: `48/60/4/3/1/2`; STT-RAM: `14/14/10/5/1/2`. The DRAM reference
    /// uses conventional DDR-like values (`11/0/4/3/11/2`; writes cost no
    /// cell-programming pulse beyond the burst).
    pub fn for_tech(tech: MemTech) -> Self {
        match tech {
            MemTech::Pcm => TimingParams {
                t_rcd: 48,
                t_wp: 60,
                t_cwd: 4,
                t_wtr: 3,
                t_rp: 1,
                t_ccd: 2,
            },
            MemTech::SttRam => TimingParams {
                t_rcd: 14,
                t_wp: 14,
                t_cwd: 10,
                t_wtr: 5,
                t_rp: 1,
                t_ccd: 2,
            },
            MemTech::Dram => TimingParams {
                t_rcd: 11,
                t_wp: 0,
                t_cwd: 4,
                t_wtr: 3,
                t_rp: 11,
                t_ccd: 2,
            },
        }
    }

    /// Latency (cycles) from read command issue until the last data beat of
    /// a `burst_cycles`-long transfer has arrived.
    pub fn read_latency(&self, burst_cycles: u64) -> u64 {
        self.t_rcd + burst_cycles
    }

    /// Latency (cycles) from write command issue until the data has been
    /// accepted by the device (bus side). Cell programming (`t_wp`)
    /// continues afterwards and keeps the bank busy.
    pub fn write_accept_latency(&self, burst_cycles: u64) -> u64 {
        self.t_cwd + burst_cycles
    }

    /// Total bank-occupancy of a write: accept + program + recover.
    pub fn write_bank_occupancy(&self, burst_cycles: u64) -> u64 {
        self.write_accept_latency(burst_cycles) + self.t_wp + self.t_rp
    }

    /// Total bank-occupancy of a read: deliver + recover.
    pub fn read_bank_occupancy(&self, burst_cycles: u64) -> u64 {
        self.read_latency(burst_cycles) + self.t_rp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pcm_timing_values() {
        let t = TimingParams::for_tech(MemTech::Pcm);
        assert_eq!(
            (t.t_rcd, t.t_wp, t.t_cwd, t.t_wtr, t.t_rp, t.t_ccd),
            (48, 60, 4, 3, 1, 2)
        );
    }

    #[test]
    fn paper_sttram_timing_values() {
        let t = TimingParams::for_tech(MemTech::SttRam);
        assert_eq!(
            (t.t_rcd, t.t_wp, t.t_cwd, t.t_wtr, t.t_rp, t.t_ccd),
            (14, 14, 10, 5, 1, 2)
        );
    }

    #[test]
    fn pcm_writes_slower_than_reads() {
        let t = TimingParams::for_tech(MemTech::Pcm);
        assert!(t.write_bank_occupancy(8) > t.read_bank_occupancy(8));
    }

    #[test]
    fn sttram_faster_than_pcm() {
        let p = TimingParams::for_tech(MemTech::Pcm);
        let s = TimingParams::for_tech(MemTech::SttRam);
        assert!(s.read_latency(8) < p.read_latency(8));
        assert!(s.write_bank_occupancy(8) < p.write_bank_occupancy(8));
    }

    #[test]
    fn display_names() {
        assert_eq!(MemTech::Pcm.to_string(), "PCM");
        assert_eq!(MemTech::SttRam.to_string(), "STT-RAM");
        assert_eq!(MemTech::Dram.to_string(), "DRAM");
    }
}
