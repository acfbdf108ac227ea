//! Address decomposition: byte address → line, channel, bank.
//!
//! The geometry is fixed when the controller is built, so it is classified
//! once, there: four power-of-two divisors (every shipped configuration)
//! become a branch-free shift-and-mask form, anything else keeps a
//! [`Divisor`] per constant. A burst picks its form once, not per address.

use crate::controller::NvmConfig;

/// A geometry constant fixed at construction, to divide and multiply by.
#[derive(Debug, Clone, Copy)]
enum Divisor {
    /// `2^shift`: the quotient is a shift, the remainder a mask.
    Shift(u32),
    /// Any other non-zero divisor.
    Divide(u64),
}

impl Divisor {
    /// `d` must be non-zero ([`NvmConfig::validate`] sees to it).
    fn new(d: u64) -> Self {
        debug_assert!(d > 0);
        if d.is_power_of_two() {
            Divisor::Shift(d.trailing_zeros())
        } else {
            Divisor::Divide(d)
        }
    }

    /// `(n / d, n % d)`.
    #[inline]
    fn div_rem(self, n: u64) -> (u64, u64) {
        match self {
            Divisor::Shift(s) => (n >> s, n & ((1u64 << s) - 1)),
            Divisor::Divide(d) => (n / d, n % d),
        }
    }

    /// `n * d`.
    #[inline]
    fn times(self, n: u64) -> u64 {
        match self {
            Divisor::Shift(s) => n << s,
            Divisor::Divide(d) => n * d,
        }
    }
}

/// A byte address → `(line, channel, bank)`.
///
/// Channels interleave at `interleave_blocks` granularity; banks within a
/// channel always interleave at block granularity (so single-channel
/// behaviour is independent of the channel-interleave setting).
pub(crate) trait Decompose {
    /// The line (block number) holding `addr`, its channel and its bank
    /// within the channel.
    fn decompose(&self, addr: u64) -> (u64, usize, usize);
}

/// A geometry whose four divisors are all powers of two — every shipped
/// configuration: shifts and masks, no branch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShiftMap {
    block: u32,
    interleave: u32,
    channels: u32,
    bank_mask: u64,
}

impl Decompose for ShiftMap {
    #[inline]
    fn decompose(&self, addr: u64) -> (u64, usize, usize) {
        let line = addr >> self.block;
        let group = line >> self.interleave;
        let offset = line & ((1u64 << self.interleave) - 1);
        let channel = group & ((1u64 << self.channels) - 1);
        // Within-channel block index: strip the channel bits from the
        // interleave group, keep the offset inside the group.
        let local = ((group >> self.channels) << self.interleave) + offset;
        (line, channel as usize, (local & self.bank_mask) as usize)
    }
}

/// Any other geometry: each divisor shifts or divides as it can.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DivisorMap {
    block_bytes: Divisor,
    interleave: Divisor,
    channels: Divisor,
    banks: Divisor,
}

impl Decompose for DivisorMap {
    #[inline]
    fn decompose(&self, addr: u64) -> (u64, usize, usize) {
        let (line, _) = self.block_bytes.div_rem(addr);
        let (group, offset) = self.interleave.div_rem(line);
        let (row, channel) = self.channels.div_rem(group);
        let local = self.interleave.times(row) + offset;
        let (_, bank) = self.banks.div_rem(local);
        (line, channel as usize, bank as usize)
    }
}

/// The controller's address map: its configuration's geometry, classified
/// once, when the controller is built. A burst matches on it once and
/// steps every request through the form it finds.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AddressMap {
    /// All four divisors are powers of two.
    Shifts(ShiftMap),
    /// At least one is not.
    Divisors(DivisorMap),
}

impl AddressMap {
    /// The map of a validated configuration.
    pub fn new(config: &NvmConfig) -> Self {
        let divisors = DivisorMap {
            block_bytes: Divisor::new(config.block_bytes as u64),
            interleave: Divisor::new(config.interleave_blocks),
            channels: Divisor::new(config.channels as u64),
            banks: Divisor::new(config.banks_per_channel as u64),
        };
        match divisors {
            DivisorMap {
                block_bytes: Divisor::Shift(block),
                interleave: Divisor::Shift(interleave),
                channels: Divisor::Shift(channels),
                banks: Divisor::Shift(banks),
            } => AddressMap::Shifts(ShiftMap {
                block,
                interleave,
                channels,
                bank_mask: (1u64 << banks) - 1,
            }),
            _ => AddressMap::Divisors(divisors),
        }
    }
}

impl Decompose for AddressMap {
    /// One address on its own ([`crate::NvmController::map_address`], a
    /// write parked in the buffer); a burst matches once instead.
    fn decompose(&self, addr: u64) -> (u64, usize, usize) {
        match self {
            AddressMap::Shifts(map) => map.decompose(addr),
            AddressMap::Divisors(map) => map.decompose(addr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn div_rem_is_division_for_both_kinds() {
        for d in [1u64, 2, 3, 5, 8, 64, 100, 1 << 40, u64::MAX] {
            let div = Divisor::new(d);
            assert_eq!(
                matches!(div, Divisor::Shift(_)),
                d.is_power_of_two(),
                "divisor {d}"
            );
            for n in [0u64, 1, 63, 64, 65, 12_345_678_901, u64::MAX - 1, u64::MAX] {
                assert_eq!(div.div_rem(n), (n / d, n % d), "{n} / {d}");
                assert_eq!(div.times(n / d), n - n % d, "{n} / {d} * {d}");
            }
        }
    }

    /// Both forms are the `/`-`%` formula, and the classification takes
    /// the shift form exactly when it may.
    #[test]
    fn both_forms_are_the_division_formula() {
        for (channels, interleave, banks, block_bytes) in [
            (1u64, 1u64, 8u64, 64u64),
            (4, 4, 8, 64),
            (2, 1, 1, 128),
            (3, 1, 8, 64),
            (4, 3, 8, 64),
            (2, 4, 6, 64),
            (2, 4, 8, 96),
        ] {
            let map = AddressMap::new(&NvmConfig {
                channels: channels as usize,
                interleave_blocks: interleave,
                banks_per_channel: banks as usize,
                block_bytes: block_bytes as usize,
                ..NvmConfig::paper_pcm(1)
            });
            let all_shifts = [channels, interleave, banks, block_bytes]
                .iter()
                .all(|d| d.is_power_of_two());
            assert_eq!(matches!(map, AddressMap::Shifts(_)), all_shifts);
            for addr in [0u64, 63, 64, 4096 + 7, 12_345_678_901, u64::MAX] {
                let line = addr / block_bytes;
                let group = line / interleave;
                let local = group / channels * interleave + line % interleave;
                assert_eq!(
                    map.decompose(addr),
                    (line, (group % channels) as usize, (local % banks) as usize),
                    "{addr:#x} under {channels}/{interleave}/{banks}/{block_bytes}"
                );
            }
        }
    }
}
