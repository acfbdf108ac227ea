//! Address decomposition: byte address → line, channel, bank.
//!
//! The geometry is fixed when the controller is built, so its four
//! divisors are classified once, there: a power of two (every shipped
//! configuration) shifts and masks, anything else divides. One body
//! serves every address the controller ever decomposes.

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

/// The controller's address map, computed once from its configuration.
///
/// Channels interleave at `interleave_blocks` granularity; banks within a
/// channel always interleave at block granularity (so single-channel
/// behaviour is independent of the channel-interleave setting).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AddressMap {
    block_bytes: Divisor,
    interleave: Divisor,
    channels: Divisor,
    banks: Divisor,
}

impl AddressMap {
    /// The map of a validated configuration.
    pub fn new(config: &NvmConfig) -> Self {
        AddressMap {
            block_bytes: Divisor::new(config.block_bytes as u64),
            interleave: Divisor::new(config.interleave_blocks),
            channels: Divisor::new(config.channels as u64),
            banks: Divisor::new(config.banks_per_channel as u64),
        }
    }

    /// The line (block number) holding byte address `addr`.
    #[inline]
    pub fn line(&self, addr: u64) -> u64 {
        self.block_bytes.div_rem(addr).0
    }

    /// Maps a byte address to `(channel, bank)`.
    #[inline]
    pub fn locate(&self, addr: u64) -> (usize, usize) {
        let (group, offset) = self.interleave.div_rem(self.line(addr));
        let (row, channel) = self.channels.div_rem(group);
        // Within-channel block index: strip the channel bits from the
        // interleave group, keep the offset inside the group.
        let local = self.interleave.times(row) + offset;
        let (_, bank) = self.banks.div_rem(local);
        (channel as usize, bank as usize)
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
}
