//! The toy protocol: a third design, whole, in a hundred lines.

use psoram_nvm::{FaultConfig, NvmConfig, WpqEntry};

use crate::arena::SlotArena;
use crate::block::Block;
use crate::crash::{CrashPoint, RecoveryReport};
use crate::engine::{
    arm, commit_and_apply, crash_at, lone, power_fail, set_tap, Access, CommitModel, Copies,
    DrainedRound, Listing, Media, NvmLayout, PersistEngine, PosMapFlush, ProtocolPolicy, Rounds,
    Shell,
};
use crate::tree::BucketIndex;
use crate::types::{BlockAddr, Leaf};

/// The toy's addressable blocks.
pub const ADDRS: u64 = 4;

/// A slot: (bucket, slot).
type Unit = (u64, usize);

/// A third protocol, whole, with no device, recovery or control code of
/// its own: one row of two-slot buckets, address `a` owning buckets `2a`
/// and `2a + 1`, its leaf label the bucket its newest version sits in.
/// Successive versions rotate through the address's four slots, so older
/// ones survive as the redundant copies. A write is one persist round of
/// its blocks and their PosMap entries; a read takes the newest copy the
/// label names. It models no time. A crash fires with the round open
/// ([`CrashPoint::AfterUpdateStash`]) or after it is applied
/// ([`CrashPoint::AfterEviction`]).
pub struct Toy {
    pub(crate) shell: Shell,
    pub(crate) wpq: PersistEngine<(Unit, Block), PosMapFlush>,
    pub(crate) arena: SlotArena,
}

/// Where the toy's copies sit: in the one bucket the label names, in the
/// clear, admitted as they are.
struct ToyCopies;

impl Copies for ToyCopies {
    const DESC: &'static str = "toy copy";

    fn path(&self, leaf: Leaf) -> impl Iterator<Item = BucketIndex> {
        std::iter::once(leaf.0)
    }
}

impl Default for Toy {
    fn default() -> Self {
        Toy {
            shell: Shell::new(NvmConfig::paper_pcm(1), 2 * ADDRS, 1, 1),
            wpq: PersistEngine::new(8, 8),
            arena: SlotArena::new(2, 8),
        }
    }
}

impl Toy {
    /// Opens a persist round writing `payload` to each of `addrs` and
    /// leaves it open; returns the slots it will program.
    pub(crate) fn stage(&mut self, addrs: &[u64], payload: &[u8]) -> Vec<Unit> {
        self.wpq.begin_round(&self.shell.ctl).unwrap();
        let layout = self.nvm_layout();
        let mut units = Vec::new();
        for &a in addrs {
            self.shell.seq_counter += 1;
            let v = self.shell.seq_counter;
            let unit = (2 * a + (v & 1), (v >> 1) as usize & 1);
            let mut block = Block::new(BlockAddr(a), Leaf(unit.0), payload.to_vec());
            block.header.seq = v;
            self.shell.ledger.note_written(a, payload);
            // An entry at its address in the PosMap region; a block at its
            // slot's line of its bucket, where the wear adversary sees it.
            let (value, addr) = ((BlockAddr(a), Leaf(unit.0)), layout.posmap + 8 * a);
            self.wpq.push_posmap(WpqEntry { addr, value }).unwrap();
            let slot_bytes = layout.bucket_bytes / 2;
            let addr = unit.0 * layout.bucket_bytes + unit.1 as u64 * slot_bytes;
            let value = (unit, block);
            self.wpq.push_data(WpqEntry { addr, value }).unwrap();
            units.push(unit);
        }
        units
    }

    /// One persist round writing `[value; 8]` to each of `addrs`.
    #[cfg(test)]
    pub(crate) fn write(&mut self, addrs: &[u64], value: u8) -> Vec<Unit> {
        let units = self.stage(addrs, &[value; 8]);
        commit_and_apply(self).unwrap();
        units
    }
}

impl Rounds for Toy {
    type Data = (Unit, Block);

    fn media(&mut self) -> Media<'_, (Unit, Block)> {
        (&mut self.shell, &mut self.wpq, &mut self.arena)
    }

    /// Its blocks, then their entries; every block is its address's newest
    /// version and commits.
    fn apply_round(&mut self, (data, posmap): &mut DrainedRound<(Unit, Block), PosMapFlush>) {
        let units = data.iter().map(|e| {
            let ((bucket, slot), block) = &e.value;
            (*bucket, *slot, Some(block.view()))
        });
        (self.shell.device).program(&mut self.arena, units.map(lone), Listing::Join);
        (self.shell).flush(posmap.drain(..).map(|e| e.value), Listing::Join);
        for (_, b) in data.drain(..).map(|e| e.value) {
            (self.shell.ledger).commit_if_fresh(b.addr().0, b.header.seq, &b.payload);
        }
    }

    fn wipe(&mut self) {}
}

impl ProtocolPolicy for Toy {
    fn label(&self) -> String {
        "toy".into()
    }
    fn capacity_blocks(&self) -> u64 {
        ADDRS
    }
    fn payload_bytes(&self) -> usize {
        8
    }
    fn crash_consistent(&self) -> bool {
        true
    }
    fn commit_model(&self) -> CommitModel {
        CommitModel::OnCompletion
    }
    fn shell(&self) -> &Shell {
        &self.shell
    }
    fn shell_mut(&mut self) -> &mut Shell {
        &mut self.shell
    }
    fn access(&mut self, addr: u64, data: Option<&[u8]>, arrival: u64) -> Access {
        let (a, index) = (BlockAddr(addr), self.shell.ctl.access_attempts());
        (self.shell).begin_access(a, data, (ADDRS, 8), index, arrival)?;
        if let Some(data) = data {
            self.stage(&[addr], data);
        }
        crash_at(self, CrashPoint::AfterUpdateStash)?;
        if data.is_some() {
            commit_and_apply(self)?;
        }
        crash_at(self, CrashPoint::AfterEviction)?;
        let value = data.is_none().then(|| {
            let mut value = Vec::new();
            self.peek(addr, &mut value);
            value
        });
        self.shell.end_access(index, arrival, arrival);
        Ok((value, arrival))
    }
    /// The newest held copy, else zeros: a read is this.
    fn peek(&self, addr: u64, out: &mut Vec<u8>) {
        let a = BlockAddr(addr);
        let leaf = self.shell.lookup(a);
        out.clear();
        match (self.arena).newest_on_path(ToyCopies.path(leaf), a, leaf) {
            Some(copy) => out.extend_from_slice(copy.payload),
            None => out.resize(8, 0),
        }
    }
    fn crash_now(&mut self) {
        power_fail(self);
    }
    fn recover(&mut self) -> RecoveryReport {
        (self.shell).recover(&mut self.arena, &ToyCopies, |_, _, _, _| false)
    }
    fn state_digest(&self) -> u128 {
        self.shell.state_digest(&self.arena, false)
    }
    /// The toy keeps no stash.
    fn stash_max_occupancy(&self) -> usize {
        0
    }
    fn enable_device_faults(&mut self, seed: u64, cfg: FaultConfig) {
        arm(self, seed, cfg, true);
    }
    /// A row of two-slot buckets.
    fn nvm_layout(&self) -> NvmLayout {
        NvmLayout::tree_only(2 * ADDRS, 2 * 64)
    }
    fn wpq_stats(&self) -> (psoram_nvm::WpqStats, psoram_nvm::WpqStats) {
        self.wpq.wpq_stats()
    }
    fn set_obsv_tap(&mut self, tap: psoram_obsv::Tap) {
        set_tap(self, tap);
    }
    fn publish_metrics(&self, prefix: &str, reg: &mut psoram_obsv::MetricsRegistry) {
        let (oram, wpq) = (self.shell.ctl.stats(), self.wpq.wpq_stats());
        (self.shell).publish_metrics(prefix, reg, &oram, wpq);
    }
}
