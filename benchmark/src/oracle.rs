//! The correctness oracle: every output the harness can see is compared
//! with what it expects, and every comparison is counted. `--self-test`
//! flips one expected value so that a benchmark which cannot fail is
//! itself a detected failure.

#[derive(Debug, Default)]
pub struct Oracle {
    pub attempted: u64,
    pub failed: u64,
    sabotage: bool,
    first_failure: Option<String>,
}

impl Oracle {
    /// With `sabotage`, the first equality check has its expectation
    /// corrupted.
    pub fn new(sabotage: bool) -> Self {
        Oracle {
            sabotage,
            ..Oracle::default()
        }
    }

    /// Counts one attempted operation; `ok == false` counts it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, ok, what);
    }

    /// Counts `n` operations that one check vouches for together.
    pub fn ops(&mut self, n: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            if self.first_failure.is_none() {
                let msg = what();
                eprintln!("oracle: FAILED: {msg}");
                self.first_failure = Some(msg);
            }
        }
    }

    /// `got == expected`, after the self-test has had its chance to flip
    /// the expectation.
    pub fn matches(&mut self, got: u64, expected: u64) -> bool {
        let expected = if std::mem::take(&mut self.sabotage) {
            expected ^ 1
        } else {
            expected
        };
        got == expected
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }
}

/// Flat shadow of a block store whose payloads encode `(addr, version)`.
///
/// `exact[a]` is the version a read must return; `None` after a crash,
/// when a deferred-commit design may have rolled the address back to any
/// earlier version of its own history (or to zeros).
#[derive(Debug)]
pub struct Shadow {
    latest: Vec<u32>,
    exact: Vec<Option<u32>>,
}

pub fn payload(addr: u64, version: u32) -> Vec<u8> {
    let mut p = Vec::with_capacity(8);
    p.extend_from_slice(&(addr as u32).to_le_bytes());
    p.extend_from_slice(&version.to_le_bytes());
    p
}

impl Shadow {
    pub fn new(capacity: u64) -> Self {
        Shadow {
            latest: vec![0; capacity as usize],
            exact: vec![Some(0); capacity as usize],
        }
    }

    /// The payload for the next write to `addr`; the shadow now expects it.
    pub fn next_write(&mut self, addr: u64) -> Vec<u8> {
        let a = addr as usize;
        self.latest[a] += 1;
        self.exact[a] = Some(self.latest[a]);
        payload(addr, self.latest[a])
    }

    /// After a power failure every address may hold any version of its
    /// history until it is next read or written.
    pub fn crashed(&mut self) {
        self.exact.iter_mut().for_each(|e| *e = None);
    }

    /// Checks the bytes a read returned.
    pub fn check_read(&mut self, oracle: &mut Oracle, addr: u64, got: &[u8]) -> bool {
        let a = addr as usize;
        let (got_addr, got_ver) = match got {
            [a0, a1, a2, a3, v0, v1, v2, v3] => (
                u32::from_le_bytes([*a0, *a1, *a2, *a3]),
                u32::from_le_bytes([*v0, *v1, *v2, *v3]),
            ),
            _ => return false,
        };
        // Version 0 is the never-written block: all zeros, no address.
        let want_addr = if got_ver == 0 { 0 } else { addr as u32 };
        match self.exact[a] {
            Some(v) => oracle.matches(u64::from(got_ver), u64::from(v)) && got_addr == want_addr,
            None => {
                let admissible = got_ver <= self.latest[a] && got_addr == want_addr;
                if admissible {
                    self.exact[a] = Some(got_ver);
                }
                admissible
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_accepts_only_what_was_written() {
        let mut o = Oracle::new(false);
        let mut s = Shadow::new(8);
        assert!(s.check_read(&mut o, 3, &[0; 8]), "fresh block reads zeros");
        let p1 = s.next_write(3);
        let p2 = s.next_write(3);
        assert!(!s.check_read(&mut o, 3, &p1), "stale version rejected");
        assert!(s.check_read(&mut o, 3, &p2));
        assert!(!s.check_read(&mut o, 4, &p2), "wrong address rejected");
        assert!(
            !s.check_read(&mut o, 3, &[1, 2, 3]),
            "short payload rejected"
        );
    }

    #[test]
    fn after_a_crash_history_is_admissible_then_pinned() {
        let mut o = Oracle::new(false);
        let mut s = Shadow::new(8);
        let p1 = s.next_write(5);
        let _p2 = s.next_write(5);
        s.crashed();
        assert!(s.check_read(&mut o, 5, &p1), "rollback inside history");
        assert!(!s.check_read(&mut o, 5, &[0; 8]), "now pinned to version 1");
        assert!(!s.check_read(&mut o, 5, &payload(5, 9)), "never written");
    }

    #[test]
    fn sabotage_flips_exactly_one_expectation() {
        let mut o = Oracle::new(true);
        assert!(!o.matches(4, 4));
        assert!(o.matches(4, 4));
        o.op(false, || "x".into());
        o.op(true, || unreachable!());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert_eq!(o.first_failure(), Some("x"));
    }
}
