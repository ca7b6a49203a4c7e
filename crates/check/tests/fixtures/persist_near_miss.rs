//! Near-misses for L8 persist-ordering that must all stay clean: the
//! journaled commit path, a waived deliberate bypass, non-call uses of
//! the name, and test-module writes.

pub struct Devices;

impl Devices {
    pub fn write_sector(&self, _d: usize, _s: usize, _r: usize, _c: &[u8]) -> Result<(), String> {
        Ok(())
    }
}

pub struct Store {
    devices: Devices,
}

impl Store {
    // Replay of already-durable records.
    fn replay_journal(&self, cell: &[u8]) -> Result<(), String> {
        self.devices.write_sector(1, 1, 1, cell)
    }

    // The in-place leg of a group commit (records already durable).
    fn apply_write_back(&self, cell: &[u8]) -> Result<(), String> {
        self.devices.write_sector(3, 3, 3, cell)
    }

    // A deliberate bypass, audited at the site.
    pub fn corrupt_for_tests(&self, cell: &[u8]) -> Result<(), String> {
        // check: persist-ok fault injection is deliberately un-journaled
        self.devices.write_sector(2, 2, 2, cell)
    }

    // Mentioning the name without calling it is not a write.
    pub fn describe(&self) -> &'static str {
        "write_sector"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_write_raw_sectors() {
        let s = Store { devices: Devices };
        s.devices.write_sector(9, 9, 9, &[0u8; 4]).unwrap();
    }
}
