//! True positives for L8 persist-ordering: in-place sector writes in
//! `crates/store` outside the journaled commit path.

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
    // Violation: a write path that skips the journal entirely.
    pub fn sneaky_overwrite(&self, cell: &[u8]) -> Result<(), String> {
        self.devices.write_sector(0, 1, 2, cell)
    }

    // Violation: helper with an innocuous name, still un-journaled.
    fn flush_cache_line(&self, cell: &[u8]) -> Result<(), String> {
        self.devices.write_sector(3, 4, 5, cell)
    }

    // Allowed: the journaled persist leg.
    pub fn apply_write_back(&self, cell: &[u8]) -> Result<(), String> {
        self.devices.write_sector(0, 0, 0, cell)
    }

    // Allowed: replaying already-durable journal records.
    fn replay_journal(&self, cell: &[u8]) -> Result<(), String> {
        self.devices.write_sector(0, 0, 0, cell)
    }
}
