//! True positives for L8 persist-ordering: in-place sector writes in
//! `crates/store` outside the journaled commit path.

pub struct Devices;

impl Devices {
    pub fn write_sector(&self, _d: usize, _s: usize, _r: usize, _c: &[u8]) -> Result<(), String> {
        Ok(())
    }

    pub fn write_run(&self, _d: usize, _s: usize, _r: usize, _c: &[u8]) -> Result<(), String> {
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

    // Violation: a whole run is as un-journaled as one sector.
    pub fn overwrite_column(&self, rows: &[u8]) -> Result<(), String> {
        self.devices.write_run(0, 1, 0, rows)
    }

    // Violation: the recorded writer is a sector write too — calling it
    // from outside the commit path skips the journal just the same.
    pub fn heal_in_passing(&self, cell: &[u8]) -> Result<(), String> {
        self.write_recorded(cell)
    }

    // Allowed: the one writer turns a commit's cells into runs.
    fn write_recorded(&self, cell: &[u8]) -> Result<(), String> {
        self.devices.write_run(0, 0, 0, cell)
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
