//! Near-misses for L8 persist-ordering that must all stay clean: the
//! journaled commit path, a waived deliberate bypass, non-call uses of
//! the name, and test-module writes.

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
    // Replay of already-durable records.
    fn replay_journal(&self, cell: &[u8]) -> Result<(), String> {
        self.devices.write_sector(1, 1, 1, cell)
    }

    // The in-place leg of a group commit (records already durable),
    // through the one writer.
    fn apply_write_back(&self, cell: &[u8]) -> Result<(), String> {
        self.write_recorded(cell)
    }

    // The one writer: a commit's cells, one run per device.
    fn write_recorded(&self, cells: &[u8]) -> Result<(), String> {
        self.devices.write_run(3, 3, 3, cells)
    }

    // Repair rewrites what is already recorded erased, audited at the site.
    pub fn repair_stripe(&self, cell: &[u8]) -> Result<(), String> {
        // check: persist-ok a torn repair write stays erased and is re-repaired
        self.write_recorded(cell)
    }

    // A free function of the same name is not the device's method.
    pub fn plan_runs(&self) -> usize {
        write_run(&[1, 2, 3])
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

fn write_run(rows: &[u8]) -> usize {
    rows.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_write_raw_sectors() {
        let s = Store { devices: Devices };
        s.devices.write_sector(9, 9, 9, &[0u8; 4]).unwrap();
        s.devices.write_run(9, 9, 8, &[0u8; 8]).unwrap();
    }
}
