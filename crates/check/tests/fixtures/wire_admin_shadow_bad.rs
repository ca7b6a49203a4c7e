// Fixture: inherent admin copies growing back beside the trait impls —
// `pub` and `pub(crate)` methods named after `BlockDevice`/`FaultAdmin`
// methods, in a backend file whose trait impls live elsewhere.
pub struct Client {
    info: ServerInfo,
}

impl Client {
    pub fn capacity(&self) -> u64 {
        self.info.capacity
    }

    pub fn status(&self) -> Result<Vec<ShardHealth>, NetError> {
        todo()
    }

    pub(crate) fn scrub(&self, threads: usize) -> Result<ScrubOutcome, NetError> {
        todo(threads)
    }

    pub fn fail_device(&self, shard: usize, device: usize) -> Result<(), NetError> {
        todo(shard, device)
    }
}
