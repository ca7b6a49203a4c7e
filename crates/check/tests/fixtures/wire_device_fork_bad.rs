// Fixture: the per-op fork above the wire growing back — an implementor
// that overrides the provided methods, one that defines the lone ops
// *instead of* `submit_ops` (the pre-PR-21 shape), and inherent `pub fn`
// sugar beside `submit_ops`.
pub struct Layer<D> {
    inner: D,
}

impl<D: BlockDevice> BlockDevice for Layer<D> {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        self.inner.submit_ops(ops)
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, DeviceError> {
        self.inner.read_at(offset, len)
    }

    fn submit(&self, batch: &IoBatch) -> Result<BatchResult, DeviceError> {
        self.inner.submit(batch)
    }
}

impl<D> Layer<D> {
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, NetError> {
        todo(offset, data)
    }
}

pub struct Legacy;

impl BlockDevice for Legacy {
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, DeviceError> {
        todo(offset, data)
    }
}
