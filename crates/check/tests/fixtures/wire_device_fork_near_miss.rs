// Fixture: everything the one-data-path-method rule must NOT flag — an
// implementor with `submit_ops` only (a nested helper fn named `submit`
// inside it is not a method of the impl), a *different* trait
// implemented for a type bounded by BlockDevice, private and
// crate-visible lone-op helpers, callers of the provided methods, and
// names that merely start with read_at/write_at/submit.
pub struct Layer<D> {
    inner: D,
}

impl<D: BlockDevice> BlockDevice for Layer<D> {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        fn submit(n: usize) -> usize {
            n
        }
        submit(ops.len());
        self.inner.submit_ops(ops)
    }
}

impl<D: BlockDevice + FaultAdmin> FaultAdmin for Layer<D> {
    fn submit(&self, shard: usize) -> Result<(), DeviceError> {
        self.inner.fail_device(shard, 0)
    }
}

impl<D: BlockDevice> Layer<D> {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, DeviceError> {
        self.inner.read_at(offset, len)
    }

    pub(crate) fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, DeviceError> {
        self.inner.write_at(offset, data)
    }

    pub fn read_at_most(&self, len: usize) -> usize {
        len
    }

    pub fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, NetError> {
        todo(ops)
    }
}
