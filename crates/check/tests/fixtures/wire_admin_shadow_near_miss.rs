// Fixture: what the no-inherent-admin rule must NOT flag in a backend
// file — the typed `submit_ops` twin, calls that do not use the trait
// names, private helpers, names that only start with a trait method's,
// trait methods inside an `impl … for` block, and a `pub(crate)` helper
// with another name.
pub struct Client {
    info: ServerInfo,
}

impl Client {
    pub fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, NetError> {
        todo(ops)
    }

    pub fn status_line(&self) -> String {
        format!("{}", self.info.capacity)
    }

    pub fn shutdown_server(&self) -> Result<(), NetError> {
        self.call(false, &Request::Shutdown)
    }

    pub(crate) fn call(&self, idempotent: bool, req: &Request) -> Result<(), NetError> {
        todo(idempotent, req)
    }

    fn flush(&self) -> Result<(), NetError> {
        todo()
    }
}

impl BlockDevice for Client {
    fn capacity(&self) -> u64 {
        self.info.capacity
    }

    fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, DeviceError> {
        Ok(Client::submit_ops(self, ops)?)
    }

    fn metrics(&self) -> Result<MetricsSnapshot, DeviceError> {
        todo()
    }
}
