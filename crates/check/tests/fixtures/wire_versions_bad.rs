// Fixture: a coherent table that has grown the deleted compatibility
// machinery back. Deliberate defects:
//   * two `*_VERSION` constants (a negotiation floor beside the version);
//   * a `_v` codec variant taking the session version;
//   * `Read` and `Write` opcodes beside `Batch`.
pub const PROTOCOL_VERSION: u32 = 5;
pub const MIN_PROTOCOL_VERSION: u32 = 4;
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

pub enum Opcode {
    Hello = 1,
    Read = 2,
    Write = 3,
    Batch = 4,
}

impl Opcode {
    pub const ALL: [Opcode; 4] = [Opcode::Hello, Opcode::Read, Opcode::Write, Opcode::Batch];

    pub fn name(self) -> &'static str {
        match self {
            Opcode::Hello => "hello",
            Opcode::Read => "read",
            Opcode::Write => "write",
            Opcode::Batch => "batch",
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Opcode::Hello,
            2 => Opcode::Read,
            3 => Opcode::Write,
            4 => Opcode::Batch,
            _ => return None,
        }
    }
}

pub fn write_response_v(stream: &mut Vec<u8>, id: u64, version: u32) {
    let _ = (stream, id, version);
}
