// Fixture: everything the single-data-path rules must NOT flag — one
// version constant (a `VERSION_`-prefixed name is not a second one), a
// `_v` fn with no version parameter, a fn merely ending in `v`, a fn
// taking a version without being a `_v` variant, and opcodes whose
// names only start with Read/Write.
pub const PROTOCOL_VERSION: u32 = 5;
pub const VERSION_FIELD_BYTES: u32 = 4;
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

pub enum Opcode {
    Hello = 1,
    Batch = 2,
    ReadAhead = 3,
    WriteBarrier = 4,
}

impl Opcode {
    pub const ALL: [Opcode; 4] = [
        Opcode::Hello,
        Opcode::Batch,
        Opcode::ReadAhead,
        Opcode::WriteBarrier,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Opcode::Hello => "hello",
            Opcode::Batch => "batch",
            Opcode::ReadAhead => "read_ahead",
            Opcode::WriteBarrier => "write_barrier",
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Opcode::Hello,
            2 => Opcode::Batch,
            3 => Opcode::ReadAhead,
            4 => Opcode::WriteBarrier,
            _ => return None,
        }
    }
}

pub fn checksum_v(data: &[u8]) -> u32 {
    data.len() as u32
}

pub fn recv(stream: &mut Vec<u8>) {
    stream.clear();
}

pub fn refuse(version: u32) -> String {
    format!("version mismatch: server speaks v{PROTOCOL_VERSION}, client v{version}")
}
