//! Replay holds what the journal holds, not what its segment could: a
//! 1 GiB sparse segment with three records in it replays with the peak
//! resident set (`VmHWM`) grown by less than 16 MiB. Reading the live
//! region into one buffer, as replay once did, grows it by ≈ 1 GiB.
//!
//! A file of its own, so that it runs in a process of its own: `VmHWM`
//! is the whole process's peak, and another test's buffers would count.

use stair_store::Journal;

/// The process's peak resident set in KiB, from `/proc/self/status`.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("a VmHWM line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn replaying_a_sparse_gib_segment_holds_only_its_records() {
    let dir = std::env::temp_dir().join(format!("stair-replay-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let symbol = 64;
    let cells: Vec<((usize, usize), Vec<u8>)> = (0..6)
        .map(|i| ((i / 3, i % 3), vec![i as u8; symbol]))
        .collect();
    let borrowed: Vec<((usize, usize), &[u8])> =
        cells.iter().map(|(c, d)| (*c, d.as_slice())).collect();
    {
        let j = Journal::open_or_create(&dir, symbol, 1 << 30).unwrap();
        for stripe in 0..3 {
            let mut g = j.begin(&[cells.len()], || Ok(())).unwrap().unwrap();
            g.append(stripe, &borrowed, false);
            g.sync().unwrap();
        }
    }
    // Reopened, the segment is 1 GiB long as far as the open can tell.
    let j = Journal::open_or_create(&dir, symbol, 1 << 30).unwrap();
    let before = vm_hwm_kib();
    let mut stripes = Vec::new();
    let replayed = j
        .replay(|rec| {
            assert!(rec.cells == borrowed);
            stripes.push(rec.stripe);
            Ok(())
        })
        .unwrap();
    let grown = vm_hwm_kib() - before;
    drop(j);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!((replayed, stripes), (3, vec![0, 1, 2]));
    assert!(
        grown < 16 * 1024,
        "replay grew the peak resident set by {grown} KiB"
    );
}
