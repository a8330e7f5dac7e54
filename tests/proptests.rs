//! Randomized model tests: core data structures checked against reference
//! models under pseudo-random operation sequences.
//!
//! Each family runs a fixed number of cases from the deterministic
//! in-tree PRNG. Every failure names its case — in the message, or on
//! stderr as the oracle's panic unwinds, where a device schedule prints
//! whole as the `DevOp` list that replays it — so a red run reproduces
//! exactly. Fixed schedules (`FS_REGRESSIONS`, `DEV_REGRESSIONS`) run
//! ahead of their families' generated cases.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a panic on a setup failure is the right failure mode, and allow-unwrap-in-tests covers #[test] fns only"
)]

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use rand::{rngs::StdRng, Rng, SeedableRng};

use xftl_core::XFtl;
use xftl_db::pager::{DbJournalMode, Pager, SharedFs};
use xftl_db::record::{
    decode_record, encode_index_key, encode_index_prefix, encode_record, index_key_rowid,
};
use xftl_db::{btree, Value};
use xftl_flash::{FaultKind, FaultPlan, FaultTrigger, FlashChip, FlashConfig, SimClock};
use xftl_fs::{FileSystem, FsConfig, JournalMode};
use xftl_ftl::{BlockDevice, PageMappedFtl, Personality, TxFlashFtl};

mod common;
use common::{run_schedule, DevOp, Exercised, Page::Fill};
use xftl_verify::ShadowDevice;

/// One generator per (family, case): fully determined by the pair, so any
/// failing case replays from its printed seed alone.
fn case_rng(family: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(family.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case)
}

// --- generators ---------------------------------------------------------------

fn rand_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen_range(0u8..=255)).collect()
}

fn rand_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0u32..5) {
        0 => Value::Null,
        1 => Value::Int(rng.gen_range(i64::MIN..=i64::MAX)),
        2 => Value::Real(rng.gen_range(-1.0e12f64..1.0e12)),
        3 => {
            let len = rng.gen_range(0usize..40);
            Value::Text((0..len).map(|_| rng.gen_range(0u8..0x80) as char).collect())
        }
        _ => Value::Blob(rand_bytes(rng, 60)),
    }
}

// --- record format -------------------------------------------------------------

/// Any row survives the record encoding round trip.
#[test]
fn record_roundtrip() {
    for case in 0..256u64 {
        let mut rng = case_rng(1, case);
        let row: Vec<Value> = (0..rng.gen_range(0usize..8))
            .map(|_| rand_value(&mut rng))
            .collect();
        let enc = encode_record(&row);
        let dec = decode_record(&enc).expect("well-formed record decodes");
        assert_eq!(dec.len(), row.len(), "case {case}");
        for (a, b) in dec.iter().zip(&row) {
            match (a, b) {
                (Value::Real(x), Value::Real(y)) => {
                    assert!(x == y || (x.is_nan() && y.is_nan()), "case {case}");
                }
                _ => assert_eq!(a, b, "case {case}"),
            }
        }
    }
}

/// Truncated records never decode successfully into the full row (decoding
/// either errors or yields fewer/equal values — it must not fabricate data
/// or panic).
#[test]
fn record_truncation_is_safe() {
    for case in 0..256u64 {
        let mut rng = case_rng(2, case);
        let row: Vec<Value> = (0..rng.gen_range(1usize..6))
            .map(|_| rand_value(&mut rng))
            .collect();
        let enc = encode_record(&row);
        let cut = rng.gen_range(1usize..32).min(enc.len());
        if let Ok(decoded) = decode_record(&enc[..enc.len() - cut]) {
            assert!(decoded.len() <= row.len(), "case {case}");
        }
    }
}

/// The index key encoding preserves SQL comparison order.
#[test]
fn index_key_order_preserving() {
    for case in 0..512u64 {
        let mut rng = case_rng(3, case);
        let a = rand_value(&mut rng);
        let b = rand_value(&mut rng);
        // NaN has no total order in SQL; skip it.
        let is_nan = |v: &Value| matches!(v, Value::Real(r) if r.is_nan());
        if is_nan(&a) || is_nan(&b) {
            continue;
        }
        let ka = encode_index_prefix(std::slice::from_ref(&a));
        let kb = encode_index_prefix(std::slice::from_ref(&b));
        let cmp_vals = a.sort_cmp(&b);
        if cmp_vals == std::cmp::Ordering::Less {
            assert!(ka < kb, "case {case}: {a:?} < {b:?} but keys disagree");
        } else if cmp_vals == std::cmp::Ordering::Greater {
            assert!(ka > kb, "case {case}: {a:?} > {b:?} but keys disagree");
        }
    }
}

/// Rowids embedded in composite keys always come back intact.
#[test]
fn index_key_rowid_roundtrip() {
    for case in 0..256u64 {
        let mut rng = case_rng(4, case);
        let v = rand_value(&mut rng);
        let rowid = rng.gen_range(i64::MIN..=i64::MAX);
        let key = encode_index_key(&[v], rowid);
        assert_eq!(index_key_rowid(&key).expect("rowid"), rowid, "case {case}");
    }
}

// --- B-tree vs BTreeMap model ---------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(i64, Vec<u8>),
    Delete(i64),
    Get(i64),
}

fn rand_tree_ops(rng: &mut StdRng) -> Vec<TreeOp> {
    let n = rng.gen_range(1usize..120);
    (0..n)
        .map(|_| match rng.gen_range(0u32..3) {
            0 => {
                let k = rng.gen_range(0i64..500);
                let v = rand_bytes(rng, 120);
                TreeOp::Insert(k, v)
            }
            1 => TreeOp::Delete(rng.gen_range(0i64..500)),
            _ => TreeOp::Get(rng.gen_range(0i64..500)),
        })
        .collect()
}

fn test_pager() -> Pager<PageMappedFtl> {
    let chip = FlashChip::new(FlashConfig::tiny(220), SimClock::new());
    let dev = PageMappedFtl::format(chip, 1_600).unwrap();
    let fs = FileSystem::mkfs(
        dev,
        JournalMode::Ordered,
        FsConfig {
            inode_count: 16,
            journal_pages: 32,
            cache_pages: 256,
        },
    )
    .unwrap();
    let fs: SharedFs<PageMappedFtl> = Rc::new(RefCell::new(fs));
    Pager::open(fs, "prop.db", DbJournalMode::Rollback).unwrap()
}

/// The table B-tree behaves exactly like a BTreeMap under arbitrary
/// insert/delete/get sequences, including ordered iteration.
#[test]
fn btree_matches_model() {
    for case in 0..48u64 {
        let mut rng = case_rng(5, case);
        let ops = rand_tree_ops(&mut rng);
        let mut pager = test_pager();
        pager.begin().unwrap();
        let root = btree::create_table_tree(&mut pager).unwrap();
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                TreeOp::Insert(k, v) => {
                    btree::table_insert(&mut pager, root, *k, v).unwrap();
                    model.insert(*k, v.clone());
                }
                TreeOp::Delete(k) => {
                    let removed = btree::table_delete(&mut pager, root, *k).unwrap();
                    assert_eq!(removed, model.remove(k).is_some(), "case {case}");
                }
                TreeOp::Get(k) => {
                    let got = btree::table_get(&mut pager, root, *k).unwrap();
                    assert_eq!(
                        got.as_deref(),
                        model.get(k).map(Vec::as_slice),
                        "case {case}"
                    );
                }
            }
        }
        // Final state: ordered scan equals the model.
        let mut scanned = Vec::new();
        btree::table_scan_from(&mut pager, root, i64::MIN, &mut |_, rowid, val| {
            scanned.push((rowid, val.to_vec()));
            Ok(true)
        })
        .unwrap();
        let expect: Vec<(i64, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(scanned, expect, "case {case}");
        pager.commit().unwrap();
    }
}

// --- file system vs byte-vector model ---------------------------------------------

#[derive(Debug, Clone)]
enum FsOp {
    Write { off: u64, len: usize, byte: u8 },
    Read { off: u64, len: usize },
    Truncate { size: u64 },
    Fsync,
}

fn rand_fs_ops(rng: &mut StdRng) -> Vec<FsOp> {
    let n = rng.gen_range(1usize..60);
    (0..n)
        .map(|_| match rng.gen_range(0u32..4) {
            0 => FsOp::Write {
                off: rng.gen_range(0u64..40_000),
                len: rng.gen_range(1usize..3_000),
                byte: rng.gen_range(0u8..=255),
            },
            1 => FsOp::Read {
                off: rng.gen_range(0u64..45_000),
                len: rng.gen_range(1usize..3_000),
            },
            2 => FsOp::Truncate {
                size: rng.gen_range(0u64..40_000),
            },
            _ => FsOp::Fsync,
        })
        .collect()
}

/// Byte-range schedules an earlier generator shrank failures to; each
/// runs before the generated cases. Kept as the corpus recorded them.
#[rustfmt::skip]
const FS_REGRESSIONS: [&[FsOp]; 2] = [
    &[FsOp::Read { off: 1, len: 1 }],
    &[FsOp::Write { off: 170, len: 2687, byte: 1 }, FsOp::Truncate { size: 1 },
      FsOp::Write { off: 171, len: 1, byte: 0 }],
];

/// Runs `ops` on a fresh file and checks every step, and the remounted
/// file, against a plain Vec<u8> model.
fn fs_case(what: &str, ops: &[FsOp]) {
    let chip = FlashChip::new(FlashConfig::tiny(300), SimClock::new());
    let dev = PageMappedFtl::format(chip, 2_200).unwrap();
    let mut fs = FileSystem::mkfs(
        dev,
        JournalMode::Ordered,
        FsConfig {
            inode_count: 8,
            journal_pages: 32,
            cache_pages: 16,
        },
    )
    .unwrap();
    let f = fs.create("model").unwrap();
    let mut model: Vec<u8> = Vec::new();
    for op in ops {
        match op {
            FsOp::Write { off, len, byte } => {
                let data = vec![*byte; *len];
                fs.write(f, *off, &data, None).unwrap();
                let end = *off as usize + *len;
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[*off as usize..end].fill(*byte);
            }
            FsOp::Read { off, len } => {
                let mut buf = vec![0u8; *len];
                let n = fs.read(f, *off, &mut buf, None).unwrap();
                let expect_n = model.len().saturating_sub(*off as usize).min(*len);
                assert_eq!(n, expect_n, "{what}");
                if n > 0 {
                    assert_eq!(
                        &buf[..n],
                        &model[*off as usize..*off as usize + n],
                        "{what}"
                    );
                }
            }
            FsOp::Truncate { size } => {
                fs.truncate(f, *size).unwrap();
                model.truncate(*size as usize);
            }
            FsOp::Fsync => fs.fsync(f, None).unwrap(),
        }
        assert_eq!(fs.size(f).unwrap(), model.len() as u64, "{what}");
    }
    // Durability: sync, remount, and compare the whole file.
    let dev = fs.unmount().unwrap();
    let mut fs = FileSystem::mount(dev, JournalMode::Ordered, 16).unwrap();
    let f = fs.open("model").unwrap();
    let mut buf = vec![0u8; model.len()];
    let n = fs.read(f, 0, &mut buf, None).unwrap();
    assert_eq!(n, model.len(), "{what}");
    assert_eq!(buf, model, "{what}");
}

/// Byte-granular file I/O matches a plain Vec<u8> model, across cache
/// pressure and fsyncs.
#[test]
fn fs_matches_model() {
    for (i, ops) in FS_REGRESSIONS.iter().enumerate() {
        fs_case(&format!("family 6 regression {i}"), ops);
    }
    for case in 0..48u64 {
        let ops = rand_fs_ops(&mut case_rng(6, case));
        fs_case(&format!("family 6 case {case}"), &ops);
    }
}

// --- device schedules vs the shadow oracle -----------------------------------------
// Families 7, 8, 10 and 11 generate a schedule of device commands in the
// alphabet of `tests/common` and run it behind `xftl_verify::ShadowDevice`
// through `common::run_schedule`: the oracle's model is the one statement
// of what a transactional device owes its host, and every read is checked
// against it.

/// A family 7 schedule, ending in a power cut.
fn rand_tx_ops(rng: &mut StdRng) -> Vec<DevOp> {
    // Host contract (§3.3/§4.3): X-FTL does not arbitrate write-write
    // conflicts — SQLite's database-level write lock guarantees a single
    // writer per page. The generator honours that contract by giving each
    // transaction id its own page-number stripe (lpn % 4 == tid - 1) and
    // keeping plain writes on pages 20..24. The stripe is stricter than
    // the contract: it forbids even *sequential* transactional writers of
    // one page, which the host may well issue — one commits, the next
    // writes the page — and so it never produces a reused tid committing
    // again after another tid superseded its page (X-FTL keeps reused
    // tids apart by their commit ordinals). `DEV_REGRESSIONS` holds that
    // case by hand.
    let n = rng.gen_range(1usize..50);
    (0..n)
        .map(|_| match rng.gen_range(0u32..13) {
            0..=3 => {
                let tid = rng.gen_range(1u64..5);
                let row = rng.gen_range(0u64..5);
                DevOp::Write {
                    tid,
                    lpn: row * 4 + (tid - 1),
                    page: Fill(rng.gen_range(0u8..=255)),
                }
            }
            4 | 5 => DevOp::PlainWrite {
                lpn: rng.gen_range(20u64..24),
                page: Fill(rng.gen_range(0u8..=255)),
            },
            6 | 7 => DevOp::Commit {
                tid: rng.gen_range(1u64..5),
            },
            8 => DevOp::Abort {
                tid: rng.gen_range(1u64..5),
            },
            9 => DevOp::Flush,
            10 => DevOp::Crash,
            11 => DevOp::CommitSubmit {
                tid: rng.gen_range(1u64..5),
            },
            _ => DevOp::CommitWait,
        })
        .chain([DevOp::Crash])
        .collect()
}

/// Fixed device schedules: the first five are what an earlier generator
/// shrank failures to, kept as the corpus recorded them; the last two are
/// the reused-tid case `rand_tx_ops` cannot produce — tid 1 commits page
/// 5, tid 2 commits it over tid 1, and tid 1, reused, commits page 6 —
/// blocking, then as one staged group redeemed by its last ticket.
/// Families 7 and 8 run each before their generated cases, with the
/// flash auditor after every op.
#[rustfmt::skip]
const DEV_REGRESSIONS: [&[DevOp]; 8] = [
    &[DevOp::Write { tid: 2, lpn: 0, page: Fill(0) }, DevOp::Commit { tid: 2 },
      DevOp::Write { tid: 2, lpn: 1, page: Fill(1) }, DevOp::Flush],
    &[DevOp::Write { tid: 2, lpn: 15, page: Fill(0) }, DevOp::Write { tid: 3, lpn: 15, page: Fill(1) },
      DevOp::Commit { tid: 3 }, DevOp::Commit { tid: 2 }],
    &[DevOp::Write { tid: 4, lpn: 3, page: Fill(0) }, DevOp::Write { tid: 1, lpn: 8, page: Fill(1) },
      DevOp::Commit { tid: 1 }, DevOp::Write { tid: 1, lpn: 8, page: Fill(0) }, DevOp::Commit { tid: 4 }],
    &[DevOp::Write { tid: 2, lpn: 1, page: Fill(0) }, DevOp::Write { tid: 2, lpn: 1, page: Fill(1) },
      DevOp::Write { tid: 1, lpn: 0, page: Fill(0) }, DevOp::PlainWrite { lpn: 20, page: Fill(0) },
      DevOp::Flush, DevOp::Commit { tid: 2 }, DevOp::Crash],
    &[DevOp::Write { tid: 2, lpn: 1, page: Fill(1) }, DevOp::Write { tid: 2, lpn: 1, page: Fill(0) },
      DevOp::Crash, DevOp::Write { tid: 2, lpn: 5, page: Fill(0) }, DevOp::Commit { tid: 2 },
      DevOp::Crash],
    &[DevOp::Write { tid: 1, lpn: 5, page: Fill(0xA1) }, DevOp::Commit { tid: 1 },
      DevOp::Write { tid: 2, lpn: 5, page: Fill(0xB2) }, DevOp::Commit { tid: 2 },
      DevOp::Write { tid: 1, lpn: 6, page: Fill(0xC3) }, DevOp::Commit { tid: 1 }],
    &[DevOp::Write { tid: 1, lpn: 5, page: Fill(0xA1) }, DevOp::CommitSubmit { tid: 1 },
      DevOp::Write { tid: 2, lpn: 5, page: Fill(0xB2) }, DevOp::CommitSubmit { tid: 2 },
      DevOp::Write { tid: 1, lpn: 6, page: Fill(0xC3) }, DevOp::CommitSubmit { tid: 1 },
      DevOp::CommitWait],
    // Page differentials: staged over one base, moved onto a whole commit
    // staged under a pending one, superseded by a plain write, kept
    // across a checkpoint and a power cut.
    &[DevOp::Write { tid: 1, lpn: 3, page: Fill(0x10) }, DevOp::Commit { tid: 1 },
      DevOp::Patch { tid: 2, lpn: 3, byte: 0x20 }, DevOp::CommitSubmit { tid: 2 },
      DevOp::Patch { tid: 3, lpn: 3, byte: 0x30 }, DevOp::Patch { tid: 4, lpn: 3, byte: 0x40 },
      DevOp::Write { tid: 5, lpn: 3, page: Fill(0x50) }, DevOp::CommitSubmit { tid: 5 },
      DevOp::Commit { tid: 3 }, DevOp::Abort { tid: 4 }, DevOp::CommitWait,
      DevOp::Patch { tid: 6, lpn: 3, byte: 0x60 }, DevOp::Commit { tid: 6 }, DevOp::Flush,
      DevOp::Crash, DevOp::Write { tid: 7, lpn: 4, page: Fill(0x70) }, DevOp::Commit { tid: 7 },
      DevOp::Patch { tid: 8, lpn: 4, byte: 0x80 }, DevOp::Commit { tid: 8 },
      DevOp::PlainWrite { lpn: 4, page: Fill(0x90) }, DevOp::Patch { tid: 9, lpn: 4, byte: 0xA0 },
      DevOp::Commit { tid: 9 }],
];

/// Generates a schedule with 2–4 concurrently open snapshot writers,
/// ending in a power cut.
/// Tids are never reused, so each `begin` opens a fresh transaction and
/// every commit outcome is attributable to exactly one snapshot; plain
/// writes provide the non-transactional traffic that must conflict
/// overlapping snapshot writers.
fn rand_mvcc_ops(rng: &mut StdRng) -> Vec<DevOp> {
    let n = rng.gen_range(40..100);
    let mut ops = Vec::with_capacity(n);
    let mut active: Vec<u64> = Vec::new();
    let mut next_tid = 1u64;
    for _ in 0..n {
        let roll = rng.gen_range(0u32..100);
        if roll < 22 {
            if active.len() < 4 {
                ops.push(DevOp::Begin { tid: next_tid });
                active.push(next_tid);
                next_tid += 1;
            }
        } else if roll < 52 {
            if let Some(i) = (!active.is_empty()).then(|| rng.gen_range(0..active.len())) {
                ops.push(DevOp::Write {
                    tid: active[i],
                    lpn: rng.gen_range(0u64..16),
                    page: Fill(rng.gen_range(1u8..=250)),
                });
            }
        } else if roll < 62 {
            ops.push(DevOp::PlainWrite {
                lpn: rng.gen_range(0u64..16),
                page: Fill(rng.gen_range(1u8..=250)),
            });
        } else if roll < 78 {
            if let Some(i) = (!active.is_empty()).then(|| rng.gen_range(0..active.len())) {
                let tid = active.swap_remove(i);
                ops.push(if rng.gen_bool(0.5) {
                    DevOp::Commit { tid }
                } else {
                    DevOp::CommitSubmit { tid }
                });
            }
        } else if roll < 84 {
            ops.push(DevOp::CommitWait);
        } else if roll < 91 {
            if let Some(i) = (!active.is_empty()).then(|| rng.gen_range(0..active.len())) {
                let tid = active.swap_remove(i);
                ops.push(DevOp::Abort { tid });
            }
        } else if roll < 96 {
            ops.push(DevOp::Flush);
        } else {
            ops.push(DevOp::Crash);
            active.clear();
        }
    }
    ops.push(DevOp::Crash);
    ops
}

type XDev = ShadowDevice<XFtl>;

/// X-FTL exporting 24 pages of `chip`, with 64 X-L2P slots.
fn x_format(chip: FlashChip) -> XDev {
    ShadowDevice::new(XFtl::format_with_capacity(chip, 24, 64).unwrap())
}

/// [`common::recover`], with [`x_format`]'s 64 X-L2P slots.
fn x_crash(dev: XDev) -> XDev {
    let (inner, model) = dev.into_parts();
    let dev = XFtl::recover_with_capacity(inner.into_chip(), 64)
        .unwrap_or_else(|e| panic!("recovery refused the chip: {e:?}"));
    common::resume(dev, model)
}

/// [`x_crash`], after holding the image the power cut left — lives,
/// reused transaction ids and all: X-FTL's recovery never consults the
/// horizon — to [`common::assert_skip_is_invisible`].
fn x_crash_checking_the_skip(dev: XDev) -> XDev {
    common::assert_skip_is_invisible::<XFtl>(dev.inner().base().chip());
    x_crash(dev)
}

/// A family's schedules, each named and marked fixed or generated, each
/// ending in a power cut: [`DEV_REGRESSIONS`], then 48 generated cases.
fn tx_schedules(family: u64) -> impl Iterator<Item = (String, Vec<DevOp>, bool)> {
    let regressions = DEV_REGRESSIONS.iter().enumerate().map(move |(i, ops)| {
        let what = format!("family {family} regression {i}");
        (what, [*ops, &[DevOp::Crash]].concat(), true)
    });
    let generated = (0..48u64).map(move |case| {
        let ops = rand_tx_ops(&mut case_rng(family, case));
        (format!("family {family} case {case}"), ops, false)
    });
    regressions.chain(generated)
}

/// Family 7: X-FTL's transactional writes become visible only at commit
/// (blocking or submitted), vanish on abort, and a crash preserves the
/// durable image plus — group-atomically, in submission order — any
/// staged split-phase commits an internal flush happened to persist.
#[test]
fn xftl_transactions_match_model() {
    let mut seen = Exercised::default();
    for (what, ops, fixed) in tx_schedules(7) {
        let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
        let crash = x_crash_checking_the_skip;
        run_schedule(&what, x_format(chip), &ops, crash, fixed, &mut seen);
    }
    // (This generator keeps plain writes off the transactions' pages, so
    // none lands on a staged one; family 11's do.)
    assert!(seen.cuts_strict_prefix > 0, "{seen:?}");
}

/// Generates a deterministic fault environment alongside the command
/// schedule: modest background rates (kept low enough that bounded FTL
/// retries always converge) plus up to three one-shot triggers aimed at
/// random ops, blocks, or logical pages. Every draw comes from the case
/// RNG, so a failing case replays from its printed seed alone.
fn rand_fault_plan(rng: &mut StdRng) -> FaultPlan {
    let seed = rng.gen_range(0u64..=u64::MAX);
    let mut plan = FaultPlan::new(seed)
        .program_fail_rate(rng.gen_range(0.0..4e-3))
        .erase_fail_rate(rng.gen_range(0.0..2e-3))
        .read_flip_rate(rng.gen_range(0.0..4e-2))
        .uncorrectable_rate(rng.gen_range(0.0..2e-3));
    for _ in 0..rng.gen_range(0usize..4) {
        let kind = match rng.gen_range(0u32..4) {
            0 => FaultKind::ProgramFail,
            1 => FaultKind::EraseFail,
            2 => FaultKind::ReadFlips(rng.gen_range(1u32..=4)),
            _ => FaultKind::ReadFlips(64), // far past ECC: uncorrectable
        };
        let trigger = FaultTrigger::new(kind);
        // Erases carry no logical page, so an LPN selector would never
        // match an EraseFail; steer those at ops or physical blocks.
        let trigger = match rng.gen_range(0u32..3) {
            0 => trigger.at_op(rng.gen_range(0u64..2_000)),
            1 => trigger.on_block(rng.gen_range(2u32..40)),
            _ if !matches!(kind, FaultKind::EraseFail) => trigger.on_lpn(rng.gen_range(0u64..24)),
            _ => trigger.on_block(rng.gen_range(2u32..40)),
        };
        plan = plan.trigger(trigger);
    }
    plan
}

/// Family 10: family 7's schedules must keep passing when the chip runs
/// under a generated [`FaultPlan`]: program failures, block retirements,
/// and read errors are the FTL's problem to retry and remap — never
/// visible in the committed image, to in-flight readers, or to the flash
/// auditor.
#[test]
fn xftl_transactions_match_model_under_faults() {
    let mut seen = Exercised::default();
    let mut retried = 0;
    for case in 0..32u64 {
        let mut rng = case_rng(10, case);
        let plan = rand_fault_plan(&mut rng);
        let ops = rand_tx_ops(&mut rng);
        let mut chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
        // Installed before format so even the first metadata writes run
        // in the fault environment; the plan survives every power cycle,
        // and so do the chip's counters.
        chip.set_fault_plan(plan);
        let what = format!("family 10 case {case}");
        let dev = run_schedule(&what, x_format(chip), &ops, x_crash, false, &mut seen);
        let flash = dev.inner().base().flash_stats();
        retried += flash.program_fails + flash.uncorrectable_reads;
    }
    assert!(
        seen.cuts_strict_prefix > 0 && retried > 0,
        "{seen:?}, {retried} failed programs and reads retried"
    );
}

/// Family 8: the TxFlash baseline obeys the same transactional model as
/// X-FTL (visible at commit, gone on abort/crash), via its cyclic-commit
/// mechanism instead of a mapping table — and with no pipeline: every
/// ticket is immediate, so a power cut never finds a commit staged.
#[test]
fn txflash_transactions_match_model() {
    let mut seen = Exercised::default();
    for (what, ops, fixed) in tx_schedules(8) {
        let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
        let dev = ShadowDevice::new(TxFlashFtl::format(chip, 24).unwrap());
        run_schedule(&what, dev, &ops, common::recover, fixed, &mut seen);
    }
    assert_eq!(seen.staged, 0, "TxFlash staged a commit: {seen:?}");
}

/// One life of a device under a family 7 schedule, four times as long
/// and with its power cuts taken out: transaction ids are made unique
/// (slot `t` becomes `t + 4 × its commits and aborts so far`, which keeps
/// the slot's page stripe), a transactional device takes the commands as
/// they are, a plain one takes every write as a write and every commit as
/// a flush. Whatever is open stays open: the caller cuts the power.
fn one_life<D: common::Swept>(dev: &mut ShadowDevice<D>, rng: &mut StdRng) {
    let tx = D::tx(dev).is_some();
    let (mut run, mut seen) = (common::Run::default(), common::Exercised::default());
    let mut uses = [0u64; 5];
    for op in (0..4).flat_map(|_| rand_tx_ops(rng)) {
        let op = match op {
            DevOp::Crash | DevOp::CommitWait | DevOp::Begin { .. } | DevOp::Patch { .. } => {
                continue
            }
            DevOp::Write { tid, lpn, page } if tx => DevOp::Write {
                tid: tid + 4 * uses[tid as usize],
                lpn,
                page,
            },
            DevOp::Write { lpn, page, .. } => DevOp::PlainWrite { lpn, page },
            DevOp::Commit { tid: slot }
            | DevOp::CommitSubmit { tid: slot }
            | DevOp::Abort { tid: slot } => {
                uses[slot as usize] += 1;
                let tid = slot + 4 * (uses[slot as usize] - 1);
                match op {
                    DevOp::Abort { .. } if tx => DevOp::Abort { tid },
                    DevOp::Abort { .. } => continue,
                    _ if tx => DevOp::Commit { tid },
                    _ => DevOp::Flush,
                }
            }
            op => op,
        };
        run.issue(dev, &op, &mut seen).unwrap();
    }
}

/// Family 13: the recovery scan reads a data block in full or takes it
/// on trust after two probes, and no recovery can tell which. Every
/// personality recovers the image a [`one_life`] leaves on twelve tiny
/// blocks as it is and with nothing skippable: same census, validity,
/// slab homes, mapping and contents — and the first did skip, on images
/// GC had been over.
#[test]
fn skipping_covered_blocks_is_invisible_to_recovery() {
    fn family<D: common::Swept>() -> (u32, u64) {
        let (mut skipped, mut collected) = (0, 0);
        for case in 0..24u64 {
            let chip = FlashChip::new(FlashConfig::tiny(12), SimClock::new());
            let mut dev = ShadowDevice::new(D::format(chip, 24).unwrap());
            one_life(&mut dev, &mut case_rng(13, case));
            collected += dev.inner().base().stats().gc_runs;
            skipped += common::assert_skip_is_invisible::<D>(dev.inner().base().chip());
        }
        (skipped, collected)
    }
    let seen = [
        family::<PageMappedFtl>(),
        family::<xftl_ftl::AtomicWriteFtl>(),
        family::<TxFlashFtl>(),
        family::<XFtl>(),
    ];
    assert!(
        seen.iter().all(|(skipped, gc)| *skipped >= 24 && *gc > 0),
        "(blocks skipped, blocks collected): {seen:?}"
    );
}

// --- SQL engine vs key-value model ---------------------------------------------

#[derive(Debug, Clone)]
enum SqlOp {
    Insert { id: i64, v: i64 },
    Update { id: i64, v: i64 },
    Delete { id: i64 },
    Rollbacked { id: i64, v: i64 },
}

fn rand_sql_ops(rng: &mut StdRng) -> Vec<SqlOp> {
    let n = rng.gen_range(1usize..40);
    (0..n)
        .map(|_| {
            let id = rng.gen_range(0i64..40);
            let v = rng.gen_range(i64::MIN..=i64::MAX);
            match rng.gen_range(0u32..7) {
                0..=2 => SqlOp::Insert { id, v },
                3 | 4 => SqlOp::Update { id, v },
                5 => SqlOp::Delete { id },
                _ => SqlOp::Rollbacked { id, v },
            }
        })
        .collect()
}

/// The SQL engine over the full stack matches a BTreeMap model under
/// arbitrary insert/update/delete sequences, including rolled-back
/// transactions and a crash at the end.
#[test]
fn sql_engine_matches_model() {
    use xftl_db::{Connection, DbJournalMode};
    for case in 0..32u64 {
        let mut rng = case_rng(9, case);
        let ops = rand_sql_ops(&mut rng);
        let chip = FlashChip::new(FlashConfig::tiny(300), SimClock::new());
        let dev = XFtl::format(chip, 2_200).unwrap();
        let fs = FileSystem::mkfs_tx(
            dev,
            JournalMode::Off,
            FsConfig {
                inode_count: 16,
                journal_pages: 32,
                cache_pages: 256,
            },
        )
        .unwrap();
        let fs = Rc::new(RefCell::new(fs));
        let mut db = Connection::open(Rc::clone(&fs), "prop.db", DbJournalMode::Off).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
            .unwrap();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for op in &ops {
            match op {
                SqlOp::Insert { id, v } => {
                    db.execute_with(
                        "INSERT OR REPLACE INTO t VALUES (?, ?)",
                        &[Value::Int(*id), Value::Int(*v)],
                    )
                    .unwrap();
                    model.insert(*id, *v);
                }
                SqlOp::Update { id, v } => {
                    let n = db
                        .execute_with(
                            "UPDATE t SET v = ? WHERE id = ?",
                            &[Value::Int(*v), Value::Int(*id)],
                        )
                        .unwrap()
                        .affected();
                    if model.contains_key(id) {
                        assert_eq!(n, 1, "case {case}");
                        model.insert(*id, *v);
                    } else {
                        assert_eq!(n, 0, "case {case}");
                    }
                }
                SqlOp::Delete { id } => {
                    let n = db
                        .execute_with("DELETE FROM t WHERE id = ?", &[Value::Int(*id)])
                        .unwrap()
                        .affected();
                    assert_eq!(n, u64::from(model.remove(id).is_some()), "case {case}");
                }
                SqlOp::Rollbacked { id, v } => {
                    db.execute("BEGIN").unwrap();
                    db.execute_with(
                        "INSERT OR REPLACE INTO t VALUES (?, ?)",
                        &[Value::Int(*id), Value::Int(*v)],
                    )
                    .unwrap();
                    db.execute("ROLLBACK").unwrap();
                    // model unchanged
                }
            }
        }
        // Full table scan matches the model.
        let rows = db.query("SELECT id, v FROM t ORDER BY id").unwrap();
        let expect: Vec<Vec<Value>> = model
            .iter()
            .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
            .collect();
        assert_eq!(&rows, &expect, "case {case}");
        // Crash and reopen: autocommitted state survives.
        drop(db);
        let fs_inner = Rc::try_unwrap(fs).expect("sole owner").into_inner();
        let dev = XFtl::recover(fs_inner.into_device().into_chip()).unwrap();
        let fs = Rc::new(RefCell::new(
            FileSystem::mount_tx(dev, JournalMode::Off, 256).unwrap(),
        ));
        let mut db = Connection::open(fs, "prop.db", DbJournalMode::Off).unwrap();
        let rows = db.query("SELECT id, v FROM t ORDER BY id").unwrap();
        assert_eq!(&rows, &expect, "case {case}");
    }
}

/// Family 11: MVCC schedules. A snapshot transaction reads its
/// `begin`-time image (own writes excepted), commits succeed iff no
/// written page changed after the snapshot (first-committer-wins, which
/// the oracle predicts *exactly*: it panics on a lost update and on a
/// spurious conflict alike), losers roll back completely, and crashes
/// keep the durable image plus a staged prefix while every snapshot dies
/// with device RAM.
#[test]
fn xftl_mvcc_schedules_match_model() {
    let mut seen = Exercised::default();
    for case in 0..40u64 {
        let mut rng = case_rng(11, case);
        let ops = rand_mvcc_ops(&mut rng);
        let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
        let what = format!("family 11 case {case}");
        let crash = x_crash_checking_the_skip;
        run_schedule(&what, x_format(chip), &ops, crash, false, &mut seen);
    }
    assert!(
        seen.cuts_strict_prefix > 0
            && seen.plain_on_staged > 0
            && seen.conflicts > 0
            && seen.overlapping_admits > 0,
        "{seen:?}"
    );
}

// --- family 12: demand-paged mapping cache vs the full-RAM reference ------------

/// One step of a random cache-pressure schedule. `Budget` re-bounds the
/// mapping cache mid-run (an eviction storm when it shrinks), `Crash`
/// power-cycles at an arbitrary point — including between a dirty
/// eviction flush and the next checkpoint.
#[derive(Debug, Clone)]
enum CacheOp {
    Write { lpn: u64, byte: u8 },
    Read { lpn: u64 },
    Budget { slots: usize },
    Flush,
    Crash,
}

fn rand_cache_ops(rng: &mut StdRng, logical: u64, slabs: usize) -> Vec<CacheOp> {
    let n = rng.gen_range(60usize..200);
    (0..n)
        .map(|_| match rng.gen_range(0u32..12) {
            0..=5 => CacheOp::Write {
                lpn: rng.gen_range(0..logical),
                byte: rng.gen_range(1u8..=250),
            },
            6..=8 => CacheOp::Read {
                lpn: rng.gen_range(0..logical),
            },
            9 => CacheOp::Budget {
                slots: rng.gen_range(1..=slabs),
            },
            10 => CacheOp::Flush,
            _ => CacheOp::Crash,
        })
        .collect()
}

/// A demand-paged device under a random mapping-cache budget and a
/// random eviction schedule behaves exactly like the full-RAM device:
/// every read agrees with an unbounded twin and with a byte model, the
/// resident-slab count never exceeds the budget at an op boundary, and
/// a crash at an arbitrary point — mid-schedule, dirty slabs evicted or
/// not — recovers the *identical* L2P mapping the live device held.
#[test]
fn demand_paged_cache_matches_full_ram_model() {
    for case in 0..24u64 {
        let mut rng = case_rng(12, case);
        // ~7 translation slabs at the tiny geometry (64 entries each), so
        // every budget from 1 slab (thrash) to all of them is reachable.
        let logical: u64 = 400;
        let chip = || FlashChip::new(FlashConfig::tiny(110), SimClock::new());
        let mut bounded = PageMappedFtl::format(chip(), logical).unwrap();
        let mut full = PageMappedFtl::format(chip(), logical).unwrap();
        let slabs = bounded.base().map_cache().slabs();
        assert!(slabs >= 4, "geometry must exercise multiple slabs");
        let mut budget = rng.gen_range(1..=slabs);
        bounded
            .base_mut()
            .set_map_cache_budget(Some(budget))
            .unwrap();
        let ops = rand_cache_ops(&mut rng, logical, slabs);
        let ps = bounded.page_size();
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut buf_a = vec![0u8; ps];
        let mut buf_b = vec![0u8; ps];
        // Stats reset at every power cycle; accumulate across them.
        let mut misses = 0u64;
        for op in &ops {
            match op {
                CacheOp::Write { lpn, byte } => {
                    bounded.write(*lpn, &vec![*byte; ps]).unwrap();
                    full.write(*lpn, &vec![*byte; ps]).unwrap();
                    model.insert(*lpn, *byte);
                }
                CacheOp::Read { lpn } => {
                    bounded.read(*lpn, &mut buf_a).unwrap();
                    full.read(*lpn, &mut buf_b).unwrap();
                    let expect = model.get(lpn).copied().unwrap_or(0);
                    assert_eq!(buf_a[0], expect, "case {case}: bounded read at {op:?}");
                    assert_eq!(buf_a, buf_b, "case {case}: devices disagree at {op:?}");
                }
                CacheOp::Budget { slots } => {
                    budget = *slots;
                    bounded
                        .base_mut()
                        .set_map_cache_budget(Some(budget))
                        .unwrap();
                }
                CacheOp::Flush => {
                    bounded.flush().unwrap();
                    full.flush().unwrap();
                }
                CacheOp::Crash => {
                    // The mapping the live device holds right now — dirty
                    // resident slabs and persisted translation pages alike.
                    let before: Vec<_> = (0..logical).map(|l| bounded.base().l2p_peek(l)).collect();
                    misses += bounded.base().stats().map_cache_misses;
                    bounded = PageMappedFtl::recover(bounded.into_chip()).unwrap();
                    bounded
                        .base_mut()
                        .set_map_cache_budget(Some(budget))
                        .unwrap();
                    let after: Vec<_> = (0..logical).map(|l| bounded.base().l2p_peek(l)).collect();
                    assert_eq!(before, after, "case {case}: recovery changed the mapping");
                    full = PageMappedFtl::recover(full.into_chip()).unwrap();
                }
            }
            // The budget bound holds at every op boundary.
            assert!(
                bounded.base().map_cache().resident() <= budget,
                "case {case}: {} resident slabs over budget {budget} after {op:?}",
                bounded.base().map_cache().resident(),
            );
        }
        // Final crash for both devices: the whole logical space must read
        // back identically (roll-forward finds even unflushed writes).
        misses += bounded.base().stats().map_cache_misses;
        let mut bounded = PageMappedFtl::recover(bounded.into_chip()).unwrap();
        bounded
            .base_mut()
            .set_map_cache_budget(Some(budget))
            .unwrap();
        let mut full = PageMappedFtl::recover(full.into_chip()).unwrap();
        for lpn in 0..logical {
            bounded.read(lpn, &mut buf_a).unwrap();
            full.read(lpn, &mut buf_b).unwrap();
            let expect = model.get(&lpn).copied().unwrap_or(0);
            assert_eq!(buf_a[0], expect, "case {case}: lpn {lpn} after recovery");
            assert_eq!(buf_a, buf_b, "case {case}: lpn {lpn} devices diverged");
        }
        // The bounded run actually exercised demand paging.
        misses += bounded.base().stats().map_cache_misses;
        assert!(misses > 0, "case {case}: schedule never missed the cache");
    }
}
