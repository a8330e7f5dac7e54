//! Randomized model tests: core data structures checked against reference
//! models under pseudo-random operation sequences.
//!
//! Formerly written with `proptest`; the workspace now builds hermetically
//! with no external crates, so each family runs a fixed number of cases
//! from the deterministic in-tree PRNG instead. Every failure message
//! carries the case seed, so a red run reproduces exactly.

// Test/demo code: unwrap/expect on a setup failure is the right failure
// mode here; clippy.toml's `allow-unwrap-in-tests` only covers `#[test]`
// fns, not the shared helpers, so the allow is restated file-wide.
#![allow(clippy::unwrap_used, clippy::expect_used)]

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
use xftl_ftl::{BlockDevice, DevError, PageMappedFtl, TxBlockDevice, TxFlashFtl};

mod common;
use common::{recover_with, wrap, Checked};

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
        let _ = decode_record(&enc[..enc.len() - cut]); // must not panic
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

/// Byte-granular file I/O matches a plain Vec<u8> model, across cache
/// pressure and fsyncs.
#[test]
fn fs_matches_model() {
    for case in 0..48u64 {
        let mut rng = case_rng(6, case);
        let ops = rand_fs_ops(&mut rng);
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
        for op in &ops {
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
                    assert_eq!(n, expect_n, "case {case}");
                    if n > 0 {
                        assert_eq!(
                            &buf[..n],
                            &model[*off as usize..*off as usize + n],
                            "case {case}"
                        );
                    }
                }
                FsOp::Truncate { size } => {
                    fs.truncate(f, *size).unwrap();
                    model.truncate(*size as usize);
                }
                FsOp::Fsync => fs.fsync(f, None).unwrap(),
            }
            assert_eq!(fs.size(f).unwrap(), model.len() as u64, "case {case}");
        }
        // Durability: sync, remount, and compare the whole file.
        let dev = fs.unmount().unwrap();
        let mut fs = FileSystem::mount(dev, JournalMode::Ordered, 16).unwrap();
        let f = fs.open("model").unwrap();
        let mut buf = vec![0u8; model.len()];
        let n = fs.read(f, 0, &mut buf, None).unwrap();
        assert_eq!(n, model.len(), "case {case}");
        assert_eq!(buf, model, "case {case}");
    }
}

// --- X-FTL transactional semantics vs model ------------------------------------------

#[derive(Debug, Clone)]
enum TxOp {
    Write {
        tid: u64,
        lpn: u64,
        byte: u8,
    },
    PlainWrite {
        lpn: u64,
        byte: u8,
    },
    Commit {
        tid: u64,
    },
    /// Split-phase: stage the commit (visible immediately) and keep the
    /// ticket outstanding.
    CommitSubmit {
        tid: u64,
    },
    /// Redeem the newest outstanding ticket — its group covers everything
    /// currently staged, so the whole pipeline drains durable.
    CommitWait,
    Abort {
        tid: u64,
    },
    Flush,
    Crash,
}

fn rand_tx_ops(rng: &mut StdRng) -> Vec<TxOp> {
    // Host contract (§3.3/§4.3): X-FTL does not arbitrate write-write
    // conflicts — SQLite's database-level write lock guarantees a single
    // writer per page. The generator honours that contract by giving each
    // transaction id its own page-number stripe (lpn % 4 == tid - 1) and
    // keeping plain writes on pages 20..24.
    let n = rng.gen_range(1usize..50);
    (0..n)
        .map(|_| match rng.gen_range(0u32..13) {
            0..=3 => {
                let tid = rng.gen_range(1u64..5);
                let row = rng.gen_range(0u64..5);
                TxOp::Write {
                    tid,
                    lpn: row * 4 + (tid - 1),
                    byte: rng.gen_range(0u8..=255),
                }
            }
            4 | 5 => TxOp::PlainWrite {
                lpn: rng.gen_range(20u64..24),
                byte: rng.gen_range(0u8..=255),
            },
            6 | 7 => TxOp::Commit {
                tid: rng.gen_range(1u64..5),
            },
            8 => TxOp::Abort {
                tid: rng.gen_range(1u64..5),
            },
            9 => TxOp::Flush,
            10 => TxOp::Crash,
            11 => TxOp::CommitSubmit {
                tid: rng.gen_range(1u64..5),
            },
            _ => TxOp::CommitWait,
        })
        .collect()
}

/// Resolves the post-crash state of the split-phase model. Group commits
/// flush strictly in submission order and a group is all-or-nothing, so
/// whatever internal flushes (capacity checkpoints, conflict flushes)
/// happened before the crash, the surviving image must equal `durable`
/// plus some *prefix* of the staged records. Returns that world.
fn resolve_crash_world<D: BlockDevice>(
    dev: &mut D,
    durable: &HashMap<u64, u8>,
    staged: &[HashMap<u64, u8>],
    case: u64,
) -> HashMap<u64, u8> {
    let ps = dev.page_size();
    let mut buf = vec![0u8; ps];
    let mut image = [0u8; 24];
    for lpn in 0..24u64 {
        dev.read(lpn, &mut buf).unwrap();
        image[usize::try_from(lpn).unwrap()] = buf[0];
    }
    let mut world = durable.clone();
    let mut k = 0usize;
    loop {
        let matched = (0..24u64).all(|lpn| {
            image[usize::try_from(lpn).unwrap()] == world.get(&lpn).copied().unwrap_or(0)
        });
        if matched {
            return world;
        }
        assert!(
            k < staged.len(),
            "case {case}: post-crash image matches no prefix of the {} staged commit(s)\n\
             image: {image:?}\ndurable: {durable:?}\nstaged: {staged:?}",
            staged.len()
        );
        for (lpn, byte) in &staged[k] {
            world.insert(*lpn, *byte);
        }
        k += 1;
    }
}

// With the `verify` feature the FTL model tests run through the shadow
// oracle: every command is mirrored into `ShadowDevice`'s reference
// model, every read is checked against it, and each crash/recovery is
// followed by a durability sweep plus a flash-physics audit. The op
// loops below are oblivious to the wrapping — they only use the device
// traits, which the wrapper forwards.
type XDev = Checked<XFtl>;

fn x_format(chip: FlashChip, logical: u64, xl2p_cap: usize) -> XDev {
    wrap(XFtl::format_with_capacity(chip, logical, xl2p_cap).unwrap())
}

fn x_crash(dev: XDev, xl2p_cap: usize) -> XDev {
    recover_with(dev, XFtl::into_chip, |chip| {
        XFtl::recover_with_capacity(chip, xl2p_cap).unwrap()
    })
}

type TDev = Checked<TxFlashFtl>;

fn t_format(chip: FlashChip, logical: u64) -> TDev {
    wrap(TxFlashFtl::format(chip, logical).unwrap())
}

fn t_crash(dev: TDev) -> TDev {
    recover_with(dev, TxFlashFtl::into_chip, |chip| {
        TxFlashFtl::recover(chip).unwrap()
    })
}

/// X-FTL's committed state always equals a model where transactional
/// writes become visible only at commit (blocking or submitted), vanish
/// on abort, and crashes preserve durable data plus — group-atomically,
/// in submission order — any staged split-phase commits an internal
/// flush happened to persist.
#[test]
fn xftl_transactions_match_model() {
    for case in 0..48u64 {
        let mut rng = case_rng(7, case);
        let ops = rand_tx_ops(&mut rng);
        let clock = SimClock::new();
        let chip = FlashChip::new(FlashConfig::tiny(40), clock);
        let mut dev = x_format(chip, 24, 64);
        let ps = dev.page_size();
        // What reads return / what certainly survives a crash / staged
        // split-phase records (visible, not yet certainly durable) in
        // submission order / outstanding tickets, oldest first.
        let mut visible: HashMap<u64, u8> = HashMap::new();
        let mut durable: HashMap<u64, u8> = HashMap::new();
        let mut staged_model: Vec<HashMap<u64, u8>> = Vec::new();
        let mut outstanding = Vec::new();
        let mut pending: HashMap<u64, HashMap<u64, u8>> = HashMap::new();
        for op in &ops {
            match op {
                TxOp::Write { tid, lpn, byte } => {
                    dev.write_tx(*tid, *lpn, &vec![*byte; ps]).unwrap();
                    pending.entry(*tid).or_default().insert(*lpn, *byte);
                }
                TxOp::PlainWrite { lpn, byte } => {
                    dev.write(*lpn, &vec![*byte; ps]).unwrap();
                    // A plain write landing on a staged page forces the
                    // device to flush the group first (the fold must not
                    // clobber the new batch), so the pipeline drains here.
                    if staged_model.iter().any(|rec| rec.contains_key(lpn)) {
                        for rec in staged_model.drain(..) {
                            durable.extend(rec);
                        }
                    }
                    visible.insert(*lpn, *byte);
                    durable.insert(*lpn, *byte);
                }
                TxOp::Commit { tid } => {
                    dev.commit(*tid).unwrap();
                    let writes = pending.remove(tid).unwrap_or_default();
                    // Blocking commit = submit + wait: a *real* commit
                    // flushes the whole staged pipeline along with this
                    // tx. An empty transaction is durable by vacuity —
                    // its ticket is immediate, so nothing need flush.
                    if !writes.is_empty() {
                        for rec in staged_model.drain(..) {
                            durable.extend(rec);
                        }
                    }
                    for (lpn, byte) in writes {
                        visible.insert(lpn, byte);
                        durable.insert(lpn, byte);
                    }
                }
                TxOp::CommitSubmit { tid } => {
                    let t = dev.commit_submit(*tid).unwrap();
                    outstanding.push(t);
                    let writes = pending.remove(tid).unwrap_or_default();
                    for (lpn, byte) in &writes {
                        visible.insert(*lpn, *byte);
                    }
                    // An immediate ticket stages nothing — waiting on it
                    // later is only a queue barrier, never a flush.
                    if !t.is_immediate() {
                        staged_model.push(writes);
                    }
                }
                TxOp::CommitWait => {
                    // The newest ticket's group covers everything staged;
                    // older tickets become no-ops once it flushes. An
                    // immediate ticket never implies a group flush.
                    if let Some(t) = outstanding.pop() {
                        dev.commit_wait(t).unwrap();
                        if !t.is_immediate() {
                            for rec in staged_model.drain(..) {
                                durable.extend(rec);
                            }
                        }
                    }
                }
                TxOp::Abort { tid } => {
                    dev.abort(*tid).unwrap();
                    pending.remove(tid);
                }
                TxOp::Flush => {
                    dev.flush().unwrap();
                    for rec in staged_model.drain(..) {
                        durable.extend(rec);
                    }
                }
                TxOp::Crash => {
                    dev = x_crash(dev, 64);
                    pending.clear();
                    // Tickets die with the power; resolve which prefix of
                    // the staged pipeline an internal flush saved.
                    outstanding.clear();
                    durable = resolve_crash_world(&mut dev, &durable, &staged_model, case);
                    staged_model.clear();
                    visible = durable.clone();
                }
            }
            // Committed view must match the model at every step.
            let mut buf = vec![0u8; ps];
            for lpn in 0..24u64 {
                dev.read(lpn, &mut buf).unwrap();
                let expect = visible.get(&lpn).copied().unwrap_or(0);
                assert_eq!(buf[0], expect, "case {case}: lpn {lpn} after {op:?}");
            }
            // Each in-flight transaction sees its own writes.
            for (tid, writes) in &pending {
                for (lpn, byte) in writes {
                    dev.read_tx(*tid, *lpn, &mut buf).unwrap();
                    assert_eq!(buf[0], *byte, "case {case}");
                }
            }
        }
        // Final crash: durable state plus a staged prefix survives.
        let mut dev = x_crash(dev, 64);
        resolve_crash_world(&mut dev, &durable, &staged_model, case);
    }
}

// --- X-FTL transactional semantics vs model, under injected faults -------------

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

/// Family 7's transactional model must keep holding when the chip runs
/// under a generated [`FaultPlan`]: program failures, block retirements,
/// and read errors are the FTL's problem to retry and remap — never
/// visible in the committed image, to in-flight readers, or (under
/// `--features verify`) to the shadow oracle and flash auditor.
#[test]
fn xftl_transactions_match_model_under_faults() {
    for case in 0..32u64 {
        let mut rng = case_rng(10, case);
        let plan = rand_fault_plan(&mut rng);
        let ops = rand_tx_ops(&mut rng);
        let clock = SimClock::new();
        let mut chip = FlashChip::new(FlashConfig::tiny(40), clock);
        // Installed before format so even the first metadata writes run
        // in the fault environment; the plan survives every power cycle.
        chip.set_fault_plan(plan);
        let mut dev = x_format(chip, 24, 64);
        let ps = dev.page_size();
        let mut visible: HashMap<u64, u8> = HashMap::new();
        let mut durable: HashMap<u64, u8> = HashMap::new();
        let mut staged_model: Vec<HashMap<u64, u8>> = Vec::new();
        let mut outstanding = Vec::new();
        let mut pending: HashMap<u64, HashMap<u64, u8>> = HashMap::new();
        for op in &ops {
            match op {
                TxOp::Write { tid, lpn, byte } => {
                    dev.write_tx(*tid, *lpn, &vec![*byte; ps]).unwrap();
                    pending.entry(*tid).or_default().insert(*lpn, *byte);
                }
                TxOp::PlainWrite { lpn, byte } => {
                    dev.write(*lpn, &vec![*byte; ps]).unwrap();
                    // Plain write over a staged page ⇒ the device flushed
                    // the group before programming the new version.
                    if staged_model.iter().any(|rec| rec.contains_key(lpn)) {
                        for rec in staged_model.drain(..) {
                            durable.extend(rec);
                        }
                    }
                    visible.insert(*lpn, *byte);
                    durable.insert(*lpn, *byte);
                }
                TxOp::Commit { tid } => {
                    dev.commit(*tid).unwrap();
                    let writes = pending.remove(tid).unwrap_or_default();
                    // Only a non-empty commit flushes the staged pipeline;
                    // an empty one redeems an immediate ticket (barrier).
                    if !writes.is_empty() {
                        for rec in staged_model.drain(..) {
                            durable.extend(rec);
                        }
                    }
                    for (lpn, byte) in writes {
                        visible.insert(lpn, byte);
                        durable.insert(lpn, byte);
                    }
                }
                TxOp::CommitSubmit { tid } => {
                    let t = dev.commit_submit(*tid).unwrap();
                    outstanding.push(t);
                    let writes = pending.remove(tid).unwrap_or_default();
                    for (lpn, byte) in &writes {
                        visible.insert(*lpn, *byte);
                    }
                    if !t.is_immediate() {
                        staged_model.push(writes);
                    }
                }
                TxOp::CommitWait => {
                    if let Some(t) = outstanding.pop() {
                        dev.commit_wait(t).unwrap();
                        if !t.is_immediate() {
                            for rec in staged_model.drain(..) {
                                durable.extend(rec);
                            }
                        }
                    }
                }
                TxOp::Abort { tid } => {
                    dev.abort(*tid).unwrap();
                    pending.remove(tid);
                }
                TxOp::Flush => {
                    dev.flush().unwrap();
                    for rec in staged_model.drain(..) {
                        durable.extend(rec);
                    }
                }
                TxOp::Crash => {
                    dev = x_crash(dev, 64);
                    pending.clear();
                    outstanding.clear();
                    durable = resolve_crash_world(&mut dev, &durable, &staged_model, case);
                    staged_model.clear();
                    visible = durable.clone();
                }
            }
            let mut buf = vec![0u8; ps];
            for lpn in 0..24u64 {
                dev.read(lpn, &mut buf).unwrap();
                let expect = visible.get(&lpn).copied().unwrap_or(0);
                assert_eq!(buf[0], expect, "case {case}: lpn {lpn} after {op:?}");
            }
            for (tid, writes) in &pending {
                for (lpn, byte) in writes {
                    dev.read_tx(*tid, *lpn, &mut buf).unwrap();
                    assert_eq!(buf[0], *byte, "case {case}");
                }
            }
        }
        let mut dev = x_crash(dev, 64);
        resolve_crash_world(&mut dev, &durable, &staged_model, case);
    }
}

// --- TxFlash SCC semantics vs model ------------------------------------------

/// The TxFlash baseline obeys the same transactional model as X-FTL
/// (visible at commit, gone on abort/crash), via its cyclic-commit
/// mechanism instead of a mapping table.
#[test]
fn txflash_transactions_match_model() {
    for case in 0..48u64 {
        let mut rng = case_rng(8, case);
        let ops = rand_tx_ops(&mut rng);
        let clock = SimClock::new();
        let chip = FlashChip::new(FlashConfig::tiny(40), clock);
        let mut dev = t_format(chip, 24);
        let ps = dev.page_size();
        let mut committed: HashMap<u64, u8> = HashMap::new();
        let mut pending: HashMap<u64, HashMap<u64, u8>> = HashMap::new();
        for op in &ops {
            match op {
                TxOp::Write { tid, lpn, byte } => {
                    dev.write_tx(*tid, *lpn, &vec![*byte; ps]).unwrap();
                    pending.entry(*tid).or_default().insert(*lpn, *byte);
                }
                TxOp::PlainWrite { lpn, byte } => {
                    dev.write(*lpn, &vec![*byte; ps]).unwrap();
                    committed.insert(*lpn, *byte);
                }
                TxOp::Commit { tid } => {
                    dev.commit(*tid).unwrap();
                    for (lpn, byte) in pending.remove(tid).unwrap_or_default() {
                        committed.insert(lpn, byte);
                    }
                }
                TxOp::CommitSubmit { tid } => {
                    // The synchronous personality has no pipeline: submit
                    // IS the durable commit and the ticket is immediate.
                    let t = dev.commit_submit(*tid).unwrap();
                    assert!(t.is_immediate(), "case {case}: TxFlash staged a commit");
                    dev.commit_wait(t).unwrap();
                    for (lpn, byte) in pending.remove(tid).unwrap_or_default() {
                        committed.insert(lpn, byte);
                    }
                }
                // Immediate tickets are redeemed on the spot above;
                // nothing is ever outstanding.
                TxOp::CommitWait => {}
                TxOp::Abort { tid } => {
                    dev.abort(*tid).unwrap();
                    pending.remove(tid);
                }
                TxOp::Flush => dev.flush().unwrap(),
                TxOp::Crash => {
                    dev = t_crash(dev);
                    pending.clear();
                }
            }
            let mut buf = vec![0u8; ps];
            for lpn in 0..24u64 {
                dev.read(lpn, &mut buf).unwrap();
                let expect = committed.get(&lpn).copied().unwrap_or(0);
                assert_eq!(buf[0], expect, "case {case}: lpn {lpn} after {op:?}");
            }
            for (tid, writes) in &pending {
                for (lpn, byte) in writes {
                    dev.read_tx(*tid, *lpn, &mut buf).unwrap();
                    assert_eq!(buf[0], *byte, "case {case}");
                }
            }
        }
        let mut dev = t_crash(dev);
        let mut buf = vec![0u8; ps];
        for lpn in 0..24u64 {
            dev.read(lpn, &mut buf).unwrap();
            assert_eq!(
                buf[0],
                committed.get(&lpn).copied().unwrap_or(0),
                "case {case}: lpn {lpn} after recovery"
            );
        }
    }
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

// --- family 11: MVCC concurrent schedules vs the sequential model ---------------

/// One step of a random concurrent schedule. Every transactional tid is
/// opened with `begin` (a snapshot transaction); plain writes provide
/// the non-transactional traffic that must conflict overlapping
/// snapshot writers.
#[derive(Debug, Clone)]
enum MvccOp {
    Begin { tid: u64 },
    Write { tid: u64, lpn: u64, byte: u8 },
    PlainWrite { lpn: u64, byte: u8 },
    Commit { tid: u64 },
    CommitSubmit { tid: u64 },
    CommitWait,
    Abort { tid: u64 },
    Flush,
    Crash,
}

/// Generates a schedule with 2–4 concurrently open snapshot writers.
/// Tids are never reused, so each `begin` opens a fresh transaction and
/// every commit outcome is attributable to exactly one snapshot.
fn rand_mvcc_ops(rng: &mut StdRng) -> Vec<MvccOp> {
    let n = rng.gen_range(40..100);
    let mut ops = Vec::with_capacity(n);
    let mut active: Vec<u64> = Vec::new();
    let mut next_tid = 1u64;
    for _ in 0..n {
        let roll = rng.gen_range(0u32..100);
        if roll < 22 {
            if active.len() < 4 {
                ops.push(MvccOp::Begin { tid: next_tid });
                active.push(next_tid);
                next_tid += 1;
            }
        } else if roll < 52 {
            if let Some(i) = (!active.is_empty()).then(|| rng.gen_range(0..active.len())) {
                ops.push(MvccOp::Write {
                    tid: active[i],
                    lpn: rng.gen_range(0u64..16),
                    byte: rng.gen_range(1u8..=250),
                });
            }
        } else if roll < 62 {
            ops.push(MvccOp::PlainWrite {
                lpn: rng.gen_range(0u64..16),
                byte: rng.gen_range(1u8..=250),
            });
        } else if roll < 78 {
            if let Some(i) = (!active.is_empty()).then(|| rng.gen_range(0..active.len())) {
                let tid = active.swap_remove(i);
                ops.push(if rng.gen_bool(0.5) {
                    MvccOp::Commit { tid }
                } else {
                    MvccOp::CommitSubmit { tid }
                });
            }
        } else if roll < 84 {
            ops.push(MvccOp::CommitWait);
        } else if roll < 91 {
            if let Some(i) = (!active.is_empty()).then(|| rng.gen_range(0..active.len())) {
                let tid = active.swap_remove(i);
                ops.push(MvccOp::Abort { tid });
            }
        } else if roll < 96 {
            ops.push(MvccOp::Flush);
        } else {
            ops.push(MvccOp::Crash);
            active.clear();
        }
    }
    ops
}

/// MVCC schedules match a sequential model with snapshot views and a
/// page change-clock: a snapshot transaction reads its `begin`-time
/// image (own writes excepted), commits succeed iff no written page
/// changed after the snapshot (first-committer-wins, predicted
/// *exactly*), losers roll back completely, and crashes keep the durable
/// image plus a staged prefix while every snapshot dies with device RAM.
#[test]
fn xftl_mvcc_schedules_match_model() {
    for case in 0..40u64 {
        let mut rng = case_rng(11, case);
        let ops = rand_mvcc_ops(&mut rng);
        let clock = SimClock::new();
        let chip = FlashChip::new(FlashConfig::tiny(40), clock);
        let mut dev = x_format(chip, 24, 64);
        let ps = dev.page_size();
        // The sequential model: visible/durable images and the staged
        // split-phase records as in family 7, plus the MVCC bookkeeping —
        // a monotone change-clock per page, each open snapshot's clock
        // value, and its frozen view of the visible image.
        let mut visible: HashMap<u64, u8> = HashMap::new();
        let mut durable: HashMap<u64, u8> = HashMap::new();
        let mut staged_model: Vec<HashMap<u64, u8>> = Vec::new();
        let mut outstanding = Vec::new();
        let mut pending: HashMap<u64, HashMap<u64, u8>> = HashMap::new();
        let mut clock_m = 0u64;
        let mut page_clock: HashMap<u64, u64> = HashMap::new();
        let mut snaps: HashMap<u64, u64> = HashMap::new();
        let mut views: HashMap<u64, HashMap<u64, u8>> = HashMap::new();
        for op in &ops {
            match op {
                MvccOp::Begin { tid } => {
                    dev.begin(*tid).unwrap();
                    snaps.insert(*tid, clock_m);
                    views.insert(*tid, visible.clone());
                }
                MvccOp::Write { tid, lpn, byte } => {
                    dev.write_tx(*tid, *lpn, &vec![*byte; ps]).unwrap();
                    pending.entry(*tid).or_default().insert(*lpn, *byte);
                }
                MvccOp::PlainWrite { lpn, byte } => {
                    dev.write(*lpn, &vec![*byte; ps]).unwrap();
                    if staged_model.iter().any(|rec| rec.contains_key(lpn)) {
                        for rec in staged_model.drain(..) {
                            durable.extend(rec);
                        }
                    }
                    visible.insert(*lpn, *byte);
                    durable.insert(*lpn, *byte);
                    clock_m += 1;
                    page_clock.insert(*lpn, clock_m);
                }
                MvccOp::Commit { tid } => {
                    let writes = pending.remove(tid).unwrap_or_default();
                    let snap = snaps.remove(tid).unwrap_or(u64::MAX);
                    views.remove(tid);
                    // First-committer-wins, predicted exactly. A
                    // read-only snapshot never validates (durable by
                    // vacuity).
                    let conflict = !writes.is_empty()
                        && writes
                            .keys()
                            .any(|l| page_clock.get(l).copied().unwrap_or(0) > snap);
                    if conflict {
                        assert_eq!(
                            dev.commit(*tid),
                            Err(DevError::Conflict),
                            "case {case}: stale writer admitted at {op:?}"
                        );
                    } else {
                        dev.commit(*tid)
                            .unwrap_or_else(|e| panic!("case {case}: {op:?} refused: {e:?}"));
                        if !writes.is_empty() {
                            for rec in staged_model.drain(..) {
                                durable.extend(rec);
                            }
                        }
                        for (lpn, byte) in writes {
                            visible.insert(lpn, byte);
                            durable.insert(lpn, byte);
                            clock_m += 1;
                            page_clock.insert(lpn, clock_m);
                        }
                    }
                }
                MvccOp::CommitSubmit { tid } => {
                    let writes = pending.remove(tid).unwrap_or_default();
                    let snap = snaps.remove(tid).unwrap_or(u64::MAX);
                    views.remove(tid);
                    let conflict = !writes.is_empty()
                        && writes
                            .keys()
                            .any(|l| page_clock.get(l).copied().unwrap_or(0) > snap);
                    if conflict {
                        assert_eq!(
                            dev.commit_submit(*tid).map(|_| ()),
                            Err(DevError::Conflict),
                            "case {case}: stale writer admitted at {op:?}"
                        );
                    } else {
                        let t = dev.commit_submit(*tid).unwrap();
                        outstanding.push(t);
                        for (lpn, byte) in &writes {
                            visible.insert(*lpn, *byte);
                            clock_m += 1;
                            page_clock.insert(*lpn, clock_m);
                        }
                        if !t.is_immediate() {
                            staged_model.push(writes);
                        }
                    }
                }
                MvccOp::CommitWait => {
                    if let Some(t) = outstanding.pop() {
                        dev.commit_wait(t).unwrap();
                        if !t.is_immediate() {
                            for rec in staged_model.drain(..) {
                                durable.extend(rec);
                            }
                        }
                    }
                }
                MvccOp::Abort { tid } => {
                    dev.abort(*tid).unwrap();
                    pending.remove(tid);
                    snaps.remove(tid);
                    views.remove(tid);
                }
                MvccOp::Flush => {
                    dev.flush().unwrap();
                    for rec in staged_model.drain(..) {
                        durable.extend(rec);
                    }
                }
                MvccOp::Crash => {
                    dev = x_crash(dev, 64);
                    pending.clear();
                    outstanding.clear();
                    snaps.clear();
                    views.clear();
                    durable = resolve_crash_world(&mut dev, &durable, &staged_model, case);
                    staged_model.clear();
                    visible = durable.clone();
                    // Pre-crash stamps are all <= clock_m, so no snapshot
                    // begun after recovery can conflict on them — exactly
                    // the device's reset commit-sequence semantics.
                }
            }
            // The committed view matches the model at every step…
            let mut buf = vec![0u8; ps];
            for lpn in 0..16u64 {
                dev.read(lpn, &mut buf).unwrap();
                let expect = visible.get(&lpn).copied().unwrap_or(0);
                assert_eq!(buf[0], expect, "case {case}: lpn {lpn} after {op:?}");
            }
            // …and every open snapshot sees its own writes over its
            // frozen begin-time view, never the live image.
            for (tid, view) in &views {
                for lpn in 0..16u64 {
                    let expect = pending
                        .get(tid)
                        .and_then(|m| m.get(&lpn))
                        .or_else(|| view.get(&lpn))
                        .copied()
                        .unwrap_or(0);
                    dev.read_tx(*tid, lpn, &mut buf).unwrap();
                    assert_eq!(
                        buf[0], expect,
                        "case {case}: snapshot tid {tid} lpn {lpn} after {op:?}"
                    );
                }
            }
        }
        // Final crash: durable state plus a staged prefix survives, and
        // every open snapshot is gone.
        let mut dev = x_crash(dev, 64);
        resolve_crash_world(&mut dev, &durable, &staged_model, case);
    }
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
                    misses += bounded.stats().map_cache_misses;
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
        misses += bounded.stats().map_cache_misses;
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
        misses += bounded.stats().map_cache_misses;
        assert!(misses > 0, "case {case}: schedule never missed the cache");
    }
}
