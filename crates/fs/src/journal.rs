//! JBD2-like physical journal.
//!
//! A fixed circular region of the volume holds a header page followed by a
//! log of transactions. Each transaction is a *descriptor* page (listing
//! the home LPNs of the pages that follow), the journaled page images, and
//! a *commit* page. The file system places write barriers around the
//! commit page exactly as ext4 does — this is where the ordered/full
//! journaling costs of §6.3.4 come from.
//!
//! Recovery redoes every transaction whose commit page made it to the
//! device; a missing or mismatched commit page ends the log — the classic
//! all-or-nothing redo log. A first pass finds the complete transactions,
//! a second writes each home page once, with its newest journaled image:
//! what replaying them in order would leave, for one write a page.

use std::collections::BTreeMap;

use xftl_ftl::{BlockDevice, DevError, IoCmd, Lpn};

use crate::error::{FsError, Result};
use crate::layout::Superblock;

/// Magic of the journal header page ("XFTLJHDR").
const HDR_MAGIC: u64 = 0x5846_544C_4A48_4452;
/// Magic of a descriptor page ("XFTLJDSC").
const DESC_MAGIC: u64 = 0x5846_544C_4A44_5343;
/// Magic of a commit page ("XFTLJCMT").
const CMT_MAGIC: u64 = 0x5846_544C_4A43_4D54;

/// Journal state (in RAM; the header page persists the replay origin).
#[derive(Debug)]
pub struct Journal {
    /// First page of the journal region (the header page).
    region_start: Lpn,
    /// Pages in the region, including the header.
    region_pages: u64,
    /// Next log slot, as an offset in `[1, region_pages)`.
    head_off: u64,
    /// Sequence number of the next transaction to append.
    next_seq: u64,
    /// Offset/sequence the persisted header says replay starts from.
    tail_off: u64,
    tail_seq: u64,
    /// Pages appended since the last checkpoint (space accounting).
    live_pages: u64,
    /// Home writes owed by checkpoint: `(home_lpn, page_image)`.
    pending: Vec<(Lpn, Vec<u8>)>,
}

fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(bytes)
}

impl Journal {
    /// Creates a fresh journal and writes its header page.
    pub fn mkfs<D: BlockDevice>(dev: &mut D, sb: &Superblock) -> Result<Journal> {
        let mut j = Journal {
            region_start: sb.jr_start,
            region_pages: sb.jr_pages,
            head_off: 1,
            next_seq: 1,
            tail_off: 1,
            tail_seq: 1,
            live_pages: 0,
            pending: Vec::new(),
        };
        j.write_header(dev)?;
        Ok(j)
    }

    /// Loads the journal at mount time and replays every complete
    /// transaction. Returns the journal, the number of complete
    /// transactions found, and whether the device refused replay writes
    /// because it reached end-of-life read-only mode.
    ///
    /// On a read-only device, replay stops at the first refused write
    /// and the header is left untouched: home pages keep their last
    /// checkpointed images — a consistent (if stale) state — and the
    /// volume still mounts so committed data stays readable.
    pub fn mount<D: BlockDevice>(dev: &mut D, sb: &Superblock) -> Result<(Journal, u64, bool)> {
        let ps = dev.page_size();
        let mut buf = vec![0u8; ps];
        dev.read(sb.jr_start, &mut buf)?;
        if get_u64(&buf, 0) != HDR_MAGIC {
            return Err(FsError::BadSuperblock);
        }
        let tail_off = get_u64(&buf, 8);
        let tail_seq = get_u64(&buf, 16);
        let mut j = Journal {
            region_start: sb.jr_start,
            region_pages: sb.jr_pages,
            head_off: tail_off,
            next_seq: tail_seq,
            tail_off,
            tail_seq,
            live_pages: 0,
            pending: Vec::new(),
        };
        // Pass 1: the complete transactions, and the newest journaled
        // image of each home page among them.
        let mut newest: BTreeMap<Lpn, u64> = BTreeMap::new();
        let mut replayed = 0;
        let mut off = tail_off;
        let mut seq = tail_seq;
        let capacity = j.region_pages - 1;
        loop {
            // Descriptor?
            dev.read(j.abs(off), &mut buf)?;
            if get_u64(&buf, 0) != DESC_MAGIC || get_u64(&buf, 8) != seq {
                break;
            }
            let count = get_u64(&buf, 16);
            if count + 2 > capacity {
                break; // corrupt
            }
            // Commit page present and matching?
            let commit_off = j.wrap(off + 1 + count);
            let mut cbuf = vec![0u8; ps];
            dev.read(j.abs(commit_off), &mut cbuf)?;
            if get_u64(&cbuf, 0) != CMT_MAGIC || get_u64(&cbuf, 8) != seq {
                break; // incomplete transaction: stop, discarding it
            }
            for i in 0..count {
                newest.insert(get_u64(&buf, 24 + i as usize * 8), j.wrap(off + 1 + i));
            }
            replayed += 1;
            off = j.wrap(commit_off + 1);
            seq += 1;
        }
        // Pass 2, redo: each home page gets its newest image, once.
        let mut read_only = false;
        for (&home, &slot) in &newest {
            dev.read(j.abs(slot), &mut buf)?;
            match dev.write(home, &buf) {
                Ok(()) => {}
                Err(DevError::ReadOnly) => {
                    read_only = true;
                    break;
                }
                Err(e) => return Err(e.into()),
            }
        }
        if !newest.is_empty() && !read_only {
            match dev.flush() {
                Ok(()) | Err(DevError::ReadOnly) => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Reset: everything replayed is home; restart the log empty. A
        // read-only device keeps its persisted header (it cannot be
        // rewritten, and no new transactions will ever append).
        j.head_off = off;
        j.next_seq = seq;
        j.tail_off = off;
        j.tail_seq = seq;
        if !read_only {
            match j.write_header(dev) {
                Ok(()) | Err(FsError::ReadOnly) => {}
                Err(e) => return Err(e),
            }
        }
        Ok((j, replayed, read_only))
    }

    fn abs(&self, off: u64) -> Lpn {
        self.region_start + off
    }

    fn wrap(&self, off: u64) -> u64 {
        let cap = self.region_pages - 1;
        (off - 1) % cap + 1
    }

    fn write_header<D: BlockDevice>(&mut self, dev: &mut D) -> Result<()> {
        let mut buf = vec![0u8; dev.page_size()];
        put_u64(&mut buf, 0, HDR_MAGIC);
        put_u64(&mut buf, 8, self.tail_off);
        put_u64(&mut buf, 16, self.tail_seq);
        dev.write(self.region_start, &buf)?;
        Ok(())
    }

    /// Pages a transaction of `n` journaled pages consumes (desc + commit).
    pub fn txn_pages(n: u64) -> u64 {
        n + 2
    }

    /// True if appending `n` journaled pages requires a checkpoint first.
    pub fn needs_checkpoint(&self, n: u64) -> bool {
        self.live_pages + Self::txn_pages(n) > self.region_pages - 1
    }

    /// Appends one transaction (descriptor + page images + commit page).
    ///
    /// The caller is responsible for barrier placement: ext4 flushes before
    /// and after the commit page, so this method takes a callback-free
    /// two-phase shape — `append_body` then `append_commit`.
    pub fn append_body<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        entries: &[(Lpn, Vec<u8>)],
    ) -> Result<u64> {
        assert!(
            !self.needs_checkpoint(entries.len() as u64),
            "caller must checkpoint before appending (needs_checkpoint)"
        );
        let ps = dev.page_size();
        let mut desc = vec![0u8; ps];
        put_u64(&mut desc, 0, DESC_MAGIC);
        put_u64(&mut desc, 8, self.next_seq);
        put_u64(&mut desc, 16, entries.len() as u64);
        for (i, (home, _)) in entries.iter().enumerate() {
            put_u64(&mut desc, 24 + i * 8, *home);
        }
        // Descriptor plus page images leave as one queued batch; the
        // caller's barrier (flush before the commit page) completes it.
        let mut slots = Vec::with_capacity(entries.len() + 1);
        slots.push(self.abs(self.head_off));
        self.head_off = self.wrap(self.head_off + 1);
        for (home, image) in entries {
            slots.push(self.abs(self.head_off));
            self.head_off = self.wrap(self.head_off + 1);
            self.pending.push((*home, image.clone()));
        }
        let mut cmds = Vec::with_capacity(slots.len());
        cmds.push(IoCmd::Write {
            lpn: slots[0],
            data: &desc,
        });
        for (i, (_, image)) in entries.iter().enumerate() {
            cmds.push(IoCmd::Write {
                lpn: slots[i + 1],
                data: image,
            });
        }
        dev.submit(&cmds)?;
        self.live_pages += entries.len() as u64 + 2;
        Ok(entries.len() as u64 + 1)
    }

    /// Writes the commit page sealing the transaction opened by
    /// [`Journal::append_body`].
    pub fn append_commit<D: BlockDevice>(&mut self, dev: &mut D) -> Result<()> {
        let ps = dev.page_size();
        let mut cmt = vec![0u8; ps];
        put_u64(&mut cmt, 0, CMT_MAGIC);
        put_u64(&mut cmt, 8, self.next_seq);
        dev.write(self.abs(self.head_off), &cmt)?;
        self.head_off = self.wrap(self.head_off + 1);
        self.next_seq += 1;
        Ok(())
    }

    /// Checkpoints the journal: writes every pending page image home,
    /// flushes, and advances the persisted tail so the space is reusable.
    /// Returns the number of home pages written.
    pub fn checkpoint<D: BlockDevice>(&mut self, dev: &mut D) -> Result<u64> {
        if self.pending.is_empty() && self.tail_off == self.head_off {
            return Ok(0);
        }
        let pending = std::mem::take(&mut self.pending);
        if !pending.is_empty() {
            // Home writes in one queued batch; the flush below is the
            // barrier that completes it.
            let cmds: Vec<IoCmd<'_>> = pending
                .iter()
                .map(|(home, image)| IoCmd::Write {
                    lpn: *home,
                    data: image,
                })
                .collect();
            dev.submit(&cmds)?;
        }
        let written = pending.len() as u64;
        dev.flush()?;
        self.tail_off = self.head_off;
        self.tail_seq = self.next_seq;
        self.live_pages = 0;
        self.write_header(dev)?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftl_flash::{FlashChip, FlashConfig, SimClock};
    use xftl_ftl::PageMappedFtl;

    fn setup() -> (PageMappedFtl, Superblock) {
        let chip = FlashChip::new(FlashConfig::tiny(64), SimClock::new());
        let dev = PageMappedFtl::format(chip, 300).unwrap();
        let sb = Superblock::layout(300, dev.page_size(), 16, 16).unwrap();
        (dev, sb)
    }

    fn page(dev: &PageMappedFtl, byte: u8) -> Vec<u8> {
        vec![byte; dev.page_size()]
    }

    #[test]
    fn committed_txn_replays_home() {
        let (mut dev, sb) = setup();
        let mut j = Journal::mkfs(&mut dev, &sb).unwrap();
        let home = sb.data_start + 3;
        let image = page(&dev, 0xAA);
        j.append_body(&mut dev, &[(home, image.clone())]).unwrap();
        dev.flush().unwrap();
        j.append_commit(&mut dev).unwrap();
        dev.flush().unwrap();
        // Crash before checkpoint: the home page was never written.
        let mut dev = PageMappedFtl::recover(dev.into_chip()).unwrap();
        let (_, replayed, _) = Journal::mount(&mut dev, &sb).unwrap();
        assert_eq!(replayed, 1);
        let mut out = page(&dev, 0);
        dev.read(home, &mut out).unwrap();
        assert_eq!(out, image);
    }

    #[test]
    fn uncommitted_txn_is_discarded() {
        let (mut dev, sb) = setup();
        let mut j = Journal::mkfs(&mut dev, &sb).unwrap();
        let home = sb.data_start + 3;
        let image = page(&dev, 0xBB);
        j.append_body(&mut dev, &[(home, image)]).unwrap();
        dev.flush().unwrap();
        // No commit page: crash.
        let mut dev = PageMappedFtl::recover(dev.into_chip()).unwrap();
        let (_, replayed, _) = Journal::mount(&mut dev, &sb).unwrap();
        assert_eq!(replayed, 0);
        let mut out = page(&dev, 1);
        dev.read(home, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0), "home page must stay untouched");
    }

    #[test]
    fn multiple_txns_replay_in_order() {
        let (mut dev, sb) = setup();
        let mut j = Journal::mkfs(&mut dev, &sb).unwrap();
        let home = sb.data_start + 5;
        for v in [1u8, 2, 3] {
            let image = page(&dev, v);
            j.append_body(&mut dev, &[(home, image)]).unwrap();
            dev.flush().unwrap();
            j.append_commit(&mut dev).unwrap();
            dev.flush().unwrap();
        }
        let mut dev = PageMappedFtl::recover(dev.into_chip()).unwrap();
        let (_, replayed, _) = Journal::mount(&mut dev, &sb).unwrap();
        assert_eq!(replayed, 3);
        let mut out = page(&dev, 0);
        dev.read(home, &mut out).unwrap();
        assert_eq!(out[0], 3, "last committed image wins");
    }

    #[test]
    fn checkpoint_writes_home_and_frees_space() {
        let (mut dev, sb) = setup();
        let mut j = Journal::mkfs(&mut dev, &sb).unwrap();
        let home = sb.data_start + 2;
        let image = page(&dev, 0x33);
        j.append_body(&mut dev, &[(home, image.clone())]).unwrap();
        j.append_commit(&mut dev).unwrap();
        assert_eq!(j.pending.len(), 1);
        let n = j.checkpoint(&mut dev).unwrap();
        assert_eq!(n, 1);
        assert_eq!(j.pending.len(), 0);
        let mut out = page(&dev, 0);
        dev.read(home, &mut out).unwrap();
        assert_eq!(out, image);
        // After checkpoint, a crash must not replay the old transaction.
        let mut dev = PageMappedFtl::recover(dev.into_chip()).unwrap();
        let (_, replayed, _) = Journal::mount(&mut dev, &sb).unwrap();
        assert_eq!(replayed, 0);
    }

    #[test]
    fn wraps_around_the_region() {
        let (mut dev, sb) = setup();
        let mut j = Journal::mkfs(&mut dev, &sb).unwrap();
        let home = sb.data_start + 2;
        // Region is 16 pages -> capacity 15. Each txn = 3 pages. Run many
        // txns with checkpoints when needed.
        for v in 0..20u8 {
            if j.needs_checkpoint(1) {
                j.checkpoint(&mut dev).unwrap();
            }
            let image = page(&dev, v);
            j.append_body(&mut dev, &[(home, image)]).unwrap();
            dev.flush().unwrap();
            j.append_commit(&mut dev).unwrap();
            dev.flush().unwrap();
        }
        let mut dev = PageMappedFtl::recover(dev.into_chip()).unwrap();
        let (_, _, _) = Journal::mount(&mut dev, &sb).unwrap();
        let mut out = page(&dev, 0);
        dev.read(home, &mut out).unwrap();
        assert_eq!(out[0], 19, "latest image must win across wrap");
    }

    /// The replay before the newest-image pass: every complete
    /// transaction in log order, each journaled page written home.
    fn replay_in_order(dev: &mut PageMappedFtl, sb: &Superblock) {
        let ps = dev.page_size();
        let mut buf = vec![0u8; ps];
        dev.read(sb.jr_start, &mut buf).unwrap();
        let abs = |off: u64| sb.jr_start + off;
        let wrap = |off: u64| (off - 1) % (sb.jr_pages - 1) + 1;
        let (mut off, mut seq) = (get_u64(&buf, 8), get_u64(&buf, 16));
        loop {
            dev.read(abs(off), &mut buf).unwrap();
            if get_u64(&buf, 0) != DESC_MAGIC || get_u64(&buf, 8) != seq {
                break;
            }
            let count = get_u64(&buf, 16);
            let homes: Vec<Lpn> = (0..count as usize)
                .map(|i| get_u64(&buf, 24 + i * 8))
                .collect();
            let commit_off = wrap(off + 1 + count);
            let mut cbuf = vec![0u8; ps];
            dev.read(abs(commit_off), &mut cbuf).unwrap();
            if get_u64(&cbuf, 0) != CMT_MAGIC || get_u64(&cbuf, 8) != seq {
                break;
            }
            let mut pbuf = vec![0u8; ps];
            for (i, home) in homes.iter().enumerate() {
                dev.read(abs(wrap(off + 1 + i as u64)), &mut pbuf).unwrap();
                dev.write(*home, &pbuf).unwrap();
            }
            off = wrap(commit_off + 1);
            seq += 1;
        }
    }

    /// A log past a checkpoint that wraps the region: transactions that
    /// journal the same homes again, then one whose commit page never
    /// came. Left on a crashed device, which recovers.
    fn overlapping_log() -> (PageMappedFtl, Superblock) {
        let (mut dev, sb) = setup();
        let mut j = Journal::mkfs(&mut dev, &sb).unwrap();
        let home = |i: u64| sb.data_start + i;
        let txns: [&[u64]; 5] = [&[1, 2], &[3, 5], &[5, 9], &[3, 9], &[5]];
        for (t, homes) in txns.iter().enumerate() {
            if t == 1 {
                j.checkpoint(&mut dev).unwrap();
            }
            let entries: Vec<(Lpn, Vec<u8>)> = homes
                .iter()
                .map(|&h| (home(h), page(&dev, (t * 16 + h as usize) as u8)))
                .collect();
            j.append_body(&mut dev, &entries).unwrap();
            dev.flush().unwrap();
            if t + 1 < txns.len() {
                j.append_commit(&mut dev).unwrap();
                dev.flush().unwrap();
            }
        }
        assert!(j.head_off < j.tail_off, "the log wraps the region");
        (PageMappedFtl::recover(dev.into_chip()).unwrap(), sb)
    }

    #[test]
    fn newest_image_replay_leaves_the_homes_of_the_in_order_replay() {
        let (mut by_newest, sb) = overlapping_log();
        let (_, replayed, _) = Journal::mount(&mut by_newest, &sb).unwrap();
        assert_eq!(replayed, 3);
        let (mut in_order, _) = overlapping_log();
        replay_in_order(&mut in_order, &sb);
        let (mut a, mut b) = (page(&by_newest, 0), page(&by_newest, 0));
        for lpn in sb.data_start..sb.data_start + 16 {
            by_newest.read(lpn, &mut a).unwrap();
            in_order.read(lpn, &mut b).unwrap();
            assert_eq!(a[0], b[0], "home {lpn}");
        }
        // Homes 3, 5 and 9 were journaled twice, and 5 by the torn tail
        // too.
        by_newest.read(sb.data_start + 5, &mut a).unwrap();
        assert_eq!(a[0], 2 * 16 + 5);
    }

    #[test]
    fn needs_checkpoint_accounting() {
        let (mut dev, sb) = setup();
        let mut j = Journal::mkfs(&mut dev, &sb).unwrap();
        assert!(!j.needs_checkpoint(1));
        // Capacity 15; txn of 13 journaled pages = 15 total: exactly fits.
        assert!(!j.needs_checkpoint(13));
        assert!(j.needs_checkpoint(14));
        let image = page(&dev, 1);
        j.append_body(&mut dev, &[(sb.data_start, image)]).unwrap();
        j.append_commit(&mut dev).unwrap();
        assert!(j.needs_checkpoint(11), "3 pages consumed");
        assert!(!j.needs_checkpoint(10));
    }
}
