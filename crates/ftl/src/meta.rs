//! On-flash formats for FTL metadata: the checkpoint root ("meta") page and
//! L2P mapping slabs.
//!
//! The layouts are deliberately simple fixed little-endian layouts so they
//! double as documentation of what the firmware persists:
//!
//! * **Meta page** — the checkpoint root, written to the reserved meta
//!   block (block 0). Holds the exported capacity, the checkpoint sequence
//!   number, the locations of every L2P mapping slab, and the bad-block
//!   table (blocks
//!   retired after erase failures; the chip's own health marks are
//!   authoritative, the persisted list lets recovery cross-check them).
//!   It names no X-L2P table page: a persisted table image is found by
//!   the recovery scan through its own OOB (`PageKind::XL2p`).
//! * **Map slab** — one page-sized slice of the L2P table:
//!   `page_size / 8` entries of 8 bytes each (`0` = unmapped, otherwise
//!   linear physical address + 1).

use xftl_flash::Ppa;

use crate::health::DeviceState;

/// Magic number identifying a meta page ("XFTLMETA" as bytes).
pub const META_MAGIC: u64 = 0x5846_544C_4D45_5441;
/// Current on-flash format version. Version 2 added the bad-block table;
/// version 3 added the paged global translation directory (GTD) for
/// devices whose slab-pointer table no longer fits inline in the root;
/// version 4 added the persisted device-health state
/// ([`crate::DeviceState`]), so a device that went read-only stays
/// read-only across power cycles; version 5 dropped the X-L2P table
/// pointers (the table image is located by the recovery scan).
pub const META_VERSION: u64 = 5;

/// Fixed header size of a meta page in bytes (9 u64 fields).
const META_HEADER: usize = 72;

/// OOB `aux` tag distinguishing a GTD page from an ordinary translation
/// page (both carry `PageKind::Map`; the `lpn` field holds the GTD page
/// index resp. the slab index).
pub const GTD_AUX: u32 = 1;

/// Parsed contents of a meta (checkpoint-root) page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaPage {
    /// Number of logical pages the device exports.
    pub logical_pages: u64,
    /// Global program sequence number at checkpoint time; recovery rolls
    /// forward only pages programmed after this.
    pub ckpt_seq: u64,
    /// Sequence number of the most recent power-cycle recovery. In-flight
    /// transactional evidence (cyclic-commit links, commit records) never
    /// spans a power cycle, so pages at or before this horizon cannot
    /// belong to a live transaction.
    pub tx_horizon: u64,
    /// Flash location of each L2P mapping slab (`None` = never persisted,
    /// meaning every entry of that slab is unmapped).
    ///
    /// In *inline* mode these pointers are stored in the root itself. In
    /// *paged* mode (`gtd_locs` non-empty) the root only stores the GTD
    /// page locations; decode then returns all-`None` placeholders of the
    /// right length and recovery fills them by reading the GTD pages.
    pub map_locs: Vec<Option<Ppa>>,
    /// Flash locations of the global-translation-directory pages, in
    /// order. Empty in inline mode. Each GTD page holds a page worth of
    /// slab pointers ([`gtd_pointers_per_page`]), giving the two-level
    /// root → GTD → translation-page structure a 64–256 GB device needs.
    pub gtd_locs: Vec<Ppa>,
    /// Blocks retired after erase failures, ascending. Recovery unions
    /// this with the chip's own health marks, so a root written before
    /// the latest retirement still recovers correctly.
    pub bad_blocks: Vec<u32>,
    /// Device-health state at the time this root was written. Recovery
    /// adopts it as a floor: health transitions are forward-only, so a
    /// stale root can under-report but the recovered device re-derives
    /// anything worse from the pool it finds.
    pub device_state: DeviceState,
}

fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(bytes)
}

fn encode_opt_ppa(p: Option<Ppa>, pages_per_block: usize) -> u64 {
    match p {
        None => 0,
        Some(ppa) => ppa.linear(pages_per_block) + 1,
    }
}

fn decode_opt_ppa(v: u64, pages_per_block: usize) -> Option<Ppa> {
    if v == 0 {
        None
    } else {
        Some(Ppa::from_linear(v - 1, pages_per_block))
    }
}

impl MetaPage {
    /// Maximum combined number of map slabs (or GTD pages) and bad-block
    /// entries a meta page of `page_size` can index.
    pub fn max_pointers(page_size: usize) -> usize {
        (page_size - META_HEADER) / 8
    }

    /// Serializes into a full flash page.
    ///
    /// # Panics
    /// If the pointer lists do not fit in `page_size` (the device
    /// constructor validates this).
    pub fn encode(&self, page_size: usize, pages_per_block: usize) -> Vec<u8> {
        let paged = !self.gtd_locs.is_empty();
        let map_slots = if paged { 0 } else { self.map_locs.len() };
        assert!(
            map_slots + self.gtd_locs.len() + self.bad_blocks.len()
                <= Self::max_pointers(page_size),
            "mapping pointers overflow a single meta page"
        );
        let mut buf = vec![0u8; page_size];
        put_u64(&mut buf, 0, META_MAGIC);
        put_u64(&mut buf, 8, META_VERSION);
        put_u64(&mut buf, 16, self.logical_pages);
        put_u64(&mut buf, 24, self.ckpt_seq);
        put_u64(&mut buf, 32, self.tx_horizon);
        put_u64(&mut buf, 40, self.map_locs.len() as u64);
        put_u64(&mut buf, 48, self.bad_blocks.len() as u64);
        put_u64(&mut buf, 56, self.gtd_locs.len() as u64);
        put_u64(&mut buf, 64, self.device_state.as_u64());
        let mut off = META_HEADER;
        if paged {
            for loc in &self.gtd_locs {
                put_u64(&mut buf, off, encode_opt_ppa(Some(*loc), pages_per_block));
                off += 8;
            }
        } else {
            for loc in &self.map_locs {
                put_u64(&mut buf, off, encode_opt_ppa(*loc, pages_per_block));
                off += 8;
            }
        }
        for bad in &self.bad_blocks {
            put_u64(&mut buf, off, u64::from(*bad));
            off += 8;
        }
        buf
    }

    /// Parses a meta page; `None` if the magic/version/shape is wrong. In
    /// paged-GTD mode the returned `map_locs` are all-`None` placeholders
    /// sized from the header; the caller reads `gtd_locs` to fill them.
    pub fn decode(buf: &[u8], pages_per_block: usize) -> Option<MetaPage> {
        if buf.len() < META_HEADER || get_u64(buf, 0) != META_MAGIC {
            return None;
        }
        if get_u64(buf, 8) != META_VERSION {
            return None;
        }
        let count = get_u64(buf, 40) as usize;
        let bad = get_u64(buf, 48) as usize;
        let gtd = get_u64(buf, 56) as usize;
        let device_state = DeviceState::from_u64(get_u64(buf, 64))?;
        let inline_map = if gtd > 0 { 0 } else { count };
        if META_HEADER + (inline_map + gtd + bad) * 8 > buf.len() {
            return None;
        }
        let mut off = META_HEADER;
        let mut gtd_locs = Vec::with_capacity(gtd);
        let mut map_locs = Vec::with_capacity(count);
        if gtd > 0 {
            for _ in 0..gtd {
                gtd_locs.push(decode_opt_ppa(get_u64(buf, off), pages_per_block)?);
                off += 8;
            }
            map_locs.resize(count, None);
        } else {
            for _ in 0..count {
                map_locs.push(decode_opt_ppa(get_u64(buf, off), pages_per_block));
                off += 8;
            }
        }
        let mut bad_blocks = Vec::with_capacity(bad);
        for _ in 0..bad {
            bad_blocks.push(u32::try_from(get_u64(buf, off)).ok()?);
            off += 8;
        }
        Some(MetaPage {
            logical_pages: get_u64(buf, 16),
            ckpt_seq: get_u64(buf, 24),
            tx_horizon: get_u64(buf, 32),
            map_locs,
            gtd_locs,
            bad_blocks,
            device_state,
        })
    }
}

// --- global translation directory (GTD) pages ------------------------------

/// Slab pointers per GTD page.
pub fn gtd_pointers_per_page(page_size: usize) -> usize {
    page_size / 8
}

/// Number of GTD pages needed to index `slabs` translation pages.
pub fn gtd_page_count(slabs: usize, page_size: usize) -> usize {
    slabs.div_ceil(gtd_pointers_per_page(page_size))
}

/// Serializes GTD page `gtd_idx`: the slice of slab pointers it covers,
/// in the translation-page format (a GTD page is a slab of slab homes).
pub fn encode_gtd_page(
    map_locs: &[Option<Ppa>],
    gtd_idx: usize,
    page_size: usize,
    pages_per_block: usize,
) -> Vec<u8> {
    let per = gtd_pointers_per_page(page_size);
    let covered = map_locs.chunks(per).nth(gtd_idx).unwrap_or(&[]);
    encode_slab_entries(covered, page_size, pages_per_block)
}

/// Loads GTD page `gtd_idx` back into the slab-pointer table.
pub fn decode_gtd_page(
    map_locs: &mut [Option<Ppa>],
    gtd_idx: usize,
    buf: &[u8],
    pages_per_block: usize,
) {
    let start = gtd_idx * gtd_pointers_per_page(buf.len());
    let pointers = decode_slab_entries(buf, pages_per_block);
    for (slot, ptr) in map_locs.iter_mut().skip(start).zip(pointers.iter()) {
        *slot = *ptr;
    }
}

/// Which GTD page indexes `slab`.
pub fn gtd_page_of(slab: usize, page_size: usize) -> usize {
    slab / gtd_pointers_per_page(page_size)
}

/// Entries of the L2P table stored per mapping slab page.
pub fn entries_per_slab(page_size: usize) -> usize {
    page_size / 8
}

/// Serializes one cached slab frame (the demand-paged engine's unit of
/// residency) into a translation page.
pub fn encode_slab_entries(
    entries: &[Option<Ppa>],
    page_size: usize,
    pages_per_block: usize,
) -> Vec<u8> {
    let eps = entries_per_slab(page_size);
    debug_assert!(entries.len() <= eps);
    let mut buf = vec![0u8; page_size];
    for i in 0..eps {
        let entry = entries.get(i).copied().flatten();
        put_u64(&mut buf, i * 8, encode_opt_ppa(entry, pages_per_block));
    }
    buf
}

/// Parses a translation page into a freshly allocated slab frame.
pub fn decode_slab_entries(buf: &[u8], pages_per_block: usize) -> Box<[Option<Ppa>]> {
    let eps = entries_per_slab(buf.len());
    (0..eps)
        .map(|i| decode_opt_ppa(get_u64(buf, i * 8), pages_per_block))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PPB: usize = 8;

    #[test]
    fn meta_roundtrip() {
        let m = MetaPage {
            logical_pages: 100,
            ckpt_seq: 42,
            tx_horizon: 17,
            map_locs: vec![None, Some(Ppa::new(1, 2)), None],
            gtd_locs: vec![],
            bad_blocks: vec![7, 11],
            device_state: DeviceState::Degraded,
        };
        let buf = m.encode(512, PPB);
        assert_eq!(MetaPage::decode(&buf, PPB), Some(m));
    }

    #[test]
    fn empty_bad_block_table_roundtrips() {
        let m = MetaPage {
            logical_pages: 8,
            ckpt_seq: 1,
            tx_horizon: 0,
            map_locs: vec![Some(Ppa::new(2, 0))],
            gtd_locs: vec![],
            bad_blocks: vec![],
            device_state: DeviceState::Healthy,
        };
        let buf = m.encode(512, PPB);
        assert_eq!(MetaPage::decode(&buf, PPB), Some(m));
    }

    #[test]
    fn meta_rejects_garbage() {
        assert_eq!(MetaPage::decode(&[0u8; 512], PPB), None);
        assert_eq!(MetaPage::decode(&[0xFFu8; 512], PPB), None);
    }

    #[test]
    fn meta_rejects_wrong_version() {
        let m = MetaPage {
            logical_pages: 1,
            ckpt_seq: 0,
            tx_horizon: 0,
            map_locs: vec![],
            gtd_locs: vec![],
            bad_blocks: vec![],
            device_state: DeviceState::Healthy,
        };
        let mut buf = m.encode(512, PPB);
        put_u64(&mut buf, 8, 99);
        assert_eq!(MetaPage::decode(&buf, PPB), None);
    }

    #[test]
    fn meta_rejects_unknown_device_state() {
        let m = MetaPage {
            logical_pages: 1,
            ckpt_seq: 0,
            tx_horizon: 0,
            map_locs: vec![],
            gtd_locs: vec![],
            bad_blocks: vec![],
            device_state: DeviceState::Healthy,
        };
        let mut buf = m.encode(512, PPB);
        put_u64(&mut buf, 64, 9);
        assert_eq!(MetaPage::decode(&buf, PPB), None);
    }

    #[test]
    fn read_only_state_roundtrips() {
        let m = MetaPage {
            logical_pages: 1,
            ckpt_seq: 0,
            tx_horizon: 0,
            map_locs: vec![],
            gtd_locs: vec![],
            bad_blocks: vec![],
            device_state: DeviceState::ReadOnly,
        };
        let buf = m.encode(512, PPB);
        assert_eq!(
            MetaPage::decode(&buf, PPB).unwrap().device_state,
            DeviceState::ReadOnly
        );
    }

    #[test]
    fn paged_meta_stores_gtd_not_map_locs() {
        // 200 slabs would overflow a 512 B root inline; paged mode stores
        // only the GTD pointers and decodes placeholder map_locs.
        let slabs = 200;
        let m = MetaPage {
            logical_pages: 64 * slabs as u64,
            ckpt_seq: 9,
            tx_horizon: 2,
            map_locs: (0..slabs)
                .map(|i| Some(Ppa::new(10 + i as u32, 0)))
                .collect(),
            gtd_locs: vec![
                Ppa::new(7, 0),
                Ppa::new(7, 1),
                Ppa::new(7, 2),
                Ppa::new(8, 0),
            ],
            bad_blocks: vec![3],
            device_state: DeviceState::Healthy,
        };
        let buf = m.encode(512, PPB);
        let d = MetaPage::decode(&buf, PPB).unwrap();
        assert_eq!(d.gtd_locs, m.gtd_locs);
        assert_eq!(d.map_locs.len(), slabs);
        assert!(d.map_locs.iter().all(Option::is_none), "placeholders");
        assert_eq!(d.bad_blocks, m.bad_blocks);
        assert_eq!(d.ckpt_seq, 9);
    }

    #[test]
    fn gtd_pages_roundtrip_slab_pointers() {
        let ps = 512;
        let per = gtd_pointers_per_page(ps);
        let slabs = per + 7; // spills into a second GTD page
        assert_eq!(gtd_page_count(slabs, ps), 2);
        let mut map_locs: Vec<Option<Ppa>> = vec![None; slabs];
        map_locs[0] = Some(Ppa::new(2, 3));
        map_locs[per - 1] = Some(Ppa::new(4, 5));
        map_locs[per + 3] = Some(Ppa::new(6, 7));
        let p0 = encode_gtd_page(&map_locs, 0, ps, PPB);
        let p1 = encode_gtd_page(&map_locs, 1, ps, PPB);
        let mut out: Vec<Option<Ppa>> = vec![Some(Ppa::new(9, 9)); slabs];
        decode_gtd_page(&mut out, 0, &p0, PPB);
        decode_gtd_page(&mut out, 1, &p1, PPB);
        assert_eq!(out, map_locs);
        assert_eq!(gtd_page_of(per - 1, ps), 0);
        assert_eq!(gtd_page_of(per, ps), 1);
    }

    #[test]
    fn slab_entries_roundtrip() {
        let ps = 512;
        let eps = entries_per_slab(ps);
        let mut entries: Vec<Option<Ppa>> = vec![None; eps];
        entries[1] = Some(Ppa::new(3, 2));
        entries[eps - 1] = Some(Ppa::new(1, 0));
        let buf = encode_slab_entries(&entries, ps, PPB);
        let out = decode_slab_entries(&buf, PPB);
        assert_eq!(out.as_ref(), entries.as_slice());
    }

    #[test]
    fn short_slab_padded_with_unmapped() {
        // A translation page covers more entries than a short last slab
        // holds; the excess encodes as unmapped.
        let ps = 512;
        let entries = vec![Some(Ppa::new(0, 1)); 3];
        let out = decode_slab_entries(&encode_slab_entries(&entries, ps, PPB), PPB);
        assert_eq!(out.len(), entries_per_slab(ps));
        assert_eq!(&out[..3], entries.as_slice());
        assert!(out[3..].iter().all(Option::is_none));
    }
}
