//! On-flash formats for FTL metadata: the checkpoint root ("meta") page and
//! L2P mapping slabs.
//!
//! The layouts are deliberately simple fixed little-endian layouts so they
//! double as documentation of what the firmware persists:
//!
//! * **Meta page** — the checkpoint root, written to the reserved meta
//!   ring (blocks 0 and 1). Holds the exported capacity, the checkpoint
//!   sequence number, the device-health state and the bad-block table
//!   (blocks retired after erase failures; the chip's own health marks
//!   are authoritative, the persisted list lets recovery cross-check
//!   them). It names no page of the pool: a translation page and a
//!   persisted X-L2P table page are both found by the recovery scan
//!   through their own OOB (`PageKind::Map`: slab index and program
//!   sequence; `PageKind::XL2p`: generation, index and page count). It
//!   names at most one table image *generation*: the one the checkpoint
//!   left live, which the scan reads although the checkpoint covers it.
//! * **Map slab** — one page-sized slice of the L2P table:
//!   `page_size / 8` entries of 8 bytes each (`0` = unmapped, otherwise
//!   linear physical address + 1).

use xftl_flash::Ppa;

use crate::health::DeviceState;

/// Magic number identifying a meta page ("XFTLMETA" as bytes).
pub const META_MAGIC: u64 = 0x5846_544C_4D45_5441;
/// Current on-flash format version. Version 2 added the bad-block table;
/// version 4 added the persisted device-health state
/// ([`crate::DeviceState`]), so a device that went read-only stays
/// read-only across power cycles; version 5 dropped the X-L2P table
/// pointers and version 6 the translation-page pointers (and with them
/// version 3's paged directory of those): the recovery scan locates both.
/// Version 7 added the kept table image's generation.
pub const META_VERSION: u64 = 7;

/// Fixed header size of a meta page in bytes (8 u64 fields).
const META_HEADER: usize = 64;

/// Parsed contents of a meta (checkpoint-root) page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaPage {
    /// Number of logical pages the device exports.
    pub logical_pages: u64,
    /// Global program sequence number at checkpoint time; recovery rolls
    /// forward only pages programmed after this.
    pub ckpt_seq: u64,
    /// Sequence at or below which no tid-tagged page is evidence: set
    /// at a power-cycle recovery (in-flight cyclic-commit links and
    /// commit records never span one) and advanced by every checkpoint
    /// to just below the personality's oldest open group. Pages at or
    /// before it belong to dead transactions or to groups the checkpoint
    /// covers.
    pub tx_horizon: u64,
    /// Blocks retired after erase failures, ascending. Recovery unions
    /// this with the chip's own health marks, so a root written before
    /// the latest retirement still recovers correctly.
    pub bad_blocks: Vec<u32>,
    /// Device-health state at the time this root was written. Recovery
    /// adopts it as a floor: health transitions are forward-only, so a
    /// stale root can under-report but the recovered device re-derives
    /// anything worse from the pool it finds.
    pub device_state: DeviceState,
    /// Generation of the X-L2P table image this checkpoint left live, 0
    /// if none: an image carrying state the checkpoint does not cover
    /// (X-FTL's page differentials, see `GcHook::keeps_image`). Recovery
    /// reads an image the checkpoint covers only if it is this one.
    pub kept_image: u64,
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
    /// Most bad-block entries a meta page of `page_size` can list.
    pub fn max_bad_blocks(page_size: usize) -> usize {
        (page_size - META_HEADER) / 8
    }

    /// Serializes into a full flash page.
    ///
    /// # Panics
    /// If the bad-block list does not fit in `page_size` (the writer
    /// truncates it to [`MetaPage::max_bad_blocks`]).
    pub fn encode(&self, page_size: usize) -> Vec<u8> {
        assert!(
            self.bad_blocks.len() <= Self::max_bad_blocks(page_size),
            "bad-block table overflows a single meta page"
        );
        let mut buf = vec![0u8; page_size];
        put_u64(&mut buf, 0, META_MAGIC);
        put_u64(&mut buf, 8, META_VERSION);
        put_u64(&mut buf, 16, self.logical_pages);
        put_u64(&mut buf, 24, self.ckpt_seq);
        put_u64(&mut buf, 32, self.tx_horizon);
        put_u64(&mut buf, 40, self.bad_blocks.len() as u64);
        put_u64(&mut buf, 48, self.device_state.as_u64());
        put_u64(&mut buf, 56, self.kept_image);
        for (i, bad) in self.bad_blocks.iter().enumerate() {
            put_u64(&mut buf, META_HEADER + i * 8, u64::from(*bad));
        }
        buf
    }

    /// Parses a meta page; `None` if the magic/version/shape is wrong.
    pub fn decode(buf: &[u8]) -> Option<MetaPage> {
        if buf.len() < META_HEADER || get_u64(buf, 0) != META_MAGIC {
            return None;
        }
        if get_u64(buf, 8) != META_VERSION {
            return None;
        }
        let bad = get_u64(buf, 40) as usize;
        let device_state = DeviceState::from_u64(get_u64(buf, 48))?;
        if bad > Self::max_bad_blocks(buf.len()) {
            return None;
        }
        let bad_blocks = (0..bad)
            .map(|i| u32::try_from(get_u64(buf, META_HEADER + i * 8)).ok())
            .collect::<Option<Vec<u32>>>()?;
        Some(MetaPage {
            logical_pages: get_u64(buf, 16),
            ckpt_seq: get_u64(buf, 24),
            tx_horizon: get_u64(buf, 32),
            bad_blocks,
            device_state,
            kept_image: get_u64(buf, 56),
        })
    }
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

    fn root(bad_blocks: Vec<u32>, device_state: DeviceState) -> MetaPage {
        MetaPage {
            logical_pages: 100,
            ckpt_seq: 42,
            tx_horizon: 17,
            bad_blocks,
            device_state,
            kept_image: 9,
        }
    }

    #[test]
    fn meta_roundtrip() {
        for m in [
            root(vec![7, 11], DeviceState::Degraded),
            root(vec![], DeviceState::Healthy),
            root(vec![3], DeviceState::ReadOnly),
            root((0..56).collect(), DeviceState::Healthy),
        ] {
            assert_eq!(MetaPage::decode(&m.encode(512)), Some(m));
        }
        assert_eq!(MetaPage::max_bad_blocks(512), 56);
    }

    #[test]
    fn meta_rejects_garbage() {
        assert_eq!(MetaPage::decode(&[0u8; 512]), None);
        assert_eq!(MetaPage::decode(&[0xFFu8; 512]), None);
    }

    #[test]
    fn meta_rejects_wrong_version_unknown_state_and_overlong_table() {
        let good = root(vec![5], DeviceState::Healthy).encode(512);
        for (off, v) in [(8, 99), (8, 5), (8, 6), (48, 9), (40, 57)] {
            let mut buf = good.clone();
            put_u64(&mut buf, off, v);
            assert_eq!(MetaPage::decode(&buf), None, "field at {off} = {v}");
        }
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
