//! The image cache: whole page images in device RAM, the bases the
//! differentials of [`crate::diff`] are taken against.
//!
//! Transactional whole writes and merges fill it, so a page is cached
//! from the moment a transaction writes it whole. It holds [`IMAGE_CACHE_PAGES`] images (1 MB of 8 KB
//! pages) and evicts the least recently used one that nothing pins. The
//! base of every live or pending differential is pinned, so a page's
//! changed bytes can always be found again without reading the flash.
//! Every image is keyed by the flash address of the version it copies,
//! which is a valid page: a version that dies leaves the cache with it.

use std::collections::{BTreeMap, HashMap};

use xftl_flash::Ppa;

/// Images the cache holds at most.
pub const IMAGE_CACHE_PAGES: usize = 128;

#[derive(Debug)]
struct Image {
    bytes: Box<[u8]>,
    /// Last use, the LRU key.
    used: u64,
    /// Differentials taken against this image.
    pins: u32,
}

/// Bounded, pinning LRU of page images keyed by flash address.
#[derive(Debug, Default)]
pub struct ImageCache {
    images: HashMap<Ppa, Image>,
    /// Images by last use, oldest first.
    lru: BTreeMap<u64, Ppa>,
    clock: u64,
}

impl ImageCache {
    /// Number of images held.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True if no image is held.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Every image, by address, for audits.
    pub fn iter(&self) -> impl Iterator<Item = (Ppa, &[u8])> {
        self.images.iter().map(|(&ppa, i)| (ppa, &i.bytes[..]))
    }

    /// The image of the version at `ppa`, if held, without touching its
    /// recency.
    pub fn peek(&self, ppa: Ppa) -> Option<&[u8]> {
        self.images.get(&ppa).map(|i| &i.bytes[..])
    }

    /// The image of the version at `ppa`, if held, as a use.
    pub fn get(&mut self, ppa: Ppa) -> Option<&[u8]> {
        let image = self.images.get_mut(&ppa)?;
        self.clock += 1;
        self.lru.remove(&image.used);
        image.used = self.clock;
        self.lru.insert(self.clock, ppa);
        Some(&image.bytes[..])
    }

    /// Caches `bytes`, just written whole at `ppa`, evicting the least
    /// recently used unpinned image if the cache is full. With every
    /// image pinned nothing is cached.
    pub fn insert(&mut self, ppa: Ppa, bytes: &[u8]) {
        debug_assert!(!self.images.contains_key(&ppa), "a fresh program");
        let mut buffer = None;
        if self.images.len() >= IMAGE_CACHE_PAGES {
            let victim = self
                .lru
                .values()
                .copied()
                .find(|p| self.images[p].pins == 0);
            let Some(victim) = victim.and_then(|v| self.images.remove(&v)) else {
                return;
            };
            self.lru.remove(&victim.used);
            // The victim's buffer takes the new image.
            buffer = Some(victim.bytes).filter(|b| b.len() == bytes.len());
        }
        let bytes = match buffer {
            Some(mut buffer) => {
                buffer.copy_from_slice(bytes);
                buffer
            }
            None => bytes.into(),
        };
        self.clock += 1;
        self.lru.insert(self.clock, ppa);
        let image = Image {
            bytes,
            used: self.clock,
            pins: 0,
        };
        self.images.insert(ppa, image);
    }

    /// Pins the image at `ppa`, if held, as a differential's base.
    pub fn pin(&mut self, ppa: Ppa) {
        if let Some(image) = self.images.get_mut(&ppa) {
            image.pins += 1;
        }
    }

    /// Releases one pin of the image at `ppa`, if held.
    pub fn unpin(&mut self, ppa: Ppa) {
        if let Some(image) = self.images.get_mut(&ppa) {
            debug_assert!(image.pins > 0, "unpinning an unpinned image");
            image.pins = image.pins.saturating_sub(1);
        }
    }

    /// True if a differential is taken against the image at `ppa`.
    pub fn is_pinned(&self, ppa: Ppa) -> bool {
        self.images.get(&ppa).is_some_and(|i| i.pins > 0)
    }

    /// Drops the image of a version that is gone from the flash.
    pub fn forget(&mut self, ppa: Ppa) {
        debug_assert!(!self.is_pinned(ppa), "forgetting a pinned base");
        self.remove(ppa);
    }

    /// Follows a version GC moved from `old` to `new`.
    pub fn relocated(&mut self, old: Ppa, new: Ppa) {
        if let Some(image) = self.images.remove(&old) {
            self.lru.insert(image.used, new);
            self.images.insert(new, image);
        }
    }

    fn remove(&mut self, ppa: Ppa) {
        if let Some(image) = self.images.remove(&ppa) {
            self.lru.remove(&image.used);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(page: u32) -> Ppa {
        Ppa::new(page / 64, page % 64)
    }

    #[test]
    fn the_least_recently_used_unpinned_image_goes_first() {
        let mut c = ImageCache::default();
        for i in 0..IMAGE_CACHE_PAGES as u32 {
            c.insert(p(i), &[i as u8]);
        }
        c.pin(p(0));
        assert!(c.get(p(1)).is_some());
        // p(0) is pinned, p(1) was just used: p(2) is the victim.
        c.insert(p(1000), &[1]);
        assert_eq!(c.len(), IMAGE_CACHE_PAGES);
        assert!(c.peek(p(0)).is_some() && c.peek(p(1)).is_some());
        assert!(c.peek(p(2)).is_none());
    }

    #[test]
    fn a_cache_of_pinned_images_takes_nothing_new() {
        let mut c = ImageCache::default();
        for i in 0..IMAGE_CACHE_PAGES as u32 {
            c.insert(p(i), &[0]);
            c.pin(p(i));
        }
        c.insert(p(1000), &[1]);
        assert!(c.peek(p(1000)).is_none());
        c.unpin(p(5));
        c.insert(p(1000), &[1]);
        assert!(c.peek(p(1000)).is_some() && c.peek(p(5)).is_none());
    }

    #[test]
    fn a_relocated_image_keeps_its_pins_and_recency() {
        let mut c = ImageCache::default();
        c.insert(p(1), &[1]);
        c.pin(p(1));
        c.relocated(p(1), p(9));
        assert!(c.peek(p(1)).is_none());
        assert_eq!(c.peek(p(9)), Some(&[1u8][..]));
        assert!(c.is_pinned(p(9)));
    }
}
