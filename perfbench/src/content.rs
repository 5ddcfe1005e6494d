//! The content oracle: file bytes are a pure function of
//! `(seed, path, offset)`, and a namespace model tracks what every
//! directory should list and every file should measure.
//!
//! The generator is cheap on purpose (one xor, one multiply and one
//! shift per 8-byte word), so producing and checking content costs far
//! less than moving it; the caller threads' own CPU is still reported
//! separately as `callers.cpu_s_per_GiB`.

use std::collections::BTreeMap;

use bytes::Bytes;

const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The per-file key every byte of `path` derives from.
pub fn file_key(seed: u64, path: &str) -> u64 {
    splitmix64(path_hash(path) ^ splitmix64(seed))
}

/// FNV-1a of a path, never 0 (0 stands for "no file" in spans).
pub fn path_hash(path: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in path.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h.max(1)
}

/// One step of splitmix64 (also the seed mixer of [`Rng`]).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(MIX);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn word(key: u64, index: u64) -> u64 {
    let v = (key ^ index).wrapping_mul(MIX);
    v ^ (v >> 29)
}

/// Fill `buf` with the content of the file keyed `key` at `offset`.
pub fn fill(key: u64, offset: u64, buf: &mut [u8]) {
    let mut pos = 0usize;
    // Unaligned head, byte by byte.
    while pos < buf.len() && !(offset + pos as u64).is_multiple_of(8) {
        let o = offset + pos as u64;
        buf[pos] = word(key, o / 8).to_le_bytes()[(o % 8) as usize];
        pos += 1;
    }
    let mut index = (offset + pos as u64) / 8;
    let mut chunks = buf[pos..].chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&word(key, index).to_le_bytes());
        index += 1;
    }
    let tail = chunks.into_remainder();
    let last = word(key, index).to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
}

/// The whole content of a `len`-byte file keyed `key`, ready for
/// `write_bytes`.
pub fn generate(key: u64, len: usize) -> Bytes {
    let mut v = vec![0u8; len];
    fill(key, 0, &mut v);
    Bytes::from(v)
}

/// Whether `buf` is exactly the content of the file keyed `key` at
/// `offset`.
pub fn verify(key: u64, offset: u64, buf: &[u8]) -> bool {
    let mut pos = 0usize;
    while pos < buf.len() && !(offset + pos as u64).is_multiple_of(8) {
        let o = offset + pos as u64;
        if buf[pos] != word(key, o / 8).to_le_bytes()[(o % 8) as usize] {
            return false;
        }
        pos += 1;
    }
    let mut index = (offset + pos as u64) / 8;
    let mut chunks = buf[pos..].chunks_exact(8);
    let mut ok = true;
    for chunk in &mut chunks {
        let got = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        ok &= got == word(key, index);
        index += 1;
    }
    let tail = chunks.remainder();
    ok && tail == &word(key, index).to_le_bytes()[..tail.len()]
}

/// A small seeded PRNG (xorshift64*), so workloads draw the same
/// offsets and choices for the same seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(stream)) | 1)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// What the namespace should hold: per directory, its files and their
/// sizes. Each caller keeps its own model over the directories it
/// alone writes, so checks need no coordination.
#[derive(Debug, Default)]
pub struct Namespace {
    dirs: BTreeMap<String, BTreeMap<String, u64>>,
}

impl Namespace {
    /// Record an empty directory.
    pub fn mkdir(&mut self, dir: &str) {
        self.dirs.entry(dir.to_string()).or_default();
    }

    /// Record a closed file of `size` bytes.
    pub fn add_file(&mut self, path: &str, size: u64) {
        let (dir, name) = split(path);
        self.dirs
            .entry(dir.to_string())
            .or_default()
            .insert(name.to_string(), size);
    }

    /// Forget a file.
    pub fn remove_file(&mut self, path: &str) {
        let (dir, name) = split(path);
        if let Some(d) = self.dirs.get_mut(dir) {
            d.remove(name);
        }
    }

    /// The size a file should have, if the model holds it.
    pub fn size(&self, path: &str) -> Option<u64> {
        let (dir, name) = split(path);
        self.dirs.get(dir)?.get(name).copied()
    }

    /// Whether `listing` (names, any order) is exactly what `dir`
    /// should hold.
    pub fn listing_matches(&self, dir: &str, listing: &[String]) -> bool {
        let Some(expected) = self.dirs.get(dir) else {
            return false;
        };
        let mut got: Vec<&str> = listing.iter().map(String::as_str).collect();
        got.sort_unstable();
        got.len() == expected.len() && got.iter().zip(expected.keys()).all(|(g, e)| *g == e)
    }
}

fn split(path: &str) -> (&str, &str) {
    match path.rfind('/') {
        Some(0) => ("/", &path[1..]),
        Some(i) => (&path[..i], &path[i + 1..]),
        None => ("/", path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_agrees_with_generate_at_any_offset() {
        let key = file_key(7, "/a/b");
        let whole = generate(key, 1000);
        for (off, len) in [(0usize, 1000usize), (3, 17), (8, 64), (13, 987), (999, 1)] {
            let mut part = vec![0u8; len];
            fill(key, off as u64, &mut part);
            assert_eq!(&part[..], &whole[off..off + len], "offset {off} len {len}");
            assert!(verify(key, off as u64, &part));
        }
    }

    #[test]
    fn oracle_flags_one_flipped_byte() {
        let key = file_key(42, "/stream/c0/f1");
        let mut data = generate(key, 4096).to_vec();
        assert!(verify(key, 0, &data));
        for at in [0usize, 5, 8, 4095] {
            data[at] ^= 0x01;
            assert!(!verify(key, 0, &data), "flip at {at} not caught");
            data[at] ^= 0x01;
        }
        // Right bytes at the wrong offset, or of another file, fail too.
        assert!(!verify(key, 8, &data[..4088]));
        assert!(!verify(file_key(42, "/stream/c0/f2"), 0, &data));
        assert!(!verify(file_key(43, "/stream/c0/f1"), 0, &data));
    }

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        assert_eq!(file_key(1, "/x"), file_key(1, "/x"));
        assert_ne!(file_key(1, "/x"), file_key(2, "/x"));
        let draw = |seed| {
            let mut r = Rng::new(seed, 3);
            (0..32).map(|_| r.below(1 << 14)).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
        assert!(draw(9).iter().all(|&v| v < 1 << 14));
    }

    #[test]
    fn namespace_model_checks_listings() {
        let mut ns = Namespace::default();
        ns.mkdir("/d");
        ns.add_file("/d/b", 3);
        ns.add_file("/d/a", 5);
        assert_eq!(ns.size("/d/a"), Some(5));
        assert!(ns.listing_matches("/d", &["b".into(), "a".into()]));
        assert!(!ns.listing_matches("/d", &["a".into()]));
        ns.remove_file("/d/b");
        assert!(ns.listing_matches("/d", &["a".into()]));
        assert!(!ns.listing_matches("/e", &[]));
    }
}
