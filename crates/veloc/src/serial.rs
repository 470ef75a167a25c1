//! The checkpoint frame format (VCF2).
//!
//! One checkpoint = the protected regions of one rank, packed into one
//! frame. A *full* frame carries every region's payload. A *delta* frame
//! carries only the regions whose dirty-tracking generation moved since the
//! last committed version and references the rest by id; their payloads
//! live in the frame of `base_version` (which may itself be a delta —
//! restart walks the chain). Every payload carries its own CRC, so a
//! frame's payloads are checkable without the base frames in hand and the
//! parallel pack pool can compute CRCs region by region:
//!
//! ```text
//! [4  bytes magic "VCF2"]
//! [u32 crc32(meta)]            // over `meta` only; payloads carry their own
//! meta:
//!   [u64 base_ref]             // 0 = full frame; else base_version + 1
//!   [u32 changed_count]
//!   [u32 unchanged_count]      // must be 0 when base_ref is 0
//!   repeat unchanged_count times: [u32 region_id]
//!   repeat changed_count   times: [u32 region_id][u64 payload_len][u32 crc32(payload)]
//! payloads: changed payloads concatenated, in `changed` order
//! ```
//!
//! VeloC's scratch and PFS tiers and the peer-memory tiers (buddy IMR and
//! the redundancy store, which hold full frames) all store this one
//! format. Restores match regions by id, so a restart can tolerate
//! registration in a different order (Kokkos Resilience re-registers views
//! after a context reset).
//!
//! The CRCs exist because the structural checks alone cannot catch a
//! flipped byte *inside* a region payload — without them, a corrupted frame
//! would silently restore garbage application state. Decoding is split in
//! two: [`parse_meta`] checks the structure and the meta CRC, and
//! [`FrameMeta::verify_payloads`] checks the payload CRCs. [`unpack_frame`]
//! runs both, turning silent corruption into a clean `None` (VeloC's
//! restart path surfaces it as the typed [`crate::VelocError::Corrupt`]).
//!
//! The `chaos-mutants` feature re-enables the garbage-restore bug by
//! skipping the meta CRC check in [`parse_meta`] and the payload checks in
//! [`FrameMeta::verify_payloads`] (structure is still parsed). It exists
//! only so the chaos campaign can prove it catches exactly this class of
//! bug (`crates/chaos/tests/mutant.rs`); never enable it in normal builds.

use std::sync::OnceLock;

use bytes::{BufMut, Bytes, BytesMut};

/// Leading magic of a checkpoint frame.
pub const MAGIC: [u8; 4] = *b"VCF2";

/// Lookup tables for [`crc32_slice16`], built at compile time from
/// the bitwise recurrence. `CRC_TABLES[0]` is the classic one-byte-at-a-time
/// table; `CRC_TABLES[k]` carries a byte through `k` further zero bytes, so
/// one loop iteration folds 16 input bytes at once.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 == 1 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 16 {
        let mut i = 0usize;
        while i < 256 {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// The kernel [`crc32`] runs, chosen once per process by [`crc_kernel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrcKernel {
    /// Carry-less-multiply folding (x86-64 with PCLMULQDQ and SSE4.1).
    Pclmul,
    /// Table-driven [`crc32_slice16`].
    Slice16,
}

impl CrcKernel {
    /// Short name, as recorded in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            CrcKernel::Pclmul => "pclmul",
            CrcKernel::Slice16 => "slice16",
        }
    }
}

/// The CRC kernel this CPU runs: runtime feature detection on first call,
/// cached for the life of the process.
pub fn crc_kernel() -> CrcKernel {
    static KERNEL: OnceLock<CrcKernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return CrcKernel::Pclmul;
        }
        CrcKernel::Slice16
    })
}

/// CRC32 (IEEE 802.3, reflected) of `data` — the checksum every frame
/// payload and meta section carries.
///
/// Dispatches to carry-less-multiply folding where the CPU has it and the
/// input is long enough to fold, and to [`crc32_slice16`] otherwise. Both
/// are property-tested against [`crc32_bitwise`].
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if crc_kernel() == CrcKernel::Pclmul {
        // SAFETY: `crc_kernel` returns `Pclmul` only after runtime detection
        // found both target features `pclmul::crc32` is compiled with.
        return unsafe { pclmul::crc32(data) };
    }
    crc32_slice16(data)
}

/// CRC32 (IEEE 802.3, reflected) of `data`, slice-by-16.
///
/// Sixteen compile-time tables fold 16 bytes per iteration where the bit
/// loop needed 128 shift-and-mask steps. This is the portable kernel: it
/// serves CPUs without PCLMULQDQ, inputs too short to fold, and the tail
/// the folding kernel leaves. Every table index is a single byte, so no
/// corrupted length can steer a lookup out of bounds.
pub fn crc32_slice16(data: &[u8]) -> u32 {
    !slice16_update(!0, data)
}

/// Advance the CRC register `crc` (pre-inverted, not finalized) over
/// `data`, slice-by-16.
fn slice16_update(mut crc: u32, data: &[u8]) -> u32 {
    // Lookup with the index masked to a byte: infallible by construction,
    // and expressed via `get` (not `[...]`) so the recovery path carries no
    // reachable panic — the mask proves the bound, so the fallback folds
    // away in codegen.
    #[inline(always)]
    fn tab(t: &[u32; 256], i: u32) -> u32 {
        t.get((i & 0xFF) as usize).copied().unwrap_or(0)
    }
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &CRC_TABLES;
    let mut bytes = data;
    while let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15, rest @ ..] =
        bytes
    {
        let folded = crc ^ u32::from_le_bytes([*b0, *b1, *b2, *b3]);
        crc = tab(t15, folded)
            ^ tab(t14, folded >> 8)
            ^ tab(t13, folded >> 16)
            ^ tab(t12, folded >> 24)
            ^ tab(t11, *b4 as u32)
            ^ tab(t10, *b5 as u32)
            ^ tab(t9, *b6 as u32)
            ^ tab(t8, *b7 as u32)
            ^ tab(t7, *b8 as u32)
            ^ tab(t6, *b9 as u32)
            ^ tab(t5, *b10 as u32)
            ^ tab(t4, *b11 as u32)
            ^ tab(t3, *b12 as u32)
            ^ tab(t2, *b13 as u32)
            ^ tab(t1, *b14 as u32)
            ^ tab(t0, *b15 as u32);
        bytes = rest;
    }
    for &b in bytes {
        crc = tab(t0, crc ^ b as u32) ^ (crc >> 8);
    }
    crc
}

/// CRC32 by carry-less multiplication: four 128-bit accumulators fold
/// 64 bytes per step, then fold into one, and a Barrett reduction takes
/// the 64-bit remainder to the 32-bit CRC (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel, 2009; the bit-reflected variant). Bytes past the last 16-byte
/// block go through slice-by-16 from the folded register.
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the bit-reflected IEEE polynomial, each a
    // reflected 33-bit `x^n mod P(x)` (shifted left one bit).
    /// `x^(4*128+32)` and `x^(4*128-32)`: fold across four blocks.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32)` and `x^(128-32)`: fold across one block.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64`: 96 → 64 bits.
    const K5: i64 = 0x1_63cd_6124;
    /// `P(x)` and `μ = floor(x^64 / P(x))`, reflected, for Barrett.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// One unaligned 16-byte load.
    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes and `_mm_loadu_si128` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Fold accumulator `acc` forward over one block's distance (`keys`)
    /// and add the next block `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// CRC32 of `data`; callers guarantee the CPU features (see
    /// [`super::crc_kernel`]). Inputs under four blocks (64 bytes) go
    /// straight to slice-by-16.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some(([b0, b1, b2, b3], quads)) = quads.split_first() else {
            return super::crc32_slice16(data);
        };
        // The register starts at all-ones, XORed into the first block.
        let mut x0 = _mm_xor_si128(load(b0), _mm_cvtsi32_si128(!0));
        let mut x1 = load(b1);
        let mut x2 = load(b2);
        let mut x3 = load(b3);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for [b0, b1, b2, b3] in quads {
            x0 = fold(x0, load(b0), k1k2);
            x1 = fold(x1, load(b1), k1k2);
            x2 = fold(x2, load(b2), k1k2);
            x3 = fold(x3, load(b3), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x0, x1, k3k4);
        x = fold(x, x2, k3k4);
        x = fold(x, x3, k3k4);
        for b in singles {
            x = fold(x, load(b), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P; the reflected
        // remainder is bits 32..64 of R ^ T2.
        let pmu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        !super::slice16_update(crc, tail)
    }
}

/// CRC32 (IEEE 802.3, reflected) of `data`, one bit at a time — the
/// polynomial's definition. Kept solely as the oracle [`crc32`] and
/// [`crc32_slice16`] are property-tested against (`tests/serial_props.rs`
/// and the bench's measured-speedup gate); no production path calls it.
pub fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
    }
    crc ^ 0xFFFF_FFFF
}

/// Pack `(id, payload)` pairs into one full frame — the copying path, for
/// callers that already hold snapshots.
pub fn pack(regions: &[(u32, Bytes)]) -> Bytes {
    let packed: Vec<PackedRegion> = regions
        .iter()
        .map(|(id, payload)| PackedRegion::new(*id, payload.clone()))
        .collect();
    pack_frame(None, &packed, &[])
}

/// One changed region as it enters a frame: payload plus its CRC,
/// precomputed so the parallel pack pool can fan the checksum work out and
/// [`pack_frame`] only assembles bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedRegion {
    pub id: u32,
    pub payload: Bytes,
    pub crc: u32,
}

impl PackedRegion {
    pub fn new(id: u32, payload: Bytes) -> Self {
        let crc = crc32(&payload);
        PackedRegion { id, payload, crc }
    }
}

/// A decoded checkpoint frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// `None` for a self-contained full frame; `Some(v)` for a delta whose
    /// `unchanged` regions live in (the chain rooted at) version `v`.
    pub base_version: Option<u64>,
    /// Regions whose payloads this frame carries.
    pub changed: Vec<(u32, Bytes)>,
    /// Regions unchanged since `base_version` (ids only).
    pub unchanged: Vec<u32>,
}

impl Frame {
    /// Whether this frame is self-contained (no base reference).
    pub fn is_full(&self) -> bool {
        self.base_version.is_none()
    }
}

/// Pack a frame. A full frame passes `base_version: None` and an empty
/// `unchanged` list; a delta frame references the committed version its
/// unchanged regions live under.
pub fn pack_frame(base_version: Option<u64>, changed: &[PackedRegion], unchanged: &[u32]) -> Bytes {
    debug_assert!(
        base_version.is_some() || unchanged.is_empty(),
        "a full frame cannot reference unchanged regions"
    );
    let meta_len = 16 + 4 * unchanged.len() + 16 * changed.len();
    let mut meta = BytesMut::with_capacity(meta_len);
    // `base_version + 1` so 0 can mean "full"; versions are iteration
    // numbers, nowhere near u64::MAX (saturating keeps this panic-free).
    meta.put_u64_le(match base_version {
        None => 0,
        Some(v) => v.saturating_add(1),
    });
    meta.put_u32_le(changed.len() as u32);
    meta.put_u32_le(unchanged.len() as u32);
    for id in unchanged {
        meta.put_u32_le(*id);
    }
    for r in changed {
        meta.put_u32_le(r.id);
        meta.put_u64_le(r.payload.len() as u64);
        meta.put_u32_le(r.crc);
    }
    let meta = meta.freeze();
    let payload_len: usize = changed.iter().map(|r| r.payload.len()).sum();
    let mut buf = BytesMut::with_capacity(8 + meta.len() + payload_len);
    buf.put_slice(&MAGIC);
    buf.put_u32_le(crc32(&meta));
    buf.put_slice(&meta);
    for r in changed {
        buf.put_slice(&r.payload);
    }
    buf.freeze()
}

fn put_u32_at(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64_at(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Zero-copy frame assembler.
///
/// [`pack_frame`] touches every payload twice: once serializing protected
/// memory into a `Bytes` snapshot, once copying the snapshot into the
/// frame. `FrameBuilder` allocates the finished frame up front from the
/// planned layout and hands out disjoint `&mut [u8]` payload slots, so
/// regions serialize *straight into their final location*
/// ([`crate::Protected::snapshot_into`]) and the intermediate copy
/// disappears. [`FrameBuilder::seal`] stamps the meta CRC and freezes; the
/// output is byte-identical to `pack_frame` on the same content
/// (`builder_output_matches_pack_frame` below holds the two together).
pub struct FrameBuilder {
    buf: Vec<u8>,
    /// Per changed region: offset of its CRC field in the meta table.
    crc_offsets: Vec<usize>,
    /// Per changed region: `(payload offset, len)` in `buf`.
    payload_slots: Vec<(usize, usize)>,
    /// End of the meta section (= start of the payload section).
    meta_end: usize,
}

impl FrameBuilder {
    /// Lay out a frame for `changed` regions `(id, byte length)` in frame
    /// order, plus `unchanged` references. Payload slots come back zeroed;
    /// the caller fills each and records its CRC via [`Self::set_crc`].
    pub fn new(base_version: Option<u64>, changed: &[(u32, usize)], unchanged: &[u32]) -> Self {
        debug_assert!(
            base_version.is_some() || unchanged.is_empty(),
            "a full frame cannot reference unchanged regions"
        );
        let meta_len = 16 + 4 * unchanged.len() + 16 * changed.len();
        let payload_len: usize = changed.iter().map(|&(_, len)| len).sum();
        let mut buf = vec![0u8; 8 + meta_len + payload_len];
        buf[..4].copy_from_slice(&MAGIC);
        let mut w = 8usize;
        // Same saturating base_ref encoding as `pack_frame`.
        put_u64_at(
            &mut buf,
            w,
            match base_version {
                None => 0,
                Some(v) => v.saturating_add(1),
            },
        );
        w += 8;
        put_u32_at(&mut buf, w, changed.len() as u32);
        w += 4;
        put_u32_at(&mut buf, w, unchanged.len() as u32);
        w += 4;
        for id in unchanged {
            put_u32_at(&mut buf, w, *id);
            w += 4;
        }
        let mut crc_offsets = Vec::with_capacity(changed.len());
        let mut payload_slots = Vec::with_capacity(changed.len());
        let mut p = 8 + meta_len;
        for &(id, len) in changed {
            put_u32_at(&mut buf, w, id);
            w += 4;
            put_u64_at(&mut buf, w, len as u64);
            w += 8;
            crc_offsets.push(w); // CRC written later by `set_crc`
            w += 4;
            payload_slots.push((p, len));
            p += len;
        }
        FrameBuilder {
            buf,
            crc_offsets,
            payload_slots,
            meta_end: 8 + meta_len,
        }
    }

    /// Number of changed-payload slots.
    pub fn payload_count(&self) -> usize {
        self.payload_slots.len()
    }

    /// All payload slots as disjoint mutable slices, in frame order — what
    /// the pack pool hands its workers.
    pub fn payloads_mut(&mut self) -> Vec<&mut [u8]> {
        let (_, mut rest) = self.buf.split_at_mut(self.meta_end);
        let mut out = Vec::with_capacity(self.payload_slots.len());
        for &(_, len) in &self.payload_slots {
            let (slot, tail) = rest.split_at_mut(len);
            out.push(slot);
            rest = tail;
        }
        out
    }

    /// Payload slot `i`, mutable (the inline recompute path when a pool
    /// worker died mid-fill).
    pub fn payload_mut(&mut self, i: usize) -> &mut [u8] {
        // Out-of-range slots yield an empty slice rather than indexing:
        // the pack path runs during recovery, where a panic kills the rank.
        let (off, len) = self.payload_slots.get(i).copied().unwrap_or((0, 0));
        self.buf.get_mut(off..off + len).unwrap_or(&mut [])
    }

    /// Payload slot `i`, read-only (CRC of an inline-filled slot).
    pub fn payload(&self, i: usize) -> &[u8] {
        let (off, len) = self.payload_slots.get(i).copied().unwrap_or((0, 0));
        self.buf.get(off..off + len).unwrap_or(&[])
    }

    /// Record the CRC of payload slot `i` in the meta table.
    pub fn set_crc(&mut self, i: usize, crc: u32) {
        if let Some(&off) = self.crc_offsets.get(i) {
            put_u32_at(&mut self.buf, off, crc);
        }
    }

    /// Stamp the meta CRC and freeze the frame. The caller must have
    /// filled every payload slot and set every CRC — `seal` cannot tell an
    /// unfilled slot from genuine zeroes.
    pub fn seal(mut self) -> Bytes {
        let crc = crc32(&self.buf[8..self.meta_end]);
        put_u32_at(&mut self.buf, 4, crc);
        Bytes::from(self.buf)
    }
}

/// The structural half of a decoded checkpoint frame: everything *except*
/// the payload bytes, which stay unverified until
/// [`FrameMeta::verify_payloads`] runs against the same blob.
///
/// Splitting decode in two is what makes the parallel chain-walk restart
/// possible: walking a delta chain needs only each frame's meta (a few
/// dozen bytes, verified by the meta CRC), while the expensive half —
/// checksumming megabytes of payload — fans out across the pack pool once
/// the whole chain is in hand.
#[derive(Clone, Debug)]
pub struct FrameMeta {
    /// `None` for a self-contained full frame; `Some(v)` for a delta.
    pub base_version: Option<u64>,
    /// Regions unchanged since `base_version` (ids only).
    pub unchanged: Vec<u32>,
    /// Changed regions in frame order: `(id, payload offset in blob, len)`.
    entries: Vec<(u32, usize, usize)>,
    /// Stored CRC of each changed payload, in `entries` order.
    crcs: Vec<u32>,
}

impl FrameMeta {
    /// Total changed-payload bytes this frame carries — the work
    /// [`Self::verify_payloads`] will checksum.
    pub fn payload_bytes(&self) -> usize {
        self.entries.iter().map(|&(_, _, len)| len).sum()
    }

    /// Verify the payload checksums against `blob` — which must be the
    /// blob this meta was parsed from. This is the expensive half of
    /// decode, the part restart runs concurrently per frame.
    pub fn verify_payloads(&self, blob: &Bytes) -> bool {
        // The seeded chaos mutant skips payload verification here, as it
        // skips the meta check in `parse_meta`, re-enabling the
        // garbage-restore path.
        #[cfg(feature = "chaos-mutants")]
        {
            let _ = blob;
            true
        }
        #[cfg(not(feature = "chaos-mutants"))]
        self.entries
            .iter()
            .zip(&self.crcs)
            .all(|(&(_, off, len), &crc)| blob.get(off..off + len).is_some_and(|p| crc32(p) == crc))
    }

    /// Ids of the changed regions, in frame order.
    pub fn changed_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().map(|&(id, _, _)| id)
    }

    /// Zero-copy payload views `(id, bytes)` in frame order. Slices of the
    /// blob's allocation — no payload is copied. Only meaningful after
    /// [`Self::verify_payloads`] passed on the same blob.
    pub fn payloads(&self, blob: &Bytes) -> Vec<(u32, Bytes)> {
        self.entries
            .iter()
            .map(|&(id, off, len)| (id, blob.slice(off..off + len)))
            .collect()
    }
}

/// Parse a frame into a [`FrameMeta`] without touching the payload bytes.
/// All structural checks run here — magic, counts, payload extents,
/// trailing garbage, and the meta CRC — so a `Some` return means the
/// frame's *shape* and chain reference are trustworthy; only the payload
/// checksums remain. Returns `None` on anything malformed.
pub fn parse_meta(blob: &Bytes) -> Option<FrameMeta> {
    if blob.get(..4)? != MAGIC {
        return None;
    }
    let stored_crc = u32::from_le_bytes(blob.get(4..8)?.try_into().ok()?);
    let body = &blob[8..];
    let mut off = 0usize;
    let take = |off: &mut usize, n: usize| -> Option<&[u8]> {
        let s = body.get(*off..*off + n)?;
        *off += n;
        Some(s)
    };
    let base_ref = u64::from_le_bytes(take(&mut off, 8)?.try_into().ok()?);
    let changed_count = u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?) as usize;
    let unchanged_count = u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?) as usize;
    // Guard against absurd counts from corrupt headers before allocating.
    let meta_need = changed_count
        .saturating_mul(16)
        .saturating_add(unchanged_count.saturating_mul(4));
    if meta_need > body.len() {
        return None;
    }
    let mut unchanged = Vec::with_capacity(unchanged_count);
    for _ in 0..unchanged_count {
        unchanged.push(u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?));
    }
    let mut raw_entries = Vec::with_capacity(changed_count);
    for _ in 0..changed_count {
        let id = u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?);
        let len = u64::from_le_bytes(take(&mut off, 8)?.try_into().ok()?) as usize;
        let crc = u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?);
        raw_entries.push((id, len, crc));
    }
    // The seeded chaos mutant skips the meta check here and the payload
    // checks in `FrameMeta::verify_payloads`, re-enabling the
    // garbage-restore path the CRCs exist to close.
    #[cfg(not(feature = "chaos-mutants"))]
    if crc32(body.get(..off)?) != stored_crc {
        return None;
    }
    #[cfg(feature = "chaos-mutants")]
    let _ = stored_crc;

    let mut entries = Vec::with_capacity(changed_count);
    let mut crcs = Vec::with_capacity(changed_count);
    for (id, len, crc) in raw_entries {
        if len > body.len() || off.checked_add(len)? > body.len() {
            return None;
        }
        entries.push((id, 8 + off, len));
        crcs.push(crc);
        off += len;
    }
    if off != body.len() {
        return None; // trailing garbage
    }
    let base_version = base_ref.checked_sub(1);
    if base_version.is_none() && !unchanged.is_empty() {
        return None; // a full frame cannot reference unchanged regions
    }
    Some(FrameMeta {
        base_version,
        unchanged,
        entries,
        crcs,
    })
}

/// Unpack a frame: the sequential composition of the two decode halves.
/// Returns `None` on any malformed or corrupt frame — a restart from a
/// corrupt checkpoint must fail cleanly, not panic.
pub fn unpack_frame(blob: &Bytes) -> Option<Frame> {
    let meta = parse_meta(blob)?;
    if !meta.verify_payloads(blob) {
        return None;
    }
    Some(Frame {
        base_version: meta.base_version,
        changed: meta.payloads(blob),
        unchanged: meta.unchanged,
    })
}

/// Whether `blob` is a well-formed, checksum-intact frame. For a delta this
/// checks *the frame itself* (meta + carried payloads); whether its base
/// chain is intact is the client's chain walk to decide.
pub fn verify(blob: &Bytes) -> bool {
    unpack_frame(blob).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_regions() {
        let regions = vec![
            (1u32, Bytes::from_static(b"alpha")),
            (7u32, Bytes::from_static(b"")),
            (3u32, Bytes::from_static(b"gamma-data")),
        ];
        let blob = pack(&regions);
        let frame = unpack_frame(&blob).unwrap();
        assert!(frame.is_full());
        assert_eq!(frame.changed, regions);
        assert!(verify(&blob));
    }

    #[test]
    fn roundtrip_empty() {
        let blob = pack(&[]);
        assert_eq!(unpack_frame(&blob).unwrap().changed, vec![]);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b""), 0);
    }

    #[test]
    fn crc32_slice16_agrees_with_bitwise_at_chunk_boundaries() {
        // Lengths straddling the 16-byte fold width: 0..=17, 31..=33, and a
        // large buffer exercising many folded iterations plus a remainder.
        for len in (0..=17).chain(31..=33).chain([255, 256, 4096 + 5]) {
            let data: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
                .collect();
            assert_eq!(crc32(&data), crc32_bitwise(&data), "len {len}");
        }
    }

    #[test]
    fn builder_output_matches_pack_frame() {
        // The zero-copy assembler must be byte-identical to the copying
        // packer on the same content — restart cannot tell which wrote a
        // frame, and the committed-baseline CRCs must agree.
        let payloads: Vec<(u32, Bytes)> = vec![
            (2, Bytes::from_static(b"changed-two")),
            (5, Bytes::from_static(b"")),
            (9, Bytes::from(vec![0xAB; 100])),
        ];
        let unchanged = [1u32, 3];
        for base in [None, Some(0u64), Some(7)] {
            let unchanged: &[u32] = if base.is_none() { &[] } else { &unchanged };
            let packed: Vec<PackedRegion> = payloads
                .iter()
                .map(|(id, p)| PackedRegion::new(*id, p.clone()))
                .collect();
            let reference = pack_frame(base, &packed, unchanged);

            let plan: Vec<(u32, usize)> = payloads.iter().map(|(id, p)| (*id, p.len())).collect();
            let mut b = FrameBuilder::new(base, &plan, unchanged);
            assert_eq!(b.payload_count(), payloads.len());
            let slots = b.payloads_mut();
            for (slot, (_, p)) in slots.into_iter().zip(&payloads) {
                slot.copy_from_slice(p);
            }
            for i in 0..payloads.len() {
                let crc = crc32(b.payload(i));
                b.set_crc(i, crc);
            }
            assert_eq!(&b.seal()[..], &reference[..], "base {base:?}");
        }
    }

    #[test]
    fn parse_meta_then_verify_equals_unpack_frame() {
        let blobs = [
            delta_frame(),
            pack_frame(
                None,
                &[PackedRegion::new(1, Bytes::from_static(b"alpha"))],
                &[],
            ),
            pack(&[(1, Bytes::from_static(b"copied")), (2, Bytes::new())]),
        ];
        for blob in &blobs {
            let meta = parse_meta(blob).expect("intact blob parses");
            assert!(meta.verify_payloads(blob));
            let frame = unpack_frame(blob).unwrap();
            assert_eq!(meta.base_version, frame.base_version);
            assert_eq!(meta.unchanged, frame.unchanged);
            assert_eq!(meta.payloads(blob), frame.changed);
            assert_eq!(
                meta.payload_bytes(),
                frame.changed.iter().map(|(_, p)| p.len()).sum::<usize>()
            );
        }
    }

    #[cfg(not(feature = "chaos-mutants"))]
    #[test]
    fn parse_meta_splits_corruption_by_section() {
        // A payload flip leaves the meta parseable (the split's point) but
        // fails payload verification; a meta flip fails parse outright.
        let blob = delta_frame();
        let mut payload_flip = blob.to_vec();
        let last = payload_flip.len() - 1;
        payload_flip[last] ^= 0xFF;
        let corrupted = Bytes::from(payload_flip);
        let meta = parse_meta(&corrupted).expect("meta section is untouched");
        assert!(!meta.verify_payloads(&corrupted));

        let mut meta_flip = blob.to_vec();
        meta_flip[24] ^= 0xFF; // first unchanged id (8 header + 16 fixed meta)
        assert!(parse_meta(&Bytes::from(meta_flip)).is_none());
    }

    fn delta_frame() -> Bytes {
        pack_frame(
            Some(7),
            &[
                PackedRegion::new(2, Bytes::from_static(b"changed-two")),
                PackedRegion::new(5, Bytes::from_static(b"")),
            ],
            &[1, 3],
        )
    }

    #[test]
    fn vcf2_full_frame_roundtrip() {
        let regions = [
            PackedRegion::new(1, Bytes::from_static(b"alpha")),
            PackedRegion::new(7, Bytes::from_static(b"")),
        ];
        let blob = pack_frame(None, &regions, &[]);
        let frame = unpack_frame(&blob).unwrap();
        assert!(frame.is_full());
        assert_eq!(
            frame.changed,
            vec![
                (1, Bytes::from_static(b"alpha")),
                (7, Bytes::from_static(b""))
            ]
        );
        assert!(frame.unchanged.is_empty());
        assert!(verify(&blob));
    }

    #[test]
    fn vcf2_delta_frame_roundtrip() {
        let frame = unpack_frame(&delta_frame()).unwrap();
        assert_eq!(frame.base_version, Some(7));
        assert_eq!(frame.unchanged, vec![1, 3]);
        assert_eq!(
            frame.changed,
            vec![
                (2, Bytes::from_static(b"changed-two")),
                (5, Bytes::from_static(b""))
            ]
        );
    }

    #[test]
    fn vcf2_base_version_zero_is_representable() {
        let blob = pack_frame(
            Some(0),
            &[PackedRegion::new(1, Bytes::from_static(b"x"))],
            &[2],
        );
        let frame = unpack_frame(&blob).unwrap();
        assert_eq!(frame.base_version, Some(0));
        assert!(!frame.is_full());
    }

    #[test]
    fn unknown_magic_is_rejected() {
        let mut raw = delta_frame().to_vec();
        raw[3] = b'9';
        assert!(unpack_frame(&Bytes::from(raw)).is_none());
    }

    #[test]
    fn vcf2_truncation_fails_cleanly() {
        let blob = delta_frame();
        for cut in [0, 3, 7, 9, 20, blob.len() - 1] {
            let truncated = blob.slice(0..cut);
            assert!(
                unpack_frame(&truncated).is_none(),
                "cut at {cut} should fail"
            );
            assert!(!verify(&truncated));
        }
    }

    #[test]
    fn vcf2_trailing_garbage_fails() {
        let mut raw = delta_frame().to_vec();
        raw.push(0xFF);
        assert!(unpack_frame(&Bytes::from(raw)).is_none());
    }

    #[cfg(not(feature = "chaos-mutants"))]
    #[test]
    fn vcf2_payload_byte_flip_is_detected() {
        // A flip in the last payload byte passes every structural check —
        // only the per-region CRC catches it.
        let mut raw = delta_frame().to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        assert!(unpack_frame(&Bytes::from(raw)).is_none());
    }

    #[cfg(not(feature = "chaos-mutants"))]
    #[test]
    fn vcf2_meta_flip_is_detected() {
        // Flip an unchanged-region id (meta section, structurally valid) —
        // only the meta CRC catches it.
        let blob = delta_frame();
        let mut raw = blob.to_vec();
        raw[24] ^= 0xFF; // first unchanged id (8 header + 16 fixed meta)
        assert!(unpack_frame(&Bytes::from(raw)).is_none());
    }

    #[test]
    fn vcf2_full_frame_with_unchanged_rejected() {
        // Hand-build base_ref=0 with unchanged_count=1: structurally
        // parseable but semantically void — must be rejected even though
        // its CRCs are valid.
        let mut meta = BytesMut::new();
        meta.put_u64_le(0);
        meta.put_u32_le(0);
        meta.put_u32_le(1);
        meta.put_u32_le(42);
        let meta = meta.freeze();
        let mut buf = BytesMut::new();
        buf.put_slice(&MAGIC);
        buf.put_u32_le(crc32(&meta));
        buf.put_slice(&meta);
        assert!(unpack_frame(&buf.freeze()).is_none());
    }

    #[cfg(not(feature = "chaos-mutants"))]
    #[test]
    fn vcf2_corrupt_counts_fail() {
        let mut raw = delta_frame().to_vec();
        // changed_count lives at body offset 8 (blob offset 16).
        raw[16] = 0xFF;
        raw[17] = 0xFF;
        raw[18] = 0xFF;
        raw[19] = 0x7F;
        assert!(unpack_frame(&Bytes::from(raw)).is_none());
    }
}
