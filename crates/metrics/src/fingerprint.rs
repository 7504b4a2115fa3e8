//! Streaming FNV-1a fingerprints over canonical bytes.
//!
//! The stack's determinism instrument, used by the service's per-stream
//! decision logs, the fleet risk map's snapshots and the scenario
//! subsystem's event-log fingerprints alike. Every value appends a
//! fixed, architecture-independent byte sequence — integers and float
//! bit patterns little-endian, sequences length-prefixed, enums as
//! declaration-order tag bytes. Hashing bytes
//! instead of formatted text keeps the fingerprint portable across
//! platforms (float *formatting* differs; float *bits* do not).

/// A streaming 64-bit FNV-1a hasher over canonical bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Absorbs a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Absorbs an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorbs an `f64` as its IEEE bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Absorbs a one-byte enum tag.
    pub fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }

    /// The current hash value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The current hash as a fixed-width hex string.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = Fingerprint::new();
        a.u64(1);
        a.f64(2.5);
        let mut b = Fingerprint::new();
        b.u64(1);
        b.f64(2.5);
        assert_eq!(a.value(), b.value());
        assert_eq!(a.hex(), b.hex());
        let mut c = Fingerprint::new();
        c.f64(2.5);
        c.u64(1);
        assert_ne!(a.value(), c.value());
    }

    #[test]
    fn nan_bit_patterns_are_distinguished() {
        let mut a = Fingerprint::new();
        a.f64(f64::NAN);
        let mut b = Fingerprint::new();
        b.f64(-f64::NAN);
        assert_ne!(a.value(), b.value(), "distinct bit patterns hash apart");
    }

    #[test]
    fn hex_is_fixed_width() {
        let mut f = Fingerprint::new();
        f.tag(0);
        assert_eq!(f.hex().len(), 16);
    }
}
