//! Virtual machine monitor (VMM) state.
//!
//! Firecracker's snapshot stores the VMM state — vCPU registers, the
//! emulated virtio net/block device state, KVM irqchip state — in a small
//! file that restoration deserializes *before* mapping guest memory
//! (§2.3). Its contents do not affect guest behaviour in our model, but
//! they are real bytes so the snapshot round-trip is verifiable, and the
//! file's size feeds the Load-VMM latency component of Fig 2/7.

use sim_core::hash::fnv1a64_words;

/// Serialized VMM + emulated-device state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmmState {
    bytes: Vec<u8>,
}

/// Synthetic size of a Firecracker VMM state file. Firecracker's own
/// snapshot state for a 1-vCPU microVM is a few hundred KB.
pub const VMM_STATE_BYTES: usize = 256 * 1024;

impl VmmState {
    /// Captures the VMM state of a VM identified by `label` (vCPU
    /// registers, device rings, ...). Deterministic per label so capture →
    /// serialize → restore round-trips are checkable.
    pub fn capture(label: u64) -> Self {
        let mut bytes = vec![0u8; VMM_STATE_BYTES];
        guest_mem::checksum::fill_deterministic(&mut bytes, label ^ 0x5AFE, 0);
        VmmState { bytes }
    }

    /// Serialized representation (what the snapshot file stores).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// True if empty (never the case for a captured state).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Deserializes a state file.
    ///
    /// # Errors
    ///
    /// Returns an error message if the buffer is not a valid state blob.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, String> {
        if bytes.len() != VMM_STATE_BYTES {
            return Err(format!(
                "corrupt VMM state: {} bytes, expected {VMM_STATE_BYTES}",
                bytes.len()
            ));
        }
        Ok(VmmState { bytes })
    }

    /// Content fingerprint. In-process only: [`crate::Snapshot`] keeps the
    /// capture-time value in memory and compares it with a recomputation
    /// by this same function on every restore, so the word-wise feed does.
    pub fn checksum(&self) -> u64 {
        fnv1a64_words(&self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_deterministic_per_label() {
        let a = VmmState::capture(42);
        let b = VmmState::capture(42);
        assert_eq!(a, b);
        assert_eq!(a.checksum(), b.checksum());
        let c = VmmState::capture(43);
        assert_ne!(a.checksum(), c.checksum());
    }

    #[test]
    fn serialize_round_trip() {
        let s = VmmState::capture(7);
        let restored = VmmState::from_bytes(s.as_bytes().to_vec()).unwrap();
        assert_eq!(s, restored);
        assert_eq!(s.len(), VMM_STATE_BYTES as u64);
        assert!(!s.is_empty());
    }

    #[test]
    fn corrupt_state_rejected() {
        let err = VmmState::from_bytes(vec![1, 2, 3]).unwrap_err();
        assert!(err.contains("corrupt VMM state"));
    }
}
