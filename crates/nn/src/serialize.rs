//! Weight (de)serialisation — the transfer-learning "download" step.
//!
//! The paper's flow downloads the meta-trained model onto the drone's NVM
//! and SRAM before deployment (§II-D step 1). This module provides the
//! byte-level hand-off: a self-describing little-endian format (magic,
//! tensor count, per-tensor dims + `f32` payload).

use crate::error::NnError;
use crate::network::Network;

const MAGIC: &[u8; 4] = b"MRNN";

impl Network {
    /// Serialises every parameter tensor to bytes.
    pub fn save_weights(&self) -> Vec<u8> {
        let tensors: Vec<&crate::Tensor> = self
            .layers()
            .flat_map(|l| l.params().into_iter().map(|p| &p.value))
            .collect();
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
        for t in tensors {
            out.extend_from_slice(&(t.shape().len() as u32).to_le_bytes());
            for &d in t.shape() {
                out.extend_from_slice(&(d as u32).to_le_bytes());
            }
            for &v in t.data() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Loads weights previously produced by [`Network::save_weights`] into
    /// this (structurally identical) network.
    ///
    /// All or nothing: every tensor header and payload is parsed and
    /// validated before the first weight is written, so a failed load
    /// leaves the network exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::WeightFormat`] on malformed bytes and
    /// [`NnError::ShapeMismatch`] if the tensor structure differs.
    pub fn load_weights(&mut self, bytes: &[u8]) -> Result<(), NnError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let magic = cur.take(4)?;
        if magic != MAGIC {
            return Err(NnError::WeightFormat {
                reason: "bad magic".into(),
            });
        }
        let count = cur.u32()? as usize;

        // Collect mutable param references in the same traversal order.
        let mut params: Vec<&mut crate::Tensor> = Vec::new();
        for l in self.layers_mut() {
            for p in l.params_mut() {
                params.push(&mut p.value);
            }
        }
        if params.len() != count {
            return Err(NnError::ShapeMismatch {
                context: format!("tensor count {} vs {}", params.len(), count),
            });
        }
        // Parse and validate everything first, staging each tensor's
        // payload bytes; commit only once the whole input checks out.
        let mut payloads: Vec<&[u8]> = Vec::with_capacity(count);
        for t in &params {
            let ndim = cur.u32()? as usize;
            if ndim == 0 || ndim > 8 {
                return Err(NnError::WeightFormat {
                    reason: format!("implausible rank {ndim}"),
                });
            }
            let mut shape = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                shape.push(cur.u32()? as usize);
            }
            if shape != t.shape() {
                return Err(NnError::ShapeMismatch {
                    context: format!("tensor shape {:?} vs {:?}", t.shape(), shape),
                });
            }
            payloads.push(cur.take(4 * t.len())?);
        }
        if cur.pos != bytes.len() {
            return Err(NnError::WeightFormat {
                reason: "trailing bytes".into(),
            });
        }
        for (t, payload) in params.into_iter().zip(payloads) {
            for (v, b) in t.data_mut().iter_mut().zip(payload.chunks_exact(4)) {
                *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
        }
        Ok(())
    }

    pub(crate) fn layers_mut(&mut self) -> impl Iterator<Item = &mut Box<dyn crate::Layer>> {
        self.layers_vec_mut().iter_mut()
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], NnError> {
        if self.pos + n > self.bytes.len() {
            return Err(NnError::WeightFormat {
                reason: "truncated".into(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, NnError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

#[cfg(test)]
mod tests {
    use crate::spec::NetworkSpec;
    use crate::{NnError, Tensor};

    #[test]
    fn roundtrip_preserves_outputs() {
        let mut a = NetworkSpec::micro(16, 1, 5).build(11);
        let x = Tensor::filled(&[1, 16, 16], 0.4);
        let y_a = a.forward(&x);
        let bytes = a.save_weights();

        let mut b = NetworkSpec::micro(16, 1, 5).build(999);
        assert_ne!(b.forward(&x).data(), y_a.data());
        b.load_weights(&bytes).unwrap();
        assert_eq!(b.forward(&x).data(), y_a.data());
    }

    /// A network and the (valid) weights of a differently seeded twin:
    /// any tensor a failed load wrongly committed would show in
    /// `save_weights()`.
    fn net_and_foreign_bytes() -> (crate::Network, Vec<u8>, Vec<u8>) {
        let net = NetworkSpec::micro(16, 1, 5).build(0);
        let before = net.save_weights();
        let foreign = NetworkSpec::micro(16, 1, 5).build(1).save_weights();
        assert_ne!(before, foreign);
        (net, before, foreign)
    }

    #[test]
    fn bad_magic_rejected() {
        let (mut net, before, mut bytes) = net_and_foreign_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            net.load_weights(&bytes),
            Err(NnError::WeightFormat { .. })
        ));
        assert_eq!(net.save_weights(), before);
    }

    #[test]
    fn truncated_rejected() {
        let (mut net, before, bytes) = net_and_foreign_bytes();
        // Cut inside the last tensor's payload and inside a middle
        // tensor's header: every earlier tensor parsed fine.
        for cut in [bytes.len() - 3, bytes.len() / 2] {
            assert!(net.load_weights(&bytes[..cut]).is_err());
            assert_eq!(net.save_weights(), before, "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (mut net, before, mut bytes) = net_and_foreign_bytes();
        bytes.push(0);
        assert!(matches!(
            net.load_weights(&bytes),
            Err(NnError::WeightFormat { reason }) if reason == "trailing bytes"
        ));
        assert_eq!(net.save_weights(), before);
    }

    #[test]
    fn structural_mismatch_rejected() {
        // Same tensor count, last tensors' shapes differ (4 vs 5
        // actions): every earlier tensor matches and parses.
        let a = NetworkSpec::micro(16, 1, 5).build(0);
        let mut b = NetworkSpec::micro(16, 1, 4).build(1);
        let before = b.save_weights();
        assert!(matches!(
            b.load_weights(&a.save_weights()),
            Err(NnError::ShapeMismatch { .. })
        ));
        assert_eq!(b.save_weights(), before);
    }
}
