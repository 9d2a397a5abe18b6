//! Byte-addressed device memory pools.
//!
//! A [`MemPool`] models one memory space as a set of allocations, the way a
//! CUDA context tracks `cudaMalloc` regions. In the cluster simulation every
//! node owns its own pool — the pools are genuinely disjoint `Vec<u8>`s, so
//! any consistency the runtime achieves is achieved by really moving bytes.

use cucc_ir::{Scalar, Value};

/// Handle to one allocation in a [`MemPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u32);

impl BufferId {
    /// Index into the pool's allocation table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set of byte buffers standing in for one device/node memory space.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemPool {
    bufs: Vec<Vec<u8>>,
}

impl MemPool {
    /// Empty pool.
    pub fn new() -> MemPool {
        MemPool::default()
    }

    /// Allocate `bytes` zeroed bytes; returns the handle.
    pub fn alloc(&mut self, bytes: usize) -> BufferId {
        let id = BufferId(self.bufs.len() as u32);
        self.bufs.push(vec![0u8; bytes]);
        id
    }

    /// Allocate a buffer holding a copy of `bytes`; returns the handle.
    /// The buffer is built from the bytes, not zeroed and then written.
    pub fn alloc_from(&mut self, bytes: &[u8]) -> BufferId {
        let id = BufferId(self.bufs.len() as u32);
        self.bufs.push(bytes.to_vec());
        id
    }

    /// Allocate room for `len` elements of type `elem`.
    pub fn alloc_elems(&mut self, elem: Scalar, len: usize) -> BufferId {
        self.alloc(elem.size() * len)
    }

    /// Number of allocations.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// True when no allocations exist.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Size in bytes of one allocation.
    pub fn size_of(&self, id: BufferId) -> usize {
        self.bufs[id.index()].len()
    }

    /// Read-only view of an allocation.
    pub fn bytes(&self, id: BufferId) -> &[u8] {
        &self.bufs[id.index()]
    }

    /// Mutable view of an allocation.
    pub fn bytes_mut(&mut self, id: BufferId) -> &mut [u8] {
        &mut self.bufs[id.index()]
    }

    /// Overwrite an allocation's contents (lengths must match).
    pub fn write_all(&mut self, id: BufferId, data: &[u8]) {
        let dst = self.bytes_mut(id);
        assert_eq!(dst.len(), data.len(), "write_all length mismatch");
        dst.copy_from_slice(data);
    }

    /// Load element `index` of an allocation viewed as `elem[]`.
    ///
    /// Returns `None` on out-of-bounds.
    #[inline]
    pub fn load(&self, id: BufferId, elem: Scalar, index: i64) -> Option<Value> {
        let bytes = self.bytes(id);
        let sz = elem.size();
        if index < 0 {
            return None;
        }
        let off = (index as usize).checked_mul(sz)?;
        let slice = bytes.get(off..off + sz)?;
        Some(decode(elem, slice))
    }

    /// Store `value` into element `index` of an allocation viewed as
    /// `elem[]`, applying C narrowing. Returns `false` on out-of-bounds.
    #[inline]
    pub fn store(&mut self, id: BufferId, elem: Scalar, index: i64, value: Value) -> bool {
        let sz = elem.size();
        if index < 0 {
            return false;
        }
        let Some(off) = (index as usize).checked_mul(sz) else {
            return false;
        };
        let bytes = self.bytes_mut(id);
        let Some(slice) = bytes.get_mut(off..off + sz) else {
            return false;
        };
        encode(elem, value, slice);
        true
    }

    /// Typed bulk write of a slice of `f32`s.
    pub fn write_f32(&mut self, id: BufferId, data: &[f32]) {
        let dst = self.bytes_mut(id);
        assert_eq!(dst.len(), data.len() * 4);
        for (i, v) in data.iter().enumerate() {
            dst[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Typed bulk read of `f32`s.
    pub fn read_f32(&self, id: BufferId) -> Vec<f32> {
        let src = self.bytes(id);
        src.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Typed bulk write of `i32`s.
    pub fn write_i32(&mut self, id: BufferId, data: &[i32]) {
        let dst = self.bytes_mut(id);
        assert_eq!(dst.len(), data.len() * 4);
        for (i, v) in data.iter().enumerate() {
            dst[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Typed bulk read of `i32`s.
    pub fn read_i32(&self, id: BufferId) -> Vec<i32> {
        let src = self.bytes(id);
        src.chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Typed bulk write of `f64`s.
    pub fn write_f64(&mut self, id: BufferId, data: &[f64]) {
        let dst = self.bytes_mut(id);
        assert_eq!(dst.len(), data.len() * 8);
        for (i, v) in data.iter().enumerate() {
            dst[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Typed bulk read of `f64`s.
    pub fn read_f64(&self, id: BufferId) -> Vec<f64> {
        let src = self.bytes(id);
        src.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
}

/// Decode one element from little-endian bytes.
#[inline]
pub fn decode(elem: Scalar, bytes: &[u8]) -> Value {
    match elem {
        Scalar::U8 => Value::I64(bytes[0] as i64),
        Scalar::I8 => Value::I64(bytes[0] as i8 as i64),
        Scalar::I32 => Value::I64(i32::from_le_bytes(bytes.try_into().unwrap()) as i64),
        Scalar::U32 => Value::I64(u32::from_le_bytes(bytes.try_into().unwrap()) as i64),
        Scalar::I64 => Value::I64(i64::from_le_bytes(bytes.try_into().unwrap())),
        Scalar::F32 => Value::F64(f32::from_le_bytes(bytes.try_into().unwrap()) as f64),
        Scalar::F64 => Value::F64(f64::from_le_bytes(bytes.try_into().unwrap())),
    }
}

/// Encode one value (with C narrowing) into little-endian bytes.
#[inline]
pub fn encode(elem: Scalar, value: Value, out: &mut [u8]) {
    match elem {
        Scalar::U8 => out[0] = value.as_i64() as u8,
        Scalar::I8 => out[0] = value.as_i64() as i8 as u8,
        Scalar::I32 => out.copy_from_slice(&(value.as_i64() as i32).to_le_bytes()),
        Scalar::U32 => out.copy_from_slice(&(value.as_i64() as u32).to_le_bytes()),
        Scalar::I64 => out.copy_from_slice(&value.as_i64().to_le_bytes()),
        Scalar::F32 => out.copy_from_slice(&(value.as_f64() as f32).to_le_bytes()),
        Scalar::F64 => out.copy_from_slice(&value.as_f64().to_le_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_roundtrip_scalars() {
        let mut p = MemPool::new();
        let b = p.alloc_elems(Scalar::I32, 4);
        assert_eq!(p.size_of(b), 16);
        assert!(p.store(b, Scalar::I32, 2, Value::I64(-7)));
        assert_eq!(p.load(b, Scalar::I32, 2), Some(Value::I64(-7)));
        assert_eq!(p.load(b, Scalar::I32, 0), Some(Value::I64(0)));
    }

    #[test]
    fn oob_is_none_or_false() {
        let mut p = MemPool::new();
        let b = p.alloc_elems(Scalar::F32, 2);
        assert_eq!(p.load(b, Scalar::F32, 2), None);
        assert_eq!(p.load(b, Scalar::F32, -1), None);
        assert!(!p.store(b, Scalar::F32, 2, Value::F64(1.0)));
        assert!(!p.store(b, Scalar::F32, -1, Value::F64(1.0)));
    }

    #[test]
    fn narrowing_on_store() {
        let mut p = MemPool::new();
        let b = p.alloc_elems(Scalar::U8, 1);
        p.store(b, Scalar::U8, 0, Value::I64(300));
        assert_eq!(p.load(b, Scalar::U8, 0), Some(Value::I64(44)));
        let f = p.alloc_elems(Scalar::F32, 1);
        p.store(f, Scalar::F32, 0, Value::F64(0.1));
        assert_eq!(p.load(f, Scalar::F32, 0), Some(Value::F64(0.1f32 as f64)));
    }

    #[test]
    fn typed_bulk_io() {
        let mut p = MemPool::new();
        let b = p.alloc_elems(Scalar::F32, 3);
        p.write_f32(b, &[1.0, 2.5, -3.0]);
        assert_eq!(p.read_f32(b), vec![1.0, 2.5, -3.0]);
        let c = p.alloc_elems(Scalar::I32, 2);
        p.write_i32(c, &[7, -9]);
        assert_eq!(p.read_i32(c), vec![7, -9]);
        let d = p.alloc_elems(Scalar::F64, 2);
        p.write_f64(d, &[0.5, 1.5]);
        assert_eq!(p.read_f64(d), vec![0.5, 1.5]);
    }

    #[test]
    fn cross_scalar_decode_encode() {
        let mut buf = [0u8; 8];
        encode(Scalar::I64, Value::I64(i64::MIN), &mut buf);
        assert_eq!(decode(Scalar::I64, &buf), Value::I64(i64::MIN));
        let mut b4 = [0u8; 4];
        encode(Scalar::U32, Value::I64(-1), &mut b4);
        assert_eq!(decode(Scalar::U32, &b4), Value::I64(u32::MAX as i64));
    }
}
