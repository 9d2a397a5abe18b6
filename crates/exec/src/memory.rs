//! Byte-addressed device memory pools.
//!
//! A [`MemPool`] models one memory space as a set of allocations, the way a
//! CUDA context tracks `cudaMalloc` regions. In the cluster simulation every
//! node owns its own pool, and no node ever observes another node's write:
//! any consistency the runtime achieves is achieved by really moving bytes.
//!
//! A restored buffer, identical on every node when it is created, is stored
//! once and shared (and a clone of a pool shares what the original shares).
//! Every write goes through [`MemPool::bytes_mut`], which first makes the
//! buffer unique to its pool: the last holder takes the bytes as they are,
//! any other holder copies them. [`MemPool::write_all`], which overwrites
//! every byte, gives a shared buffer's holder its own copy of the new bytes
//! instead. Reads never unshare.

use cucc_ir::{Scalar, Value};
use std::sync::Arc;

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

/// One allocation's bytes: owned by its pool, or shared with other pools
/// that hold the same bytes until one of them writes.
#[derive(Debug, Clone)]
enum Buf {
    Own(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl Buf {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Buf::Own(v) => v,
            Buf::Shared(a) => a,
        }
    }

    /// The bytes, unique to this holder. A shared buffer becomes owned
    /// first: the last holder moves the `Vec` out of its `Arc`, any other
    /// copies it. The owned path touches no atomic.
    #[inline]
    fn unique(&mut self) -> &mut [u8] {
        if let Buf::Shared(a) = self {
            *self = Buf::Own(Arc::unwrap_or_clone(std::mem::take(a)));
        }
        match self {
            Buf::Own(v) => v,
            Buf::Shared(_) => unreachable!("made unique above"),
        }
    }
}

/// Equal bytes are equal buffers, whichever way each is held.
impl PartialEq for Buf {
    fn eq(&self, other: &Buf) -> bool {
        self.bytes() == other.bytes()
    }
}

/// A set of byte buffers standing in for one device/node memory space.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemPool {
    bufs: Vec<Buf>,
}

impl MemPool {
    /// Empty pool.
    pub fn new() -> MemPool {
        MemPool::default()
    }

    /// A pool with this one's allocation table in which only `ids` keep
    /// their bytes (a clone, so a shared buffer stays shared); every other
    /// allocation is empty.
    pub(crate) fn clone_only(&self, ids: impl IntoIterator<Item = BufferId>) -> MemPool {
        let mut bufs = vec![Buf::Own(Vec::new()); self.bufs.len()];
        for id in ids {
            bufs[id.index()] = self.bufs[id.index()].clone();
        }
        MemPool { bufs }
    }

    /// Allocate `bytes` zeroed bytes; returns the handle.
    pub fn alloc(&mut self, bytes: usize) -> BufferId {
        self.push(Buf::Own(vec![0u8; bytes]))
    }

    /// Allocate a buffer holding `bytes`, shared with every other holder of
    /// the same `Arc` until one of them writes; returns the handle.
    pub fn alloc_shared(&mut self, bytes: Arc<Vec<u8>>) -> BufferId {
        self.push(Buf::Shared(bytes))
    }

    fn push(&mut self, buf: Buf) -> BufferId {
        let id = BufferId(self.bufs.len() as u32);
        self.bufs.push(buf);
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
        self.bytes(id).len()
    }

    /// Read-only view of an allocation.
    #[inline]
    pub fn bytes(&self, id: BufferId) -> &[u8] {
        self.bufs[id.index()].bytes()
    }

    /// Mutable view of an allocation — the door of every write. A buffer
    /// shared with other pools becomes this pool's own first, so no other
    /// pool observes the write.
    #[inline]
    pub fn bytes_mut(&mut self, id: BufferId) -> &mut [u8] {
        self.bufs[id.index()].unique()
    }

    /// True when the allocation's bytes belong to this pool alone, so a
    /// raw pointer into them reaches no other pool.
    pub(crate) fn is_own(&self, id: BufferId) -> bool {
        matches!(self.bufs[id.index()], Buf::Own(_))
    }

    /// Overwrite an allocation's contents (lengths must match). A shared
    /// buffer is replaced by an owned copy of `data`: unsharing it first
    /// would copy bytes only to overwrite every one of them.
    pub fn write_all(&mut self, id: BufferId, data: &[u8]) {
        let buf = &mut self.bufs[id.index()];
        assert_eq!(buf.bytes().len(), data.len(), "write_all length mismatch");
        match buf {
            Buf::Own(v) => v.copy_from_slice(data),
            Buf::Shared(_) => *buf = Buf::Own(data.to_vec()),
        }
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
    fn equal_bytes_are_equal_pools_however_held() {
        let mut own = MemPool::new();
        let b = own.alloc_elems(Scalar::I32, 2);
        own.write_i32(b, &[3, -4]);
        let mut shared = MemPool::new();
        shared.alloc_shared(Arc::new(own.bytes(b).to_vec()));
        assert!(own.is_own(b) && !shared.is_own(b));
        assert_eq!(own, shared);
        shared.store(b, Scalar::I32, 1, Value::I64(5));
        assert_ne!(own, shared);
    }

    #[test]
    fn cloning_a_shared_buffer_copies_no_bytes() {
        let mut p = MemPool::new();
        let s = p.alloc_shared(Arc::new(vec![9u8; 64]));
        let o = p.alloc(64);
        let q = p.clone();
        assert_eq!(q.bytes(s).as_ptr(), p.bytes(s).as_ptr());
        assert_ne!(q.bytes(o).as_ptr(), p.bytes(o).as_ptr());
    }

    #[test]
    fn the_last_holder_takes_the_bytes_without_a_copy() {
        let bytes = Arc::new(vec![0u8; 64]);
        let at = bytes.as_ptr();
        let (mut p, mut q) = (MemPool::new(), MemPool::new());
        let b = p.alloc_shared(Arc::clone(&bytes));
        q.alloc_shared(bytes);
        assert_eq!((p.bytes(b).as_ptr(), q.bytes(b).as_ptr()), (at, at));
        // A read leaves the buffer shared.
        assert_eq!(q.load(b, Scalar::U8, 0), Some(Value::I64(0)));
        assert!(!q.is_own(b));
        // A write while shared copies, and the other holder keeps its bytes.
        assert!(q.store(b, Scalar::U8, 0, Value::I64(1)));
        assert_ne!(q.bytes(b).as_ptr(), at);
        assert_eq!(p.bytes(b), &[0u8; 64]);
        // `p` now holds the last handle: its write moves the `Vec` out.
        assert!(p.store(b, Scalar::U8, 0, Value::I64(2)));
        assert!(p.is_own(b));
        assert_eq!(p.bytes(b).as_ptr(), at);
        assert_eq!((p.bytes(b)[0], q.bytes(b)[0]), (2, 1));
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
