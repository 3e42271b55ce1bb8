//! Memory-trace recording and replay.
//!
//! The paper drives McSimA+ with Pin-captured instruction traces
//! (Simpoint slices). This module provides the equivalent capability:
//! capture the instruction stream any [`InstrSource`] produces into a
//! compact binary trace, persist it, and replay it deterministically —
//! so users with real traces can feed them to the simulator, and synthetic
//! runs can be snapshotted for exact reproduction.
//!
//! Format (little-endian): a 16-byte header (`MBTR`, version, record
//! count) followed by 13-byte records: `gap: u32` (compute instructions
//! preceding the access), `addr: u64`, `flags: u8` (bit 0 = write).

use microbank_cpu::instr::{Instr, InstrSource};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"MBTR";
const VERSION: u32 = 1;
const HEADER_BYTES: usize = 16;
const RECORD_BYTES: usize = 13;

/// One memory access with its preceding compute gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Number of compute (non-memory) instructions before this access.
    pub gap: u32,
    pub addr: u64,
    pub is_write: bool,
}

/// A recorded memory trace for one hardware thread.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Capture `n_accesses` memory accesses from `source`.
    pub fn record<S: InstrSource>(source: &mut S, n_accesses: usize) -> Self {
        let mut records = Vec::with_capacity(n_accesses);
        let mut gap: u32 = 0;
        while records.len() < n_accesses {
            match source.next_instr() {
                Instr::Compute => gap = gap.saturating_add(1),
                Instr::Mem { addr, is_write } => {
                    records.push(TraceRecord {
                        gap,
                        addr,
                        is_write,
                    });
                    gap = 0;
                }
            }
        }
        Trace { records }
    }

    /// Serialize to the compact binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_BYTES + self.records.len() * RECORD_BYTES);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        for r in &self.records {
            buf.extend_from_slice(&r.gap.to_le_bytes());
            buf.extend_from_slice(&r.addr.to_le_bytes());
            buf.push(r.is_write as u8);
        }
        buf
    }

    /// Parse the binary format. The record count comes from the file, so
    /// the size check uses checked arithmetic: a corrupt count is
    /// `InvalidData`, never an overflow.
    pub fn from_bytes(data: &[u8]) -> io::Result<Self> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let Some((header, body)) = data.split_first_chunk::<HEADER_BYTES>() else {
            return Err(bad("truncated header"));
        };
        let le = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte field"));
        if &header[..4] != MAGIC {
            return Err(bad("bad magic"));
        }
        if header[4..8] != VERSION.to_le_bytes() {
            return Err(bad("unsupported version"));
        }
        let n = usize::try_from(le(&header[8..])).unwrap_or(usize::MAX);
        if n.checked_mul(RECORD_BYTES)
            .is_none_or(|len| body.len() < len)
        {
            return Err(bad("truncated records"));
        }
        let records = body
            .chunks_exact(RECORD_BYTES)
            .take(n)
            .map(|r| TraceRecord {
                gap: u32::from_le_bytes(r[..4].try_into().expect("4-byte field")),
                addr: le(&r[4..12]),
                is_write: r[12] & 1 != 0,
            })
            .collect();
        Ok(Trace { records })
    }

    /// Write to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_bytes())
    }

    /// Read from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut f = std::fs::File::open(path)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Self::from_bytes(&buf)
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Replays a [`Trace`] as an infinite [`InstrSource`] (wrapping around at
/// the end, as the fixed-length Simpoint slices are replayed in rate mode).
#[derive(Debug, Clone)]
pub struct TraceSource {
    trace: Trace,
    idx: usize,
    remaining_gap: u32,
    /// Completed passes over the trace.
    pub wraps: u64,
}

impl TraceSource {
    pub fn new(trace: Trace) -> Self {
        assert!(!trace.is_empty(), "cannot replay an empty trace");
        let remaining_gap = trace.records[0].gap;
        TraceSource {
            trace,
            idx: 0,
            remaining_gap,
            wraps: 0,
        }
    }
}

impl InstrSource for TraceSource {
    fn next_instr(&mut self) -> Instr {
        if self.remaining_gap > 0 {
            self.remaining_gap -= 1;
            return Instr::Compute;
        }
        let r = self.trace.records[self.idx];
        self.idx += 1;
        if self.idx == self.trace.records.len() {
            self.idx = 0;
            self.wraps += 1;
        }
        self.remaining_gap = self.trace.records[self.idx].gap;
        Instr::Mem {
            addr: r.addr,
            is_write: r.is_write,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AppProfile;
    use crate::synth::SynthSource;

    fn synth() -> SynthSource {
        SynthSource::new(AppProfile::base("t"), 9, 0, 8 << 20, 0, 0)
    }

    #[test]
    fn record_captures_the_requested_accesses() {
        let mut s = synth();
        let t = Trace::record(&mut s, 100);
        assert_eq!(t.len(), 100);
        assert!(t.records.iter().all(|r| r.addr % 64 == 0));
    }

    #[test]
    fn bytes_roundtrip() {
        let mut s = synth();
        let t = Trace::record(&mut s, 257);
        let back = Trace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn corrupt_data_is_rejected() {
        assert!(Trace::from_bytes(b"nope").is_err());
        let mut s = synth();
        let good = Trace::record(&mut s, 4).to_bytes();
        assert!(Trace::from_bytes(&good[..good.len() - 5]).is_err());
        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert!(Trace::from_bytes(&wrong_magic).is_err());
        // A record count whose byte length overflows usize.
        let mut huge_count = good[..8].to_vec();
        huge_count.extend_from_slice(&(u64::MAX / 13 + 1).to_le_bytes());
        let err = Trace::from_bytes(&huge_count).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn file_roundtrip() {
        let mut s = synth();
        let t = Trace::record(&mut s, 64);
        let path = std::env::temp_dir().join("microbank_trace_test.mbtr");
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(t, back);
    }

    #[test]
    fn replay_reproduces_the_original_stream() {
        // The instruction sequence from replay must match the sequence the
        // recorder saw (same gaps, same accesses).
        let mut original = synth();
        let mut reference = Vec::new();
        let mut s2 = original.clone();
        let trace = Trace::record(&mut original, 50);
        // Regenerate the reference stream from an identical clone.
        let mut mems = 0;
        while mems < 50 {
            let i = s2.next_instr();
            if matches!(i, Instr::Mem { .. }) {
                mems += 1;
            }
            reference.push(i);
        }
        let mut replay = TraceSource::new(trace);
        for (k, &want) in reference.iter().enumerate() {
            assert_eq!(replay.next_instr(), want, "instr {k}");
        }
    }

    #[test]
    fn replay_wraps_around() {
        let trace = Trace {
            records: vec![
                TraceRecord {
                    gap: 1,
                    addr: 0x40,
                    is_write: false,
                },
                TraceRecord {
                    gap: 0,
                    addr: 0x80,
                    is_write: true,
                },
            ],
        };
        let mut s = TraceSource::new(trace);
        let mut mem_count = 0;
        for _ in 0..20 {
            if matches!(s.next_instr(), Instr::Mem { .. }) {
                mem_count += 1;
            }
        }
        assert!(s.wraps >= 3, "{}", s.wraps);
        assert!(mem_count >= 12);
    }

    #[test]
    #[should_panic]
    fn empty_trace_cannot_replay() {
        TraceSource::new(Trace::default());
    }
}
