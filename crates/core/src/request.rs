//! The memory-request record exchanged between the CPU model, the memory
//! controller, and the DRAM device model.

use crate::address::Location;
use crate::Cycle;

/// Identity of the tenant (co-located service) a request belongs to.
///
/// Tenant 0 is the default: single-tenant workloads never set anything
/// else, and every struct carrying a `TenantId` derives `Default`, so the
/// tag is invisible (and result-neutral) until a multi-tenant workload
/// stamps it. The QoS subsystem in `microbank-ctrl` keys its per-tenant
/// token buckets and the per-tenant telemetry on this tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct TenantId(pub u8);

impl TenantId {
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// Read or write, as seen by the main memory (a writeback or a line fill).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    Read,
    Write,
}

impl ReqKind {
    pub fn is_write(&self) -> bool {
        matches!(self, ReqKind::Write)
    }
}

/// One main-memory request for a 64 B cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Unique id assigned by the issuer; echoed in the completion callback.
    pub id: u64,
    /// Physical byte address (line-aligned by the mapper).
    pub addr: u64,
    pub kind: ReqKind,
    /// Issuing hardware thread / core, used by PAR-BS batching and the
    /// global page predictor.
    pub thread: u16,
    /// Cycle the request entered the controller queue.
    pub arrival: Cycle,
    /// Decoded DRAM coordinates (filled by the controller on enqueue).
    pub loc: Location,
    /// Flat μbank index within the owning channel, cached at enqueue
    /// (stamped by the request queue) so the scheduler's per-tick scans
    /// never recompute [`Location::ubank_flat`] per entry.
    pub flat: u32,
    /// Set when a corrected-ECC demand retry has already re-issued this
    /// read (reliability subsystem); a request is retried at most once.
    pub retried: bool,
    /// Owning tenant, stamped by the workload layer and carried through
    /// the cache hierarchy. Defaults to tenant 0 for single-tenant runs.
    pub tenant: TenantId,
}

impl MemRequest {
    pub fn new(id: u64, addr: u64, kind: ReqKind, thread: u16, arrival: Cycle) -> Self {
        MemRequest {
            id,
            addr,
            kind,
            thread,
            arrival,
            loc: Location {
                channel: 0,
                rank: 0,
                bank: 0,
                w: 0,
                b: 0,
                row: 0,
                col: 0,
            },
            flat: 0,
            retried: false,
            tenant: TenantId::default(),
        }
    }

    pub fn is_write(&self) -> bool {
        self.kind.is_write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_construction() {
        let r = MemRequest::new(7, 0x1000, ReqKind::Write, 3, 42);
        assert!(r.is_write());
        assert_eq!(r.thread, 3);
        assert_eq!(r.arrival, 42);
    }

    #[test]
    fn tenant_defaults_to_zero() {
        let r = MemRequest::new(1, 0x40, ReqKind::Read, 0, 0);
        assert_eq!(r.tenant, TenantId(0));
        assert_eq!(TenantId(3).index(), 3);
    }

    #[test]
    fn kind_predicates() {
        assert!(!ReqKind::Read.is_write());
        assert!(ReqKind::Write.is_write());
    }
}
