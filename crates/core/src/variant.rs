//! Device-variant seam: the fine-grained-DRAM designs this lab compares.
//!
//! The μbank FSMs ([`crate::bank`]), the per-row channel state
//! ([`crate::channel`]), and the Fig. 6a-calibrated energy model already
//! contain all the geometry machinery the competing designs need. A
//! [`DeviceVariant`] names one design point and owns the three things that
//! differ between them:
//!
//! * **activation granularity** — how much of an 8 KB row one ACT opens,
//!   expressed as the effective [`UbankConfig`] the variant imposes
//!   ([`DeviceVariant::effective_ubank`]);
//! * **structural timing constraints** — which sibling-partition states
//!   block an ACT or a column command inside one physical bank
//!   ([`VariantRules`], enforced by [`crate::channel::Channel`] with exact
//!   `earliest_*` duals so the event-driven time-skip core stays sound);
//! * **per-activation energy** — dispatched per variant by
//!   `microbank_energy::EnergyModel`.
//!
//! The four variants:
//!
//! * [`DeviceVariant::Conventional`] — monolithic banks, one row buffer per
//!   bank. Identical to the μbank model at `(nW, nB) = (1, 1)`.
//! * [`DeviceVariant::Microbank`] — the paper's proposal; the model this
//!   repo always had, refactored behind the seam. Uses whatever
//!   `MemConfig::ubank` says; partitions are fully independent.
//! * [`DeviceVariant::Salp`] — subarray-level parallelism (Kim et al.,
//!   ISCA'12): `S` subarrays per bank, each with its own row state, but
//!   sharing the bank's global bitlines. The [`SalpMode`] ladder models the
//!   paper's three issue rules: SALP-1 overlaps one subarray's precharge
//!   with another's activation (at most one open row per bank, but the
//!   opener never waits the closer's tRP), SALP-2 additionally overlaps
//!   activation with write recovery (two open rows), and MASA keeps every
//!   subarray's row buffer live. In all modes a column burst must own the
//!   bank's shared global structure: a command to a subarray other than the
//!   last driver waits until the in-flight burst completes.
//! * [`DeviceVariant::Sectored`] — fine-grained activation ("Sectored
//!   DRAM"): a row is split into `sectors` sectors and one ACT raises only
//!   `sectors_per_act` of them (the SNIPPETS variable-bank-activation
//!   shape, where a configuration selects how many banks light up). Sector
//!   groups of the *same* row can be opened incrementally without a
//!   precharge, but the bank has a single row decoder: a group of a
//!   *different* row cannot open until every group of the old row has
//!   precharged.

use crate::geometry::UbankConfig;
use crate::validate::Checker;

/// SALP issue rule (Kim et al., ISCA'12, §4): how aggressively subarrays
/// of one bank may overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SalpMode {
    /// Overlap precharge with a *different* subarray's activation; at most
    /// one subarray holds an open row at a time.
    Salp1,
    /// Additionally overlap activation with write recovery: up to two
    /// subarrays may hold open rows.
    Salp2,
    /// Multitude of Activated Subarrays: every subarray keeps its row
    /// buffer live (the full `nB`-style parallelism), serialized only by
    /// the shared global bitlines.
    Masa,
}

impl SalpMode {
    pub fn label(&self) -> &'static str {
        match self {
            SalpMode::Salp1 => "salp1",
            SalpMode::Salp2 => "salp2",
            SalpMode::Masa => "masa",
        }
    }

    /// Maximum simultaneously open rows per bank under this issue rule
    /// (`usize::MAX` = bounded only by the subarray count).
    pub fn max_open_per_bank(&self) -> usize {
        match self {
            SalpMode::Salp1 => 1,
            SalpMode::Salp2 => 2,
            SalpMode::Masa => usize::MAX,
        }
    }
}

/// One fine-grained-DRAM design point (see the module docs).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceVariant {
    /// Monolithic banks: the evaluation baseline. Forces `(1, 1)`.
    Conventional,
    /// The paper's μbank partitioning — the repo's native model. Uses
    /// `MemConfig::ubank` as-is; partitions are fully independent.
    #[default]
    Microbank,
    /// Subarray-level parallelism: `subarrays` row buffers per bank along
    /// the bitline direction, sharing the bank's global bitlines.
    Salp { subarrays: usize, mode: SalpMode },
    /// Fine-grained activation: rows split into `sectors` sectors, one ACT
    /// raising `sectors_per_act` adjacent sectors (one row buffer's worth
    /// of independent wordline groups, single row decoder per bank).
    Sectored {
        sectors: usize,
        sectors_per_act: usize,
    },
}

impl DeviceVariant {
    /// Human label used in sweep artifacts and bench tables.
    pub fn label(&self) -> String {
        match self {
            DeviceVariant::Conventional => "conventional".into(),
            DeviceVariant::Microbank => "microbank".into(),
            DeviceVariant::Salp { subarrays, mode } => {
                format!("{}-{subarrays}", mode.label())
            }
            DeviceVariant::Sectored {
                sectors,
                sectors_per_act,
            } => format!("sectored-{sectors_per_act}of{sectors}"),
        }
    }

    /// The μbank configuration this variant's geometry maps onto. The
    /// address mapper, telemetry shapes, and capacity math all key off the
    /// effective `UbankConfig`; only the structural [`VariantRules`] differ.
    ///
    /// * `Conventional` → `(1, 1)`;
    /// * `Microbank` → the caller's configured partitioning, unchanged;
    /// * `Salp` → `(1, S)`: full-row activations, `S` row buffers;
    /// * `Sectored` → `(sectors / sectors_per_act, 1)`: each addressable
    ///   wordline group is one activation unit.
    pub fn effective_ubank(&self, configured: UbankConfig) -> UbankConfig {
        match *self {
            DeviceVariant::Conventional => UbankConfig::BASELINE,
            DeviceVariant::Microbank => configured,
            DeviceVariant::Salp { subarrays, .. } => UbankConfig::new(1, subarrays),
            DeviceVariant::Sectored {
                sectors,
                sectors_per_act,
            } => UbankConfig::new(sectors / sectors_per_act, 1),
        }
    }

    /// Structural issue rules the channel enforces for this variant.
    pub fn rules(&self) -> VariantRules {
        match *self {
            DeviceVariant::Conventional | DeviceVariant::Microbank => VariantRules::NONE,
            DeviceVariant::Salp { mode, .. } => VariantRules {
                max_open_per_bank: mode.max_open_per_bank(),
                shared_global_bitlines: true,
                single_row_decoder: false,
            },
            DeviceVariant::Sectored { .. } => VariantRules {
                max_open_per_bank: usize::MAX,
                shared_global_bitlines: false,
                single_row_decoder: true,
            },
        }
    }

    /// Validate the variant's own parameters and their consistency with
    /// the configured μbank partitioning (called from `MemConfig::validate`
    /// so field-by-field assembled configs get structured diagnostics).
    pub fn validate_into(&self, c: &mut Checker, ubank: UbankConfig) {
        match *self {
            DeviceVariant::Conventional => {
                c.check(ubank == UbankConfig::BASELINE, || {
                    format!(
                        "variant Conventional requires ubank (1,1), got ({},{}) — use \
                         MemConfig::with_variant to keep them consistent",
                        ubank.n_w, ubank.n_b
                    )
                });
            }
            DeviceVariant::Microbank => {}
            DeviceVariant::Salp { subarrays, mode: _ } => {
                let ok = c.check(
                    subarrays.is_power_of_two() && (2..=16).contains(&subarrays),
                    || format!("variant Salp: subarrays = {subarrays}: must be a power of two in 2..=16"),
                );
                if ok {
                    c.check(ubank == UbankConfig::new(1, subarrays), || {
                        format!(
                            "variant Salp-{subarrays} requires ubank (1,{subarrays}), got ({},{})",
                            ubank.n_w, ubank.n_b
                        )
                    });
                }
            }
            DeviceVariant::Sectored {
                sectors,
                sectors_per_act,
            } => {
                let ok = c.check(
                    sectors.is_power_of_two()
                        && sectors_per_act.is_power_of_two()
                        && sectors_per_act <= sectors
                        && (2..=16).contains(&(sectors / sectors_per_act.max(1)).max(1)),
                    || {
                        format!(
                            "variant Sectored: sectors = {sectors}, sectors_per_act = \
                             {sectors_per_act}: both must be powers of two with \
                             sectors / sectors_per_act a power of two in 2..=16"
                        )
                    },
                );
                if ok {
                    c.check(
                        ubank == UbankConfig::new(sectors / sectors_per_act, 1),
                        || {
                            format!(
                                "variant Sectored({sectors},{sectors_per_act}) requires ubank \
                                 ({},1), got ({},{})",
                                sectors / sectors_per_act,
                                ubank.n_w,
                                ubank.n_b
                            )
                        },
                    );
                }
            }
        }
    }

    /// The comparison set `bench_variants` sweeps: the baseline, the SALP
    /// issue-rule ladder, sectored activation at two granularities, and the
    /// paper's representative μbank points.
    pub fn comparison_set() -> Vec<DeviceVariant> {
        vec![
            DeviceVariant::Conventional,
            DeviceVariant::Salp {
                subarrays: 8,
                mode: SalpMode::Salp1,
            },
            DeviceVariant::Salp {
                subarrays: 8,
                mode: SalpMode::Salp2,
            },
            DeviceVariant::Salp {
                subarrays: 8,
                mode: SalpMode::Masa,
            },
            DeviceVariant::Sectored {
                sectors: 16,
                sectors_per_act: 2,
            },
            DeviceVariant::Sectored {
                sectors: 16,
                sectors_per_act: 4,
            },
            DeviceVariant::Microbank, // geometry supplied by the sweep
        ]
    }
}

/// Structural issue rules a [`DeviceVariant`] imposes inside one physical
/// bank, precomputed at [`crate::channel::Channel`] construction. The
/// default-variant values (`NONE`) keep every hot-path hook to one branch
/// and the golden path bit-identical to the pre-seam model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantRules {
    /// Maximum simultaneously open rows per physical bank (`usize::MAX`
    /// = unlimited, the μbank/conventional case).
    pub max_open_per_bank: usize,
    /// Subarrays share the bank's global bitlines: a column command to a
    /// subarray other than the current driver waits for the in-flight
    /// burst to finish (SALP).
    pub shared_global_bitlines: bool,
    /// One row decoder per bank: partitions may only hold (sectors of)
    /// one row at a time; a different row requires closing them all
    /// (Sectored).
    pub single_row_decoder: bool,
}

impl VariantRules {
    /// No structural constraints beyond the μbank FSMs themselves.
    pub const NONE: VariantRules = VariantRules {
        max_open_per_bank: usize::MAX,
        shared_global_bitlines: false,
        single_row_decoder: false,
    };

    /// Any constraint armed? (One branch guards every hot-path hook.)
    pub fn any(&self) -> bool {
        *self != VariantRules::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_ubank_mapping() {
        let cfgd = UbankConfig::new(4, 4);
        assert_eq!(
            DeviceVariant::Conventional.effective_ubank(cfgd),
            UbankConfig::BASELINE
        );
        assert_eq!(DeviceVariant::Microbank.effective_ubank(cfgd), cfgd);
        assert_eq!(
            DeviceVariant::Salp {
                subarrays: 8,
                mode: SalpMode::Masa
            }
            .effective_ubank(cfgd),
            UbankConfig::new(1, 8)
        );
        assert_eq!(
            DeviceVariant::Sectored {
                sectors: 16,
                sectors_per_act: 2
            }
            .effective_ubank(cfgd),
            UbankConfig::new(8, 1)
        );
    }

    #[test]
    fn default_variant_has_no_rules() {
        assert_eq!(DeviceVariant::default(), DeviceVariant::Microbank);
        assert!(!DeviceVariant::Microbank.rules().any());
        assert!(!DeviceVariant::Conventional.rules().any());
    }

    #[test]
    fn salp_ladder_bounds_open_rows() {
        let rules = |m| {
            DeviceVariant::Salp {
                subarrays: 8,
                mode: m,
            }
            .rules()
        };
        assert_eq!(rules(SalpMode::Salp1).max_open_per_bank, 1);
        assert_eq!(rules(SalpMode::Salp2).max_open_per_bank, 2);
        assert_eq!(rules(SalpMode::Masa).max_open_per_bank, usize::MAX);
        for m in [SalpMode::Salp1, SalpMode::Salp2, SalpMode::Masa] {
            assert!(rules(m).shared_global_bitlines);
            assert!(!rules(m).single_row_decoder);
        }
    }

    #[test]
    fn sectored_rules_are_single_decoder() {
        let r = DeviceVariant::Sectored {
            sectors: 16,
            sectors_per_act: 2,
        }
        .rules();
        assert!(r.single_row_decoder);
        assert!(!r.shared_global_bitlines);
        assert_eq!(r.max_open_per_bank, usize::MAX);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DeviceVariant::Conventional.label(), "conventional");
        assert_eq!(DeviceVariant::Microbank.label(), "microbank");
        assert_eq!(
            DeviceVariant::Salp {
                subarrays: 8,
                mode: SalpMode::Masa
            }
            .label(),
            "masa-8"
        );
        assert_eq!(
            DeviceVariant::Sectored {
                sectors: 16,
                sectors_per_act: 2
            }
            .label(),
            "sectored-2of16"
        );
    }

    #[test]
    fn validation_rejects_inconsistent_ubank() {
        let mut c = Checker::new();
        DeviceVariant::Conventional.validate_into(&mut c, UbankConfig::new(4, 4));
        assert!(c.finish("test").is_err());

        let mut c = Checker::new();
        DeviceVariant::Salp {
            subarrays: 8,
            mode: SalpMode::Salp1,
        }
        .validate_into(&mut c, UbankConfig::new(1, 8));
        assert!(c.finish("test").is_ok());

        let mut c = Checker::new();
        DeviceVariant::Sectored {
            sectors: 16,
            sectors_per_act: 2,
        }
        .validate_into(&mut c, UbankConfig::new(8, 1));
        assert!(c.finish("test").is_ok());

        // Geometry not matching the variant's derived partition.
        let mut c = Checker::new();
        DeviceVariant::Sectored {
            sectors: 16,
            sectors_per_act: 2,
        }
        .validate_into(&mut c, UbankConfig::new(4, 1));
        assert!(c.finish("test").is_err());

        // Non-power-of-two sector count is itself rejected.
        let mut c = Checker::new();
        DeviceVariant::Sectored {
            sectors: 12,
            sectors_per_act: 2,
        }
        .validate_into(&mut c, UbankConfig::new(8, 1));
        assert!(c.finish("test").is_err());
    }

    #[test]
    fn comparison_set_covers_all_four_families() {
        let set = DeviceVariant::comparison_set();
        assert!(set.contains(&DeviceVariant::Conventional));
        assert!(set.contains(&DeviceVariant::Microbank));
        assert!(set.iter().any(|v| matches!(v, DeviceVariant::Salp { .. })));
        assert!(set
            .iter()
            .any(|v| matches!(v, DeviceVariant::Sectored { .. })));
    }
}
