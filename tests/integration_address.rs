//! Property-based integration tests of the address-mapping layer as the
//! rest of the stack uses it: round-trips, range validity, and channel
//! routing consistency between the CMP's submissions and the controllers.

use microbank::prelude::*;
use proptest::prelude::*;

fn any_cfg() -> impl Strategy<Value = MemConfig> {
    (
        prop::sample::select(vec![1usize, 2, 4, 8, 16]),
        prop::sample::select(vec![1usize, 2, 4, 8, 16]),
        6u32..=13,
        prop::sample::select(vec![1usize, 4, 16]),
        prop::sample::select(vec![
            Interface::Ddr3Pcb,
            Interface::Ddr3Tsi,
            Interface::LpddrTsi,
        ]),
        any::<bool>(),
    )
        .prop_map(|(nw, nb, ib, ch, iface, xor)| {
            MemConfig::for_interface(iface)
                .with_ubanks(nw, nb)
                .with_interleave_base(ib)
                .with_channels(ch)
                .with_bank_xor_hash(xor)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_encode_roundtrip_over_config_space(cfg in any_cfg(), addr in 0u64..(1 << 40)) {
        let map = AddressMap::new(&cfg);
        let masked = (addr & ((1u64 << map.address_bits()) - 1)) & !63;
        let loc = map.decode(masked);
        prop_assert!(map.location_in_range(&loc));
        prop_assert_eq!(map.encode(&loc), masked);
    }

    #[test]
    fn channel_field_is_uniform_under_line_interleaving(cfg in any_cfg()) {
        let cfg = cfg.with_interleave_base(6);
        let map = AddressMap::new(&cfg);
        // One full period of the interleave group (μbank × bank × ctrl ×
        // rank fields) distributes lines perfectly evenly over channels.
        let period = (cfg.ubanks_per_channel() * cfg.channels) as u64;
        let mut counts = vec![0u64; cfg.channels];
        for line in 0..(2 * period) {
            counts[map.decode(line * 64).channel as usize] += 1;
        }
        for c in counts {
            prop_assert_eq!(c, 2 * period / cfg.channels as u64);
        }
    }

    #[test]
    fn ubank_flat_round_trips_through_channel_model(cfg in any_cfg()) {
        // The decoded location's flat index addresses the channel model.
        let map = AddressMap::new(&cfg);
        let mut ch = Channel::new(&cfg);
        let loc = map.decode(0x12340);
        let flat = loc.ubank_flat(&cfg);
        prop_assert!(flat < ch.num_ubanks());
        prop_assert!(ch.can_activate_row_flat(flat, loc.row, 0));
        ch.activate_flat(flat, loc.row, 0);
        prop_assert_eq!(ch.open_row_flat(flat), Some(loc.row));
    }

    #[test]
    fn capacity_matches_address_bits(cfg in any_cfg()) {
        let map = AddressMap::new(&cfg);
        prop_assert_eq!(cfg.capacity_bytes(), 1u64 << map.address_bits());
    }
}
