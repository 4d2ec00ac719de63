//! Property-based tests for IPv4/prefix handling and longest-prefix
//! matching.

use proptest::prelude::*;
use silentcert_net::{AsNumber, Ipv4, Prefix, PrefixTable, RoutingHistory};

proptest! {
    #[test]
    fn ip_display_parse_roundtrip(raw in any::<u32>()) {
        let ip = Ipv4(raw);
        let parsed: Ipv4 = ip.to_string().parse().unwrap();
        prop_assert_eq!(parsed, ip);
    }

    #[test]
    fn dotted_text_matches_reference_format(
        raw in any::<u32>(),
        picks in proptest::collection::vec(0usize..12, 4),
    ) {
        // Each octet is either arbitrary or, about half the time, one of
        // the edges where the digit count changes.
        const EDGES: [u8; 6] = [0, 9, 10, 99, 100, 255];
        let mut octets = raw.to_be_bytes();
        for (o, &pick) in octets.iter_mut().zip(&picks) {
            if let Some(&edge) = EDGES.get(pick) {
                *o = edge;
            }
        }
        let ip = Ipv4(u32::from_be_bytes(octets));
        let reference = format!("{}.{}.{}.{}", octets[0], octets[1], octets[2], octets[3]);
        let mut out = b"row,".to_vec();
        ip.write_dotted(&mut out);
        prop_assert_eq!(&out[4..], reference.as_bytes());
        prop_assert_eq!(ip.to_string(), reference.clone());
        prop_assert_eq!(reference.parse::<Ipv4>().unwrap(), ip);
    }

    #[test]
    fn aggregates_are_prefixes_of_the_address(raw in any::<u32>()) {
        let ip = Ipv4(raw);
        prop_assert_eq!(ip.slash8(), raw >> 24);
        prop_assert_eq!(ip.slash16(), raw >> 16);
        prop_assert_eq!(ip.slash24(), raw >> 8);
    }

    #[test]
    fn prefix_contains_its_own_range(raw in any::<u32>(), len in 0u8..=32, offset in any::<u64>()) {
        let p = Prefix::new(Ipv4(raw), len);
        let inside = p.addr(offset % p.size());
        prop_assert!(p.contains(inside));
        prop_assert_eq!(Prefix::new(inside, len), p);
        // Display/parse round trip.
        let parsed: Prefix = p.to_string().parse().unwrap();
        prop_assert_eq!(parsed, p);
    }

    #[test]
    fn lpm_returns_longest_matching_prefix(
        raw in any::<u32>(),
        lens in proptest::collection::btree_set(0u8..=32, 1..6),
    ) {
        // Announce nested prefixes of one address with distinct ASes.
        let ip = Ipv4(raw);
        let mut table = PrefixTable::new();
        let lens: Vec<u8> = lens.into_iter().collect();
        for (i, &len) in lens.iter().enumerate() {
            table.announce(Prefix::new(ip, len), AsNumber(i as u32));
        }
        // The longest announced prefix must win for the address itself.
        let (matched, asn) = table.lookup(ip).unwrap();
        let longest = *lens.last().unwrap();
        prop_assert_eq!(matched.len(), longest);
        prop_assert_eq!(asn, AsNumber(lens.len() as u32 - 1));
    }

    #[test]
    fn lpm_never_matches_outside_announced_space(
        base in any::<u32>(),
        probe in any::<u32>(),
    ) {
        let p = Prefix::new(Ipv4(base), 16);
        let mut table = PrefixTable::new();
        table.announce(p, AsNumber(1));
        match table.lookup(Ipv4(probe)) {
            Some((matched, _)) => prop_assert!(matched.contains(Ipv4(probe))),
            None => prop_assert!(!p.contains(Ipv4(probe))),
        }
    }

    #[test]
    fn routing_history_is_piecewise_constant(
        days in proptest::collection::btree_set(0i64..10_000, 1..5),
        probe_day in 0i64..12_000,
    ) {
        let days: Vec<i64> = days.into_iter().collect();
        let mut history = RoutingHistory::new();
        let prefix: Prefix = "10.0.0.0/8".parse().unwrap();
        for (i, &day) in days.iter().enumerate() {
            let mut t = PrefixTable::new();
            t.announce(prefix, AsNumber(i as u32));
            history.add_snapshot(day, t);
        }
        let expected = days.iter().rposition(|&d| d <= probe_day);
        let got = history.lookup_asn(probe_day, "10.1.2.3".parse().unwrap());
        prop_assert_eq!(got, expected.map(|i| AsNumber(i as u32)));
    }

    #[test]
    fn cn_ip_heuristic_agrees_with_parser(s in "[0-9.]{1,18}") {
        prop_assert_eq!(
            silentcert_net::ip::looks_like_ipv4(&s),
            s.parse::<Ipv4>().is_ok()
        );
    }
}
