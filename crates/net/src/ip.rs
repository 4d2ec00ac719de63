//! IPv4 addresses as transparent `u32` newtypes.

use std::fmt;
use std::str::FromStr;

/// An IPv4 address.
///
/// Stored as the host-order `u32`, which makes prefix masking and aggregate
/// keys (`/8`, `/16`, `/24`) cheap bit operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// Build from dotted-quad octets.
    pub fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Ipv4 {
        Ipv4(u32::from_be_bytes([a, b, c, d]))
    }

    /// The four octets, most significant first.
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// The containing /8 network key (the top octet).
    pub fn slash8(self) -> u32 {
        self.0 >> 24
    }

    /// The containing /16 network key.
    pub fn slash16(self) -> u32 {
        self.0 >> 16
    }

    /// The containing /24 network key.
    pub fn slash24(self) -> u32 {
        self.0 >> 8
    }

    /// Whether the address falls in RFC 1918 private space.
    pub fn is_private(self) -> bool {
        let o = self.octets();
        o[0] == 10 || (o[0] == 172 && (16..=31).contains(&o[1])) || (o[0] == 192 && o[1] == 168)
    }

    /// Append the dotted-quad text (`a.b.c.d`, no leading zeros) to `out`.
    pub fn write_dotted(self, out: &mut Vec<u8>) {
        let mut buf = [0u8; 15];
        let len = self.dotted(&mut buf);
        out.extend_from_slice(&buf[..len]);
    }

    /// The one dotted-quad formatter: fill `buf` and return the length
    /// used (7 to 15 bytes).
    fn dotted(self, buf: &mut [u8; 15]) -> usize {
        let mut len = 0;
        for (i, o) in self.octets().into_iter().enumerate() {
            if i > 0 {
                buf[len] = b'.';
                len += 1;
            }
            if o >= 100 {
                buf[len] = b'0' + o / 100;
                len += 1;
            }
            if o >= 10 {
                buf[len] = b'0' + o / 10 % 10;
                len += 1;
            }
            buf[len] = b'0' + o % 10;
            len += 1;
        }
        len
    }
}

/// Errors parsing an address from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIpError;

impl fmt::Display for ParseIpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 address")
    }
}

impl std::error::Error for ParseIpError {}

impl FromStr for Ipv4 {
    type Err = ParseIpError;

    fn from_str(s: &str) -> Result<Ipv4, ParseIpError> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts.next().ok_or(ParseIpError)?;
            if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseIpError);
            }
            // Reject leading zeros ("01") to keep the format canonical.
            if part.len() > 1 && part.starts_with('0') {
                return Err(ParseIpError);
            }
            *slot = part.parse().map_err(|_| ParseIpError)?;
        }
        if parts.next().is_some() {
            return Err(ParseIpError);
        }
        Ok(Ipv4(u32::from_be_bytes(octets)))
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; 15];
        let len = self.dotted(&mut buf);
        f.write_str(std::str::from_utf8(&buf[..len]).expect("digits and dots are ASCII"))
    }
}

/// Whether a string looks like a dotted-quad IPv4 address — the check the
/// paper applies to Common Names ("46.9% of certificates' Common Names appear
/// to be an IPv4 address") before excluding them from CN-based linking.
pub fn looks_like_ipv4(s: &str) -> bool {
    s.parse::<Ipv4>().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        for s in ["0.0.0.0", "192.168.1.1", "255.255.255.255", "8.8.8.8"] {
            assert_eq!(s.parse::<Ipv4>().unwrap().to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for s in [
            "",
            "1.2.3",
            "1.2.3.4.5",
            "256.1.1.1",
            "1.2.3.x",
            "01.2.3.4",
            " 1.2.3.4",
            "1..2.3",
        ] {
            assert!(s.parse::<Ipv4>().is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn aggregates() {
        let ip = Ipv4::from_octets(192, 168, 12, 34);
        assert_eq!(ip.slash8(), 192);
        assert_eq!(ip.slash16(), (192 << 8) | 168);
        assert_eq!(ip.slash24(), (192 << 16) | (168 << 8) | 12);
    }

    #[test]
    fn private_space() {
        assert!("10.1.2.3".parse::<Ipv4>().unwrap().is_private());
        assert!("172.16.0.1".parse::<Ipv4>().unwrap().is_private());
        assert!("172.31.255.255".parse::<Ipv4>().unwrap().is_private());
        assert!("192.168.1.1".parse::<Ipv4>().unwrap().is_private());
        assert!(!"172.32.0.1".parse::<Ipv4>().unwrap().is_private());
        assert!(!"8.8.8.8".parse::<Ipv4>().unwrap().is_private());
    }

    #[test]
    fn cn_heuristic() {
        assert!(looks_like_ipv4("192.168.1.1"));
        assert!(!looks_like_ipv4("fritz.box"));
        assert!(!looks_like_ipv4("WD2GO 293822"));
        assert!(!looks_like_ipv4(""));
    }

    #[test]
    fn ordering_matches_numeric() {
        assert!("1.2.3.4".parse::<Ipv4>().unwrap() < "1.2.3.5".parse::<Ipv4>().unwrap());
        assert!("2.0.0.0".parse::<Ipv4>().unwrap() > "1.255.255.255".parse::<Ipv4>().unwrap());
    }
}
