//! Lowercase hex encoding: the one encoder for digests, fingerprints,
//! key identifiers and wire payloads across the workspace.

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Append the lowercase hex of `bytes` to `out` (two digits per byte).
pub fn hex_into(out: &mut Vec<u8>, bytes: &[u8]) {
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)]);
        out.push(DIGITS[usize::from(b & 0x0f)]);
    }
}

/// The lowercase hex of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    let mut out = Vec::with_capacity(bytes.len() * 2);
    hex_into(&mut out, bytes);
    String::from_utf8(out).expect("hex digits are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_format_for_every_byte_and_empty_input() {
        assert_eq!(hex(&[]), "");
        let mut out = b"keep".to_vec();
        hex_into(&mut out, &[]);
        assert_eq!(out, b"keep");
        // The reference is the per-byte `format!` the encoder replaced.
        for byte in 0..=255u8 {
            assert_eq!(hex(&[byte]), format!("{byte:02x}"), "byte {byte}");
        }
        let all: Vec<u8> = (0..=255u8).collect();
        let want: String = all.iter().map(|byte| format!("{byte:02x}")).collect();
        assert_eq!(hex(&all), want);
        let mut out = b"prefix,".to_vec();
        hex_into(&mut out, &all);
        assert_eq!(out, format!("prefix,{want}").into_bytes());
    }
}
