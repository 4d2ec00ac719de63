//! Request corpus: every distinct certificate the simulator emits for a
//! seed, rendered as `classify`/`validate` frames.
//!
//! The world is `ScaleConfig::small()` at the benchmark's seed, the same
//! world `repro serve --scale small --seed N` builds its trust store
//! from, so every frame's expected answer is known in-process. Frames
//! are shuffled with the seed and used at most once by the cache-miss
//! workloads; the cache-hit workload draws from a small working set.

use crate::openloop::Rng;
use silentcert_sim::ScaleConfig;
use silentcert_validate::{Classification, InvalidityReason, TrustStore, Validator};
use silentcert_x509::Certificate;
use std::collections::HashMap;

/// The world every workload draws from.
pub fn world(seed: u64) -> ScaleConfig {
    ScaleConfig {
        seed,
        ..ScaleConfig::small()
    }
}

/// One request frame, with what it carries.
#[derive(Debug, Clone)]
pub struct Frame {
    pub line: String,
    pub id: String,
    pub der: Vec<u8>,
    pub chain: Vec<Vec<u8>>,
}

fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 15) as usize] as char);
    }
    s
}

/// Share of CA-issued leaves sent with their intermediate attached.
const CHAIN_SHARE: f64 = 0.5;

/// Build the shuffled frames of a seed from `simulate_streaming`.
pub fn build(seed: u64) -> Vec<Frame> {
    let mut certs: Vec<Certificate> = Vec::new();
    silentcert_sim::world::simulate_streaming(&world(seed), &mut |cert| {
        certs.push(cert.clone());
        true
    });
    // CA certificates by subject, to present as chains.
    let mut cas: HashMap<&silentcert_x509::Name, &Certificate> = HashMap::new();
    for c in certs.iter().filter(|c| c.is_ca()) {
        cas.entry(&c.subject).or_insert(c);
    }
    let mut rng = Rng::new(seed ^ 0xc0_4b05);
    let mut drawn: Vec<(&Certificate, Vec<Vec<u8>>, &str)> = certs
        .iter()
        .map(|cert| {
            let issued = cert.issuer != cert.subject;
            let chain = match cas.get(&cert.issuer) {
                Some(ca) if issued && !cert.is_ca() && rng.unit() < CHAIN_SHARE => {
                    vec![ca.to_der().to_vec()]
                }
                _ => Vec::new(),
            };
            let op = if rng.unit() < 0.5 {
                "classify"
            } else {
                "validate"
            };
            (cert, chain, op)
        })
        .collect();
    // Fisher-Yates with the seed, then number and render in send order.
    for i in (1..drawn.len()).rev() {
        let j = rng.below(i + 1);
        drawn.swap(i, j);
    }
    drawn
        .into_iter()
        .enumerate()
        .map(|(i, (cert, chain, op))| {
            let id = i.to_string();
            let mut line = format!(
                r#"{{"op":"{op}","id":"{id}","cert":"{}""#,
                hex(cert.to_der())
            );
            if !chain.is_empty() {
                let hexes: Vec<String> = chain.iter().map(|c| format!("\"{}\"", hex(c))).collect();
                line.push_str(&format!(r#","chain":[{}]"#, hexes.join(",")));
            }
            line.push('}');
            Frame {
                line,
                id,
                der: cert.to_der().to_vec(),
                chain,
            }
        })
        .collect()
}

/// The validator `repro serve` builds for the same world: the trust
/// store plus the brands' intermediates.
pub fn validator(seed: u64) -> Validator {
    let eco = silentcert_sim::certgen::CaEcosystem::generate(&world(seed));
    let mut v = Validator::new(TrustStore::from_roots(eco.roots.clone()));
    for brand in &eco.brands {
        v.add_intermediate(&brand.intermediate);
    }
    v
}

/// The answer `Validator::classify` gives a frame in-process.
pub fn expected(v: &Validator, frame: &Frame) -> Classification {
    let chain: Vec<Certificate> = frame
        .chain
        .iter()
        .map(|der| Certificate::from_der(der).expect("presented chains are well-formed"))
        .collect();
    v.classify_der(&frame.der, &chain)
}

/// Properties of the requests a workload sent.
#[derive(Debug, Clone, Default)]
pub struct Properties {
    pub requests: usize,
    /// Requests whose certificate (with its chain) was sent before.
    pub repeat_share: f64,
    pub valid_share: f64,
    pub self_signed_share: f64,
    pub parse_failure_share: f64,
    pub chain_share: f64,
    pub mean_frame_bytes: f64,
}

/// Describe a request sequence (`order` indexes `frames`) given each
/// frame's expected classification; `skip` leading requests are warm-up,
/// counted as seen but not described.
pub fn properties(
    frames: &[Frame],
    expect: &[Option<Classification>],
    order: &[u32],
    skip: usize,
) -> Properties {
    let mut seen = std::collections::HashSet::new();
    let mut p = Properties::default();
    let (mut repeats, mut valid, mut selfs, mut parse, mut chained, mut bytes) =
        (0usize, 0usize, 0usize, 0usize, 0usize, 0usize);
    for (k, &i) in order.iter().enumerate() {
        let fresh = seen.insert(i);
        if k < skip {
            continue;
        }
        let f = &frames[i as usize];
        p.requests += 1;
        repeats += usize::from(!fresh);
        chained += usize::from(!f.chain.is_empty());
        bytes += f.line.len() + 1;
        match &expect[i as usize] {
            Some(Classification::Valid { .. }) => valid += 1,
            Some(Classification::Invalid(InvalidityReason::SelfSigned)) => selfs += 1,
            Some(Classification::Invalid(InvalidityReason::ParseFailure)) => parse += 1,
            _ => {}
        }
    }
    let n = p.requests.max(1) as f64;
    p.repeat_share = repeats as f64 / n;
    p.valid_share = valid as f64 / n;
    p.self_signed_share = selfs as f64 / n;
    p.parse_failure_share = parse as f64 / n;
    p.chain_share = chained as f64 / n;
    p.mean_frame_bytes = bytes as f64 / n;
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_per_seed_and_has_no_repeats() {
        let a = build(11);
        let b = build(11);
        assert!(a.len() > 20_000, "{}", a.len());
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.line == y.line));
        // No certificate (with its chain) appears twice, so a cache-miss
        // run that sends each frame once never repeats a cache key.
        let mut keys = std::collections::HashSet::new();
        for f in &a {
            assert!(
                keys.insert((f.der.clone(), f.chain.clone())),
                "repeat: {}",
                f.id
            );
        }
        let c = build(12);
        assert_ne!(a[0].line, c[0].line);
        // Some CA-issued leaves carry a presented chain, most frames not.
        let chained = a.iter().filter(|f| !f.chain.is_empty()).count();
        assert!(chained > 0 && chained < a.len() / 2, "{chained}");
    }

    #[test]
    fn frames_parse_as_the_daemon_parses_them() {
        let corpus = build(11);
        let v = validator(11);
        for f in corpus.iter().take(500) {
            let req = silentcert_serve::protocol::parse_request(&f.line).unwrap();
            assert_eq!(req.der, f.der);
            assert_eq!(req.chain.len(), f.chain.len());
            assert!(silentcert_serve::protocol::fast_scan(&f.line).is_some());
            let _ = expected(&v, f);
        }
    }
}
