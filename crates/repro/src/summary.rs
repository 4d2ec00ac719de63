//! Machine-readable run summary (`repro summary`), serialized as pretty
//! JSON with its fields in declaration order.

use crate::experiments::Context;
use silentcert_core::{compare, evaluate, tracking};

/// Key metrics of a run, mirroring EXPERIMENTS.md's headline rows.
#[derive(Debug)]
pub struct Summary {
    pub seed: u64,
    pub scans: usize,
    pub unique_certificates: usize,
    pub observations: usize,
    pub invalid_fraction: f64,
    pub self_signed_fraction: f64,
    pub untrusted_fraction: f64,
    pub per_scan_invalid_mean: f64,
    pub invalid_negative_validity_fraction: f64,
    pub invalid_median_validity_days: f64,
    pub invalid_median_lifetime_days: f64,
    pub invalid_single_scan_fraction: f64,
    pub invalid_key_shared_fraction: f64,
    pub largest_key_share: f64,
    pub dedup_excluded_fraction: f64,
    pub linked_certificates: usize,
    pub linked_groups: usize,
    pub linking_precision: f64,
    pub trackable_before: usize,
    pub trackable_after: usize,
    pub tracked_as_changers: usize,
    pub bulk_transfer_events: usize,
    pub static_as_fraction_at_90: f64,
}

silentcert_obs::json_object!(Summary {
    seed,
    scans,
    unique_certificates,
    observations,
    invalid_fraction,
    self_signed_fraction,
    untrusted_fraction,
    per_scan_invalid_mean,
    invalid_negative_validity_fraction,
    invalid_median_validity_days,
    invalid_median_lifetime_days,
    invalid_single_scan_fraction,
    invalid_key_shared_fraction,
    largest_key_share,
    dedup_excluded_fraction,
    linked_certificates,
    linked_groups,
    linking_precision,
    trackable_before,
    trackable_after,
    tracked_as_changers,
    bulk_transfer_events,
    static_as_fraction_at_90
});

impl Summary {
    /// Compute the summary from a prepared context.
    pub fn compute(ctx: &Context, seed: u64) -> Summary {
        let d = &ctx.sim.dataset;
        let h = compare::headline(d);
        let vp = compare::validity_periods(d);
        let le = compare::lifetime_ecdfs(d, &ctx.lifetimes);
        let (key_inv, _) = compare::key_sharing(d);
        let score = ctx.sim.truth.score_linking(&ctx.link.groups);
        let t = tracking::trackable(
            d,
            &ctx.lifetimes,
            &ctx.invalid_unique,
            &ctx.entities,
            &ctx.index,
            ctx.track_min_days,
        );
        let min_bulk = (ctx.entities.len() / 20_000).clamp(3, 50);
        let m = tracking::movement(d, &ctx.entities, &ctx.index, ctx.track_min_days, min_bulk);
        let min_devices = (ctx.entities.len() / 70_000).clamp(4, 10);
        let r = tracking::reassignment(
            d,
            &ctx.entities,
            &ctx.index,
            ctx.track_min_days,
            min_devices,
            0.75,
        );
        let _: &evaluate::IterativeLinkResult = &ctx.link;
        Summary {
            seed,
            scans: d.scans.len(),
            unique_certificates: d.certs.len(),
            observations: d.len(),
            invalid_fraction: h.overall_invalid_fraction(),
            self_signed_fraction: h.self_signed_fraction,
            untrusted_fraction: h.untrusted_fraction,
            per_scan_invalid_mean: h.per_scan_invalid_mean,
            invalid_negative_validity_fraction: vp.invalid_negative_fraction,
            invalid_median_validity_days: vp.invalid.median(),
            invalid_median_lifetime_days: le.invalid.median(),
            invalid_single_scan_fraction: le.invalid_single_scan_fraction,
            invalid_key_shared_fraction: key_inv.shared_fraction(),
            largest_key_share: key_inv.largest_group_fraction(),
            dedup_excluded_fraction: 1.0
                - ctx.invalid_unique.len() as f64 / ctx.invalid_all.len().max(1) as f64,
            linked_certificates: ctx.link.linked_certs(),
            linked_groups: ctx.link.groups.len(),
            linking_precision: score.precision(),
            trackable_before: t.before_linking,
            trackable_after: t.after_linking,
            tracked_as_changers: m.changed_as,
            bulk_transfer_events: m.transfers.len(),
            static_as_fraction_at_90: r.fraction_above(0.9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silentcert_obs::json::to_string_pretty;

    /// Pins `repro summary`'s stdout layout: field order, two-space
    /// indent, integers above 2^53 exact, NaN as `null`, `-0`, and
    /// `f64` digits as Rust's `Display` prints them.
    #[test]
    fn summary_layout_is_pinned() {
        let s = Summary {
            seed: 9_007_199_254_740_993,
            scans: 12,
            unique_certificates: 2048,
            observations: 40000,
            invalid_fraction: 0.875,
            self_signed_fraction: 0.1 + 0.2,
            untrusted_fraction: 1.0,
            per_scan_invalid_mean: 0.6543210987654321,
            invalid_negative_validity_fraction: 0.0,
            invalid_median_validity_days: 7300.0,
            invalid_median_lifetime_days: f64::NAN,
            invalid_single_scan_fraction: 1e-9,
            invalid_key_shared_fraction: 0.47,
            largest_key_share: 123456789.125,
            dedup_excluded_fraction: -0.0,
            linked_certificates: 0,
            linked_groups: 1,
            linking_precision: 0.99,
            trackable_before: 3,
            trackable_after: 4,
            tracked_as_changers: 5,
            bulk_transfer_events: 6,
            static_as_fraction_at_90: 2.5e-300,
        };
        let expected = r#"{
  "seed": 9007199254740993,
  "scans": 12,
  "unique_certificates": 2048,
  "observations": 40000,
  "invalid_fraction": 0.875,
  "self_signed_fraction": 0.30000000000000004,
  "untrusted_fraction": 1,
  "per_scan_invalid_mean": 0.6543210987654321,
  "invalid_negative_validity_fraction": 0,
  "invalid_median_validity_days": 7300,
  "invalid_median_lifetime_days": null,
  "invalid_single_scan_fraction": 0.000000001,
  "invalid_key_shared_fraction": 0.47,
  "largest_key_share": 123456789.125,
  "dedup_excluded_fraction": -0,
  "linked_certificates": 0,
  "linked_groups": 1,
  "linking_precision": 0.99,
  "trackable_before": 3,
  "trackable_after": 4,
  "tracked_as_changers": 5,
  "bulk_transfer_events": 6,
  "static_as_fraction_at_90": 0.0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000025
}"#;
        assert_eq!(to_string_pretty(&s), expected);
    }
}
