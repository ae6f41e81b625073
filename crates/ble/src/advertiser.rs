//! The advertising state machine.
//!
//! Spec (v4.2 Vol 6 Part B §4.4.2): advertising events recur every
//! `advInterval + advDelay`, where `advDelay` is a fresh pseudo-random
//! 0–10 ms value per event. Within one event the advertiser transmits the
//! same PDU on each enabled advertising channel in order 37 → 38 → 39,
//! a few hundred µs apart. Paper §2.2 adds the duty-cycle limits LocBLE
//! assumes: ≥100 ms intervals for non-connectable beacons, ≥20 ms for
//! connectable ones; the paper's evaluation configures beacons "to
//! broadcast at 10 Hz" (§7.2), i.e. a 100 ms interval.

use crate::pdu::PduType;
use crate::BeaconId;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Configuration of one advertiser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvertiserConfig {
    /// Nominal advertising interval, seconds.
    pub interval_s: f64,
    /// Maximum pseudo-random advDelay added per event, seconds
    /// (spec: 10 ms).
    pub max_adv_delay_s: f64,
    /// PDU type (determines connectability and the minimum legal
    /// interval).
    pub pdu_type: PduType,
    /// Per-channel gap within one event, seconds (~400 µs on air).
    pub channel_gap_s: f64,
}

impl AdvertiserConfig {
    /// The paper's evaluation setup: non-connectable at 10 Hz.
    pub fn paper_default() -> Self {
        AdvertiserConfig {
            interval_s: 0.100,
            max_adv_delay_s: 0.010,
            pdu_type: PduType::AdvNonconnInd,
            channel_gap_s: 0.0004,
        }
    }

    /// The minimum legal interval for this PDU type (paper §2.2).
    pub fn min_interval_s(&self) -> f64 {
        if self.pdu_type.is_connectable() {
            0.020
        } else {
            0.100
        }
    }

    /// Validates the configuration against the spec limits.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval_s < self.min_interval_s() {
            return Err(format!(
                "interval {:.3}s below the {:.3}s minimum for {:?}",
                self.interval_s,
                self.min_interval_s(),
                self.pdu_type
            ));
        }
        if !(0.0..=0.010 + 1e-12).contains(&self.max_adv_delay_s) {
            return Err("advDelay must be within 0-10 ms".into());
        }
        if self.channel_gap_s < 0.0 {
            return Err("channel gap must be non-negative".into());
        }
        Ok(())
    }
}

/// One on-air advertisement transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvEvent {
    /// Transmission time, seconds.
    pub t: f64,
    /// Advertising channel (37, 38, or 39).
    pub channel: u8,
    /// Which beacon transmitted.
    pub beacon: BeaconId,
}

/// A running advertiser producing timed channel transmissions.
#[derive(Debug, Clone)]
pub struct Advertiser {
    config: AdvertiserConfig,
    beacon: BeaconId,
    rng: StdRng,
    next_event_start: f64,
}

impl Advertiser {
    /// Creates an advertiser; the first event fires at a random phase
    /// within one interval (beacons are not synchronized).
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(config: AdvertiserConfig, beacon: BeaconId, seed: u64) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid advertiser config: {e}"));
        let mut rng = StdRng::seed_from_u64(seed);
        let phase = rng.random::<f64>() * config.interval_s;
        Advertiser {
            config,
            beacon,
            rng,
            next_event_start: phase,
        }
    }

    /// The beacon this advertiser belongs to.
    pub fn beacon(&self) -> BeaconId {
        self.beacon
    }

    /// Generates all transmissions with `t < until_s`, in time order.
    pub fn events_until(&mut self, until_s: f64) -> Vec<AdvEvent> {
        let mut events = Vec::new();
        while self.next_event_start < until_s {
            let start = self.next_event_start;
            for (k, ch) in [37u8, 38, 39].into_iter().enumerate() {
                events.push(AdvEvent {
                    t: start + k as f64 * self.config.channel_gap_s,
                    channel: ch,
                    beacon: self.beacon,
                });
            }
            let delay = self.rng.random::<f64>() * self.config.max_adv_delay_s;
            self.next_event_start = start + self.config.interval_s + delay;
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adv(seed: u64) -> Advertiser {
        Advertiser::new(AdvertiserConfig::paper_default(), BeaconId(1), seed)
    }

    #[test]
    fn three_channels_per_event_in_order() {
        let mut a = adv(1);
        let events = a.events_until(1.0);
        assert!(events.len().is_multiple_of(3));
        for chunk in events.chunks(3) {
            assert_eq!(chunk[0].channel, 37);
            assert_eq!(chunk[1].channel, 38);
            assert_eq!(chunk[2].channel, 39);
            assert!(chunk[0].t < chunk[1].t && chunk[1].t < chunk[2].t);
        }
    }

    #[test]
    fn rate_is_about_10hz_events() {
        let mut a = adv(2);
        let events = a.events_until(60.0);
        let n_events = events.len() / 3;
        // 100 ms + U(0,10) ms → mean period 105 ms → ~571 events/min.
        assert!(
            (540..=600).contains(&n_events),
            "got {n_events} events in 60 s"
        );
    }

    #[test]
    fn adv_delay_randomizes_periods() {
        let mut a = adv(3);
        let events = a.events_until(30.0);
        let starts: Vec<f64> = events.chunks(3).map(|c| c[0].t).collect();
        let periods: Vec<f64> = starts.windows(2).map(|w| w[1] - w[0]).collect();
        let min = periods.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = periods.iter().cloned().fold(0.0, f64::max);
        assert!(min >= 0.100 - 1e-9, "min period {min}");
        assert!(max <= 0.110 + 1e-9, "max period {max}");
        assert!(max - min > 0.002, "periods should be jittered");
    }

    #[test]
    fn events_are_time_ordered_and_resumable() {
        let mut a = adv(4);
        let first = a.events_until(5.0);
        let second = a.events_until(10.0);
        let all: Vec<f64> = first.iter().chain(&second).map(|e| e.t).collect();
        assert!(all.windows(2).all(|w| w[0] <= w[1]));
        assert!(second.first().unwrap().t >= first.last().unwrap().t);
        assert!(second.last().unwrap().t < 10.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = adv(5);
        let mut b = adv(5);
        assert_eq!(a.events_until(10.0), b.events_until(10.0));
    }

    #[test]
    fn unsynchronized_phases_across_seeds() {
        let mut a = adv(6);
        let mut b = adv(7);
        let ta = a.events_until(1.0)[0].t;
        let tb = b.events_until(1.0)[0].t;
        assert_ne!(ta, tb);
    }

    #[test]
    #[should_panic(expected = "invalid advertiser config")]
    fn nonconnectable_interval_below_100ms_rejected() {
        let cfg = AdvertiserConfig {
            interval_s: 0.050,
            ..AdvertiserConfig::paper_default()
        };
        Advertiser::new(cfg, BeaconId(0), 0);
    }

    #[test]
    fn connectable_allows_20ms() {
        let cfg = AdvertiserConfig {
            interval_s: 0.020,
            pdu_type: PduType::AdvInd,
            ..AdvertiserConfig::paper_default()
        };
        assert!(cfg.validate().is_ok());
    }
}
