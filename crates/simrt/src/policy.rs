//! Synchronization policies and the co-simulation configuration.

use hieradmo_netsim::{Architecture, FaultPlan, NetworkEnv};
use hieradmo_topology::TierTree;

/// When an aggregation round is allowed to fire, given that uploads now
/// arrive at different virtual times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncPolicy {
    /// Every round waits for *all* of its children — the paper's barrier
    /// semantics. The model trajectory is bitwise identical to
    /// [`hieradmo_core::run`]; only the (now honest) time axis differs.
    FullSync,
    /// Semi-synchronous: a round fires as soon as either everyone has
    /// arrived, or at least `ceil(quorum · n)` children have arrived *and*
    /// `timeout_ms` of virtual time has passed since the round's first
    /// arrival. Stragglers' uploads carry over into the next round; the
    /// aggregation hook sees their staleness and may down-weight them
    /// (see `Strategy::edge_aggregate_stale`).
    Deadline {
        /// Fraction of children required before the timeout can fire the
        /// round, in `(0, 1]`.
        quorum: f64,
        /// Virtual milliseconds after the round's first arrival at which a
        /// quorum is allowed to proceed without the stragglers.
        timeout_ms: f64,
    },
    /// Asynchronous with an age bound: a round fires on every arrival,
    /// merging whatever has arrived since the previous firing — unless some
    /// absent child's server-side state is already `max_staleness` rounds
    /// old, in which case the round waits for that child (bounded-staleness
    /// async in the FedBuff/FedAsync tradition).
    AsyncAge {
        /// Maximum tolerated age, in rounds, of any merged child state.
        max_staleness: usize,
    },
}

impl SyncPolicy {
    /// Validates the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SyncPolicy::FullSync => Ok(()),
            SyncPolicy::Deadline { quorum, timeout_ms } => {
                if !(quorum > 0.0 && quorum <= 1.0) {
                    return Err(format!("deadline quorum must be in (0, 1], got {quorum}"));
                }
                if !(timeout_ms.is_finite() && timeout_ms > 0.0) {
                    return Err(format!(
                        "deadline timeout must be positive and finite, got {timeout_ms}"
                    ));
                }
                Ok(())
            }
            SyncPolicy::AsyncAge { max_staleness } => {
                if max_staleness == 0 {
                    return Err("async max_staleness must be at least 1".to_string());
                }
                Ok(())
            }
        }
    }

    /// Validates the policy against a concrete child count `n`: everything
    /// in [`SyncPolicy::validate`], plus the requirement that a
    /// `Deadline` quorum not round `ceil(quorum · n)` down to zero — a
    /// zero-child quorum would let rounds fire with no contributions at
    /// all (and panics the runtime's clamp for `n == 0`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate_for_children(&self, n: usize) -> Result<(), String> {
        self.validate()?;
        if let SyncPolicy::Deadline { quorum, .. } = *self {
            let count = (quorum * n as f64).ceil();
            if count < 1.0 {
                return Err(format!(
                    "deadline quorum {quorum} rounds ceil(quorum * n) to {count} \
                     for n = {n} children; the effective quorum must be at least \
                     1 child"
                ));
            }
        }
        Ok(())
    }

    /// A short human-readable label, used in exports and report tables.
    pub fn label(&self) -> String {
        match *self {
            SyncPolicy::FullSync => "full-sync".to_string(),
            SyncPolicy::Deadline { quorum, timeout_ms } => {
                format!("deadline(q={quorum},{timeout_ms}ms)")
            }
            SyncPolicy::AsyncAge { max_staleness } => format!("async(age<={max_staleness})"),
        }
    }
}

/// `ceil(quorum · n)`, clamped to `[1, n]`.
pub(crate) fn quorum_count(quorum: f64, n: usize) -> usize {
    ((quorum * n as f64).ceil() as usize).clamp(1, n)
}

/// One tier's round-collection state under a [`SyncPolicy`]: the single
/// copy of the firing rule, of the staleness an aggregation hook sees and
/// of the AsyncAge age bookkeeping. Both event engines drive their edge
/// and cloud tiers through it.
///
/// A barrier does not know why a child may never arrive: the engine hands
/// [`Barrier::ready`] its waiver predicate, and handles late arrivals
/// itself (refreshing them with [`Barrier::refresh`]).
pub(crate) struct Barrier {
    /// Which children have arrived for the round being collected.
    arrived: Vec<bool>,
    /// How many children have arrived.
    have: usize,
    /// The last round whose upload refreshed each child's slot
    /// ([`SyncPolicy::Deadline`] staleness).
    last: Vec<usize>,
    /// Firings since each child last took part ([`SyncPolicy::AsyncAge`]).
    age: Vec<usize>,
    /// The round's Deadline timer has expired.
    timed_out: bool,
    /// The staleness vector handed to the aggregation hooks, reused
    /// across firings.
    stale: Vec<usize>,
}

impl Barrier {
    /// A barrier over `children` children whose slots were all last
    /// refreshed by round `last_round`.
    pub(crate) fn new(children: usize, last_round: usize) -> Self {
        Barrier {
            arrived: vec![false; children],
            have: 0,
            last: vec![last_round; children],
            age: vec![0; children],
            timed_out: false,
            stale: vec![0; children],
        }
    }

    /// Number of children.
    pub(crate) fn children(&self) -> usize {
        self.arrived.len()
    }

    /// Number of children that have arrived for the current round.
    pub(crate) fn have(&self) -> usize {
        self.have
    }

    /// Whether child `j` has arrived for the current round.
    pub(crate) fn arrived(&self, j: usize) -> bool {
        self.arrived[j]
    }

    /// Child `j`'s upload for `round` refreshed its slot, in time or not.
    pub(crate) fn refresh(&mut self, j: usize, round: usize) {
        self.last[j] = round;
        self.age[j] = 0;
    }

    /// Child `j`'s upload for `round` arrived in time for the round being
    /// collected. Returns whether it is the round's first arrival — where
    /// a Deadline timer starts.
    pub(crate) fn arrive(&mut self, j: usize, round: usize) -> bool {
        self.refresh(j, round);
        let first = self.have == 0;
        if !self.arrived[j] {
            self.arrived[j] = true;
            self.have += 1;
        }
        first
    }

    /// The round's Deadline timer expired.
    pub(crate) fn expire(&mut self) {
        self.timed_out = true;
    }

    /// Every child's slot now dates from `round` (children that are
    /// re-created each round carry their state over from the last one).
    pub(crate) fn restart(&mut self, round: usize) {
        self.last.fill(round);
    }

    /// Whether the round fires now. `waived(j)` says that absent child `j`
    /// will not arrive and must not hold the round up; `live` below is the
    /// child count less the waived absentees.
    ///
    /// - [`SyncPolicy::FullSync`]: every live child has arrived (at least
    ///   one).
    /// - [`SyncPolicy::Deadline`]: every live child has arrived, or the
    ///   timer expired with at least `ceil(quorum · live)` arrivals — so a
    ///   waived minority can never deadlock a round.
    /// - [`SyncPolicy::AsyncAge`]: anything has arrived, and no absent,
    ///   non-waived child is already `max_staleness` firings old.
    pub(crate) fn ready(&self, policy: SyncPolicy, waived: impl Fn(usize) -> bool) -> bool {
        if self.have == 0 {
            return false;
        }
        let mut absent = (0..self.arrived.len()).filter(|&j| !self.arrived[j]);
        match policy {
            SyncPolicy::FullSync => absent.all(waived),
            SyncPolicy::Deadline { quorum, .. } => {
                let live = self.have + absent.filter(|&j| !waived(j)).count();
                self.have == live || (self.timed_out && self.have >= quorum_count(quorum, live))
            }
            SyncPolicy::AsyncAge { max_staleness } => {
                !absent.any(|j| self.age[j] >= max_staleness && !waived(j))
            }
        }
    }

    /// The per-child staleness the aggregation hooks see when the round
    /// fires as round `round`: all zero under [`SyncPolicy::FullSync`],
    /// rounds since the last refresh under [`SyncPolicy::Deadline`], and
    /// the age under [`SyncPolicy::AsyncAge`].
    pub(crate) fn staleness(&mut self, policy: SyncPolicy, round: usize) -> &[usize] {
        match policy {
            SyncPolicy::FullSync => self.stale.fill(0),
            SyncPolicy::Deadline { .. } => {
                for (s, &l) in self.stale.iter_mut().zip(&self.last) {
                    *s = round.saturating_sub(l);
                }
            }
            SyncPolicy::AsyncAge { .. } => self.stale.copy_from_slice(&self.age),
        }
        &self.stale
    }

    /// Closes the round: returns the children that took part, clears the
    /// arrivals and the timer, and (under [`SyncPolicy::AsyncAge`]) ages
    /// every absent child by one firing.
    pub(crate) fn close(&mut self, policy: SyncPolicy) -> Vec<usize> {
        let participants: Vec<usize> = (0..self.arrived.len())
            .filter(|&j| self.arrived[j])
            .collect();
        if let SyncPolicy::AsyncAge { .. } = policy {
            for (a, &arrived) in self.age.iter_mut().zip(&self.arrived) {
                *a = if arrived { 0 } else { *a + 1 };
            }
        }
        self.arrived.fill(false);
        self.have = 0;
        self.timed_out = false;
        participants
    }
}

/// Everything [`crate::simulate`] needs beyond the training inputs: the
/// emulated testbed, the communication pattern, payload sizes, the network
/// RNG seed, and the synchronization policy.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Device compute profiles and link profiles.
    pub env: NetworkEnv,
    /// Which hops the traffic takes. [`Architecture::TwoTier`] charges
    /// worker ↔ cloud transfers (all workers sharing the link) and no edge
    /// compute; [`Architecture::ThreeTier`] charges worker ↔ edge and
    /// edge ↔ cloud hops plus edge aggregation compute.
    pub architecture: Architecture,
    /// Serialized model bytes per upload.
    pub upload_bytes: u64,
    /// Serialized model bytes per download.
    pub download_bytes: u64,
    /// Master seed for the per-actor delay streams. Independent of the
    /// training seed in `RunConfig`, so the same trajectory can be timed
    /// under many network draws.
    pub net_seed: u64,
    /// The synchronization policy.
    pub policy: SyncPolicy,
    /// What goes wrong during the run. The empty plan (the default)
    /// injects nothing and leaves the simulation bitwise identical to a
    /// fault-free run; see [`hieradmo_netsim::FaultPlan`].
    pub faults: FaultPlan,
    /// Optional N-tier topology. `None` (the default) is the classic
    /// three-tier worker/edge/cloud arrangement. When set, middle tiers
    /// are co-hosted at the cloud actor (no extra network hops, so delay
    /// streams match the three-tier run draw for draw) and fire bottom-up
    /// at their interval boundaries, through
    /// `Strategy::tier_aggregate_stale` with per-subtree staleness — so
    /// depth ≥ 4 runs under every [`SyncPolicy`], with stale subtree
    /// edges carried over at bounded age (DESIGN §14).
    pub tiers: Option<TierTree>,
}

impl SimConfig {
    /// A config with symmetric `payload_bytes` uploads and downloads and
    /// no fault injection.
    pub fn new(
        env: NetworkEnv,
        architecture: Architecture,
        payload_bytes: u64,
        net_seed: u64,
        policy: SyncPolicy,
    ) -> Self {
        SimConfig {
            env,
            architecture,
            upload_bytes: payload_bytes,
            download_bytes: payload_bytes,
            net_seed,
            policy,
            faults: FaultPlan::none(),
            tiers: None,
        }
    }

    /// Attaches a fault plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches an N-tier topology (builder style); see
    /// [`SimConfig::tiers`].
    pub fn with_tiers(mut self, tiers: TierTree) -> Self {
        self.tiers = Some(tiers);
        self
    }

    /// Validates the whole co-simulation configuration: payload sizes,
    /// the policy (against the per-edge child count `workers_per_edge`
    /// when known), and the fault plan.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self, workers_per_edge: Option<usize>) -> Result<(), String> {
        if self.upload_bytes == 0 {
            return Err("upload_bytes must be positive".to_string());
        }
        if self.download_bytes == 0 {
            return Err("download_bytes must be positive".to_string());
        }
        match workers_per_edge {
            Some(n) => self.policy.validate_for_children(n)?,
            None => self.policy.validate()?,
        }
        self.faults.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_count_ceils_and_clamps() {
        assert_eq!(quorum_count(0.5, 4), 2);
        assert_eq!(quorum_count(0.5, 3), 2);
        assert_eq!(quorum_count(0.01, 4), 1);
        assert_eq!(quorum_count(1.0, 4), 4);
        assert_eq!(quorum_count(0.0, 4), 1, "clamped to at least one");
    }

    const DEADLINE: SyncPolicy = SyncPolicy::Deadline {
        quorum: 0.5,
        timeout_ms: 100.0,
    };
    const ASYNC: SyncPolicy = SyncPolicy::AsyncAge { max_staleness: 2 };

    #[test]
    fn barrier_fires_full_sync_once_every_live_child_arrived() {
        let mut b = Barrier::new(3, 0);
        assert!(!b.ready(SyncPolicy::FullSync, |_| true), "nothing arrived");
        assert!(b.arrive(1, 1), "first arrival");
        assert!(!b.arrive(0, 1));
        assert!(!b.ready(SyncPolicy::FullSync, |_| false));
        assert!(b.ready(SyncPolicy::FullSync, |j| j == 2), "child 2 waived");
        b.arrive(2, 1);
        assert!(b.ready(SyncPolicy::FullSync, |_| false));
        assert_eq!(b.staleness(SyncPolicy::FullSync, 1), &[0, 0, 0]);
        assert_eq!(b.close(SyncPolicy::FullSync), vec![0, 1, 2]);
        assert_eq!(b.have(), 0);
    }

    #[test]
    fn barrier_deadline_quorum_counts_only_live_children() {
        let mut b = Barrier::new(4, 0);
        b.arrive(0, 1);
        assert!(!b.ready(DEADLINE, |_| false), "timer still running");
        b.expire();
        assert!(!b.ready(DEADLINE, |_| false), "1 of 4 is below quorum 2");
        assert!(b.ready(DEADLINE, |j| j >= 2), "1 of 2 live meets quorum 1");
        b.arrive(1, 1);
        assert!(b.ready(DEADLINE, |_| false));
        // Child 2 last refreshed in round 0; child 3 arrived late for 1.
        b.refresh(3, 1);
        assert_eq!(b.staleness(DEADLINE, 2), &[1, 1, 2, 1]);
        assert_eq!(b.close(DEADLINE), vec![0, 1]);
        assert!(!b.ready(DEADLINE, |_| false), "close clears arrivals");
        b.arrive(0, 2);
        assert!(!b.ready(DEADLINE, |j| j > 1), "close clears the timer");
        b.restart(5);
        assert_eq!(b.staleness(DEADLINE, 6), &[1, 1, 1, 1]);
    }

    #[test]
    fn barrier_async_age_blocks_on_an_old_absent_child_unless_waived() {
        let mut b = Barrier::new(2, 0);
        for firing in 1..=2 {
            b.arrive(0, firing);
            assert!(b.ready(ASYNC, |_| false), "child 1 is young");
            assert_eq!(b.staleness(ASYNC, firing), &[0, firing - 1]);
            assert_eq!(b.close(ASYNC), vec![0]);
        }
        b.arrive(0, 3);
        assert!(!b.ready(ASYNC, |_| false), "child 1 is max_staleness old");
        assert!(b.ready(ASYNC, |j| j == 1), "unless it is waived");
        b.arrive(1, 3);
        assert!(b.ready(ASYNC, |_| false));
        assert_eq!(b.staleness(ASYNC, 3), &[0, 0]);
        assert_eq!(b.close(ASYNC), vec![0, 1]);
        b.arrive(1, 4);
        assert_eq!(
            b.staleness(ASYNC, 4),
            &[0, 0],
            "a full firing resets every age"
        );
        b.close(ASYNC);
        b.arrive(1, 5);
        assert_eq!(b.staleness(ASYNC, 5), &[1, 0]);
    }

    #[test]
    fn full_sync_always_validates() {
        assert!(SyncPolicy::FullSync.validate().is_ok());
        assert_eq!(SyncPolicy::FullSync.label(), "full-sync");
    }

    #[test]
    fn deadline_rejects_bad_quorum_and_timeout() {
        let ok = SyncPolicy::Deadline {
            quorum: 0.5,
            timeout_ms: 100.0,
        };
        assert!(ok.validate().is_ok());
        assert!(ok.label().contains("deadline"));
        for (q, t) in [(0.0, 100.0), (1.5, 100.0), (0.5, 0.0), (0.5, f64::NAN)] {
            let bad = SyncPolicy::Deadline {
                quorum: q,
                timeout_ms: t,
            };
            assert!(bad.validate().is_err(), "q={q} t={t} should be rejected");
        }
    }

    #[test]
    fn async_rejects_zero_staleness() {
        assert!(SyncPolicy::AsyncAge { max_staleness: 0 }
            .validate()
            .is_err());
        let ok = SyncPolicy::AsyncAge { max_staleness: 3 };
        assert!(ok.validate().is_ok());
        assert_eq!(ok.label(), "async(age<=3)");
    }

    #[test]
    fn deadline_quorum_rounding_to_zero_children_is_rejected() {
        let p = SyncPolicy::Deadline {
            quorum: 0.5,
            timeout_ms: 100.0,
        };
        assert!(p.validate_for_children(4).is_ok());
        assert!(p.validate_for_children(1).is_ok(), "ceil(0.5) = 1");
        // Any positive quorum with zero children rounds to zero — the
        // degenerate case the plain validate() cannot see.
        let err = p.validate_for_children(0).unwrap_err();
        assert!(
            err.contains("at least") && err.contains("1 child"),
            "error must document the >= 1 child requirement: {err}"
        );
        assert!(SyncPolicy::FullSync.validate_for_children(0).is_ok());
    }

    #[test]
    fn sim_config_validate_checks_payloads_policy_and_faults() {
        let base = || {
            SimConfig::new(
                NetworkEnv::paper_testbed(2),
                Architecture::ThreeTier,
                50_000,
                7,
                SyncPolicy::FullSync,
            )
        };
        assert!(base().validate(Some(2)).is_ok());

        let mut cfg = base();
        cfg.upload_bytes = 0;
        assert!(cfg.validate(Some(2)).is_err());

        let mut cfg = base();
        cfg.download_bytes = 0;
        assert!(cfg.validate(None).is_err());

        let mut cfg = base();
        cfg.policy = SyncPolicy::Deadline {
            quorum: 0.5,
            timeout_ms: 100.0,
        };
        assert!(cfg.validate(Some(2)).is_ok());
        assert!(cfg.validate(Some(0)).is_err(), "quorum rounds to zero");

        let mut cfg = base();
        cfg.faults = FaultPlan {
            crash: Some(hieradmo_netsim::CrashProfile {
                per_step: 1.0,
                min_downtime_ms: 1.0,
                max_downtime_ms: 2.0,
            }),
            ..FaultPlan::none()
        };
        assert!(cfg.validate(Some(2)).is_err(), "bad fault plan");
    }

    #[test]
    fn deep_tier_trees_validate_under_every_policy() {
        use hieradmo_topology::{TierSpec, TierTree};
        let deep = TierTree::new(vec![
            TierSpec::new(2, 2),
            TierSpec::new(2, 2),
            TierSpec::new(2, 5),
        ])
        .unwrap();
        let base = |policy| {
            SimConfig::new(
                NetworkEnv::paper_testbed(2),
                Architecture::ThreeTier,
                50_000,
                7,
                policy,
            )
        };
        // Middle tiers have staleness semantics (tier_aggregate_stale with
        // bounded-age carry-over), so depth ≥ 4 validates under every
        // policy — the former FullSync-only gate is gone.
        for policy in [
            SyncPolicy::FullSync,
            SyncPolicy::Deadline {
                quorum: 0.5,
                timeout_ms: 100.0,
            },
            SyncPolicy::AsyncAge { max_staleness: 3 },
        ] {
            let cfg = base(policy).with_tiers(deep.clone());
            assert!(
                cfg.validate(Some(2)).is_ok(),
                "depth-4 must validate under {}",
                cfg.policy.label()
            );
        }
        let cfg = base(SyncPolicy::AsyncAge { max_staleness: 3 })
            .with_tiers(TierTree::three_tier(2, 2, 5, 2));
        assert!(cfg.validate(Some(2)).is_ok());
    }

    #[test]
    fn sim_config_uses_symmetric_payloads() {
        let cfg = SimConfig::new(
            NetworkEnv::paper_testbed(2),
            Architecture::ThreeTier,
            50_000,
            7,
            SyncPolicy::FullSync,
        );
        assert_eq!(cfg.upload_bytes, 50_000);
        assert_eq!(cfg.download_bytes, 50_000);
        assert_eq!(cfg.net_seed, 7);
    }
}
