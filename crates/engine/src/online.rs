//! Online sessions with live competitive-ratio tracking.
//!
//! The paper's setting is inherently online: a power-managed processor
//! must decide, slot by slot, whether to stay awake without knowing
//! future arrivals. [`OnlineTracker`] is that loop made concrete — it
//! feeds revealed arrivals through a [`gaps_sim`] power policy's
//! incremental entry point ([`gaps_sim::OnlineRun`]), and on `finish`
//! solves the *revealed* instance offline through the ordinary
//! [`Engine::solve_request`] pipeline to report the realized
//! competitive ratio `online / offline`.
//!
//! Both front ends drive the identical tracker: the serve daemon's
//! `SESSION begin/arrive/step/end` verbs live, and `gaps batch
//! --replay-online <policy>` offline — which is what makes their ratio
//! lines bit-identical for the same arrival stream.
//!
//! The offline optimum comes for free from the router: every arrival
//! becomes a rigid unit job (`release == deadline == t`, strictly
//! increasing), so the revealed instance routes to the polynomial
//! `forced_chain` path and the power objective returns the exact
//! `active slots + α per wake-up` optimum at any stream length.

use crate::{check_alpha, BatchInstance, Engine, Objective};
use gaps_core::{Instance, Time};
use gaps_sim::policy::OnlineRun;
use gaps_sim::{NeverSleep, PowerPolicy, SleepImmediately, Timeout};

/// Largest idle span one `arrive`/`step` may walk. The tracker advances
/// slot by slot (the policy is consulted per slot), so an unbounded
/// jump would spin the session for an attacker-controlled while; real
/// gaps in this model are tiny multiples of α.
pub const MAX_ADVANCE: u64 = 1 << 20;

/// Resolve an online policy by its wire name. `clairvoyant` is
/// deliberately absent: it needs gap lookahead, which an online session
/// by definition cannot provide.
pub fn parse_online_policy(
    name: &str,
    alpha: u64,
) -> Result<Box<dyn PowerPolicy + Send + Sync>, String> {
    match name {
        "timeout" => Ok(Box::new(Timeout { threshold: alpha })),
        "sleep" | "sleep-immediately" => Ok(Box::new(SleepImmediately)),
        "never" | "never-sleep" => Ok(Box::new(NeverSleep)),
        "clairvoyant" => Err(
            "policy `clairvoyant` needs lookahead; it cannot run online \
             (choose timeout|sleep|never)"
                .to_string(),
        ),
        other => Err(format!(
            "unknown online policy {other:?} (choose timeout|sleep|never)"
        )),
    }
}

/// Point-in-time view of a session, echoed after every `arrive`/`step`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionState {
    /// First slot not yet revealed (next arrival must be ≥ this).
    pub frontier: Time,
    /// Is the simulated processor currently active?
    pub awake: bool,
    /// Online energy accrued so far.
    pub online_cost: u64,
    /// Arrivals revealed so far.
    pub jobs: usize,
}

/// Everything `SESSION end` (and one `--replay-online` line) reports.
#[derive(Clone, Debug, PartialEq)]
pub struct OnlineSummary {
    /// Policy wire name.
    pub policy: &'static str,
    /// Wake-up cost the ratio is measured against.
    pub alpha: u64,
    /// Arrivals revealed over the session.
    pub jobs: usize,
    /// Energy the online policy paid.
    pub online_cost: u64,
    /// Energy the offline optimum pays for the same revealed instance.
    pub offline_cost: u64,
}

impl OnlineSummary {
    /// Realized competitive ratio. An empty session (both costs zero)
    /// is ratio 1 by convention; `offline == 0` implies `online == 0`
    /// because the processor starts asleep and only jobs wake it.
    pub fn ratio(&self) -> f64 {
        if self.offline_cost == 0 {
            1.0
        } else {
            self.online_cost as f64 / self.offline_cost as f64
        }
    }

    /// The canonical single-line rendering both front ends emit. Fixed
    /// 4-decimal ratio so serve and replay output compare byte for
    /// byte.
    pub fn line(&self) -> String {
        format!(
            "policy={} alpha={} jobs={} online={} offline={} ratio={:.4}",
            self.policy,
            self.alpha,
            self.jobs,
            self.online_cost,
            self.offline_cost,
            self.ratio()
        )
    }
}

/// One online session: arrivals revealed one at a time, a policy
/// deciding sleep/wake per slot, and an offline solve at the end.
pub struct OnlineTracker {
    run: OnlineRun,
    alpha: u64,
    frontier: Time,
    arrivals: Vec<Time>,
}

impl OnlineTracker {
    /// Start a session under the named policy. Time begins at slot 0
    /// with the processor asleep. An alpha above [`crate::MAX_ALPHA`] is
    /// refused.
    pub fn new(policy_name: &str, alpha: u64) -> Result<OnlineTracker, String> {
        let alpha = check_alpha(alpha)?;
        let policy = parse_online_policy(policy_name, alpha)?;
        Ok(OnlineTracker {
            run: OnlineRun::new(policy, alpha),
            alpha,
            frontier: 0,
            arrivals: Vec::new(),
        })
    }

    /// Reveal the next arrival at slot `t`. Any slots between the
    /// frontier and `t` are walked as idle (the policy decides each),
    /// then the job runs. Arrivals must not precede the frontier —
    /// time only moves forward — and may not jump more than
    /// [`MAX_ADVANCE`] slots at once.
    pub fn arrive(&mut self, t: Time) -> Result<SessionState, String> {
        if t < self.frontier {
            return Err(format!(
                "arrival at t={t} is behind the frontier (next free slot is {})",
                self.frontier
            ));
        }
        let span = (t - self.frontier) as u64;
        if span > MAX_ADVANCE {
            return Err(format!(
                "arrival at t={t} jumps {span} idle slots past the frontier (cap {MAX_ADVANCE})"
            ));
        }
        for _ in 0..span {
            self.run.idle_slot();
        }
        self.run.job_slot();
        self.frontier = t + 1;
        self.arrivals.push(t);
        Ok(self.state())
    }

    /// Advance `n` revealed-idle slots with no arrival (e.g. trailing
    /// idleness before `end`).
    pub fn step(&mut self, n: u64) -> Result<SessionState, String> {
        if n > MAX_ADVANCE {
            return Err(format!("step of {n} slots exceeds the cap ({MAX_ADVANCE})"));
        }
        for _ in 0..n {
            self.run.idle_slot();
        }
        self.frontier += n as Time;
        Ok(self.state())
    }

    /// The session's current view.
    pub fn state(&self) -> SessionState {
        SessionState {
            frontier: self.frontier,
            awake: self.run.awake(),
            online_cost: self.run.cost(),
            jobs: self.arrivals.len(),
        }
    }

    /// The revealed arrival times, in order.
    pub fn arrivals(&self) -> &[Time] {
        &self.arrivals
    }

    /// Canonical wire name of the policy driving this session.
    pub fn policy_name(&self) -> &'static str {
        self.run.policy_name()
    }

    /// Close the session: solve the revealed instance offline through
    /// the engine (rigid unit jobs route to the exact polynomial
    /// `forced_chain` power path), record the realized ratio in the
    /// engine's metrics under the policy's name, and return the
    /// summary.
    pub fn finish(&self, engine: &Engine) -> Result<OnlineSummary, String> {
        let inst = Instance::from_windows(self.arrivals.iter().map(|&t| (t, t)), 1)
            .map_err(|e| format!("revealed instance is malformed: {e:?}"))?;
        let objective = Objective::Power { alpha: self.alpha };
        let outcome = engine.solve_request(&BatchInstance::One(inst), objective, false);
        let offline_cost = outcome
            .body
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("power="))
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| {
                format!(
                    "offline solve returned no power value for the revealed instance: {}",
                    outcome.body
                )
            })?;
        let summary = OnlineSummary {
            policy: self.run.policy_name(),
            alpha: self.alpha,
            jobs: self.arrivals.len(),
            online_cost: self.run.cost(),
            offline_cost,
        };
        engine
            .metrics()
            .record_session_ratio(summary.policy, summary.ratio());
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    #[test]
    fn policy_names_resolve_and_clairvoyant_is_refused() {
        for name in [
            "timeout",
            "sleep",
            "sleep-immediately",
            "never",
            "never-sleep",
        ] {
            assert!(parse_online_policy(name, 2).is_ok(), "{name}");
        }
        let err = parse_online_policy("clairvoyant", 2)
            .err()
            .expect("clairvoyant refused");
        assert!(err.contains("lookahead"), "{err}");
        let err = parse_online_policy("nope", 2)
            .err()
            .expect("unknown refused");
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn alpha_above_the_bound_is_refused() {
        assert!(OnlineTracker::new("timeout", crate::MAX_ALPHA).is_ok());
        let err = OnlineTracker::new("timeout", crate::MAX_ALPHA + 1)
            .err()
            .expect("alpha past the bound refused");
        assert!(err.contains(&crate::MAX_ALPHA.to_string()), "{err}");
    }

    #[test]
    fn arrivals_walk_gaps_and_track_cost() {
        let alpha = 3;
        let mut t = OnlineTracker::new("timeout", alpha).expect("policy");
        // First arrival at 0: wake (α) + run (1).
        let s = t.arrive(0).expect("in order");
        assert_eq!(s.online_cost, alpha + 1);
        assert!(s.awake);
        assert_eq!(s.frontier, 1);
        // Gap of 1 < α is bridged: +1 idle-active +1 busy.
        let s = t.arrive(2).expect("in order");
        assert_eq!(s.online_cost, alpha + 1 + 2);
        // Huge gap: α idle-active slots, sleep, wake (α) + run (1) on
        // top of the α+3 already paid.
        let s = t.arrive(100).expect("in order");
        assert_eq!(s.online_cost, (alpha + 3) + alpha + alpha + 1);
        assert_eq!(s.jobs, 3);
    }

    #[test]
    fn time_never_runs_backwards_and_jumps_are_capped() {
        let mut t = OnlineTracker::new("timeout", 2).expect("policy");
        t.arrive(5).expect("in order");
        let err = t.arrive(5).unwrap_err();
        assert!(err.contains("behind the frontier"), "{err}");
        let err = t.arrive(Time::MAX - 1).unwrap_err();
        assert!(err.contains("cap"), "{err}");
        let err = t.step(MAX_ADVANCE + 1).unwrap_err();
        assert!(err.contains("cap"), "{err}");
        // The failed calls changed nothing.
        assert_eq!(t.state().jobs, 1);
        assert_eq!(t.state().frontier, 6);
    }

    #[test]
    fn finish_reports_the_exact_offline_optimum() {
        let alpha = 4;
        let engine = engine();
        let mut t = OnlineTracker::new("timeout", alpha).expect("policy");
        // Arrivals 0, 2, 20: offline pays 3 busy + min(1,α) bridged +
        // the long gap slept (α for the second wake) + α for the first
        // wake = 3 + 1 + 4 + 4 = 12.
        for at in [0, 2, 20] {
            t.arrive(at).expect("in order");
        }
        let summary = t.finish(&engine).expect("offline solve");
        assert_eq!(summary.offline_cost, 12);
        // Online timeout(4): wake 4 + busy 1 | idle 1 + busy 1 | idle 4,
        // sleep, wake 4 + busy 1 = 16.
        assert_eq!(summary.online_cost, 16);
        assert!((summary.ratio() - 16.0 / 12.0).abs() < 1e-12);
        assert_eq!(
            summary.line(),
            "policy=timeout alpha=4 jobs=3 online=16 offline=12 ratio=1.3333"
        );
        // The ratio landed in the engine metrics under the policy name.
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.per_policy["timeout"].sessions, 1);
        assert!(snap.requests >= 1, "offline solve is a real request");
    }

    #[test]
    fn empty_session_is_ratio_one() {
        let engine = engine();
        let t = OnlineTracker::new("sleep", 2).expect("policy");
        let summary = t.finish(&engine).expect("empty instance solves");
        assert_eq!(summary.online_cost, 0);
        assert_eq!(summary.offline_cost, 0);
        assert_eq!(summary.ratio(), 1.0);
        assert_eq!(
            summary.line(),
            "policy=sleep-immediately alpha=2 jobs=0 online=0 offline=0 ratio=1.0000"
        );
    }

    /// The ski-rental guarantee end to end: timeout(α) never exceeds
    /// twice the offline optimum, on a deliberately gap-heavy stream.
    #[test]
    fn timeout_stays_two_competitive_end_to_end() {
        let alpha = 3;
        let engine = engine();
        let mut tracker = OnlineTracker::new("timeout", alpha).expect("policy");
        let mut at: Time = 0;
        for k in 0..60u64 {
            tracker.arrive(at).expect("in order");
            // Gap pattern sweeping below/at/above the threshold.
            at += 1 + (k % (2 * alpha + 2)) as Time;
        }
        let summary = tracker.finish(&engine).expect("offline solve");
        assert!(summary.offline_cost > 0);
        assert!(
            summary.ratio() <= 2.0,
            "ski-rental bound violated: {}",
            summary.line()
        );
    }
}
