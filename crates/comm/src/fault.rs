//! Deterministic fault injection for the message-passing runtime.
//!
//! A [`FaultPlan`] is a seeded, rank-addressable schedule of faults: "on
//! world rank 2, make the 3rd `allreduce` corrupt its local contribution",
//! or "drop the 1st halo send (tag 7001) on rank 0". A plan is armed for
//! one launch: [`crate::Universe::run_with_faults`] takes it explicitly,
//! and [`crate::Universe::run`] hands over the plan the `RSPARSE_FAULTS`
//! environment variable spells, read afresh at each launch.
//!
//! # Spec grammar
//!
//! `RSPARSE_FAULTS` (and [`FaultPlan::parse`]) accept semicolon-separated
//! clauses. Each clause is either a standalone `seed=N` (sets the plan
//! seed used to pick which element of a payload gets poisoned) or a rule
//! of comma-separated `key=value` pairs:
//!
//! | key        | values                                                       | default |
//! |------------|--------------------------------------------------------------|---------|
//! | `op`       | `send` `recv` `barrier` `bcast` `allreduce` `gather` `allgather` `scatter` `alltoall` | required |
//! | `kind`     | `error` `drop` `delay` `corrupt` `truncate` `kill`           | required |
//! | `rank`     | world rank, or `*` for any rank                              | `*`     |
//! | `call`     | 1-based count of *matching* calls at which the rule fires    | `1`     |
//! | `tag`      | restrict a p2p rule to one message tag                       | any     |
//! | `delay_ms` | sleep duration for `kind=delay`                              | `100`   |
//!
//! Example: `op=allreduce,rank=2,call=5,kind=corrupt;seed=42`.
//!
//! # Semantics
//!
//! * `error` — the operation returns [`crate::CommError::Injected`] instead of
//!   executing (the message, if any, is not sent).
//! * `drop` — a send silently discards its payload; the receiver never
//!   sees the message (send-only).
//! * `delay` — the operation sleeps `delay_ms` first, then proceeds.
//! * `corrupt` — silent data corruption: one seeded element of an `f64`
//!   payload (scalar, `Vec<f64>`, or `Arc<Vec<f64>>`) becomes NaN. On a
//!   send the outgoing message is poisoned; on a receive the delivered
//!   value; on a value-carrying collective the rank's *local
//!   contribution*, so the NaN propagates to every rank through the
//!   reduction — exactly the failure the solver guards must agree on.
//! * `truncate` — a send's `Vec<f64>`/`Arc<Vec<f64>>` payload loses its
//!   last element, so the receiver's length checks trip (send-only).
//! * `kill` — the rank permanently stops servicing communication: the
//!   matching call and every later communication call on that rank fail
//!   with [`crate::CommError::RankLost`], and the rank is marked dead in
//!   its universe's [`crate::cohort`] registry. Survivors blocked on
//!   the dead rank observe the registry and fail their own calls with
//!   the same rank-consistent `RankLost` verdict instead of waiting out
//!   the deadlock watchdog — the trigger for
//!   `Communicator::shrink`-based elastic recovery. Valid on any op.
//!
//! A halo line's `post` and `take` (`Communicator::post` /
//! `Communicator::take`) pass the same gate as a `send` / `recv` with the
//! line's tag, so a `tag=7001` rule meets the distributed matvec's halos:
//! a dropped post publishes nothing, and `corrupt` / `truncate` act on
//! the line's buffer.
//!
//! Each rule fires **once per launch** (a one-shot fuse): a fault that
//! breaks solve attempt 1 does not re-fire on the fallback attempt, which
//! runs on a `dup` of the same universe; the next launch given the same
//! plan starts with fresh fuses. Rules count their own matching calls;
//! with `rank=*` the count is shared across ranks and therefore
//! scheduling-dependent — pin `rank=` for determinism.
//!
//! Every fired fault bumps [`probe::Counter::FaultsInjected`]. When the
//! launch has no plan the whole machinery costs one load and one branch
//! per communication call.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::Tag;

/// Which communication operation a rule targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Point-to-point send.
    Send,
    /// Point-to-point receive.
    Recv,
    /// `barrier()`.
    Barrier,
    /// `bcast()`.
    Bcast,
    /// `allreduce()` / `allreduce_vec()`.
    Allreduce,
    /// `gather()` / `gatherv()`.
    Gather,
    /// `allgather()` / `allgatherv()`.
    Allgather,
    /// `scatter()`.
    Scatter,
    /// `alltoall()`.
    Alltoall,
}

impl FaultOp {
    /// The spec-grammar spelling of this op.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Send => "send",
            FaultOp::Recv => "recv",
            FaultOp::Barrier => "barrier",
            FaultOp::Bcast => "bcast",
            FaultOp::Allreduce => "allreduce",
            FaultOp::Gather => "gather",
            FaultOp::Allgather => "allgather",
            FaultOp::Scatter => "scatter",
            FaultOp::Alltoall => "alltoall",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "send" => FaultOp::Send,
            "recv" => FaultOp::Recv,
            "barrier" => FaultOp::Barrier,
            "bcast" => FaultOp::Bcast,
            "allreduce" => FaultOp::Allreduce,
            "gather" => FaultOp::Gather,
            "allgather" => FaultOp::Allgather,
            "scatter" => FaultOp::Scatter,
            "alltoall" => FaultOp::Alltoall,
            other => return Err(format!("unknown fault op '{other}'")),
        })
    }
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the operation with [`crate::CommError::Injected`].
    Error,
    /// Silently discard a send's payload (send-only).
    Drop,
    /// Sleep for the given milliseconds, then proceed.
    Delay(u64),
    /// Poison one seeded `f64` element of the payload with NaN.
    Corrupt,
    /// Shorten a send's `Vec<f64>` payload by one element (send-only).
    Truncate,
    /// Permanently stop this rank from servicing communication: mark it
    /// dead in the cohort registry and fail this and every later call
    /// with [`crate::CommError::RankLost`].
    Kill,
}

impl FaultKind {
    /// The spec-grammar spelling of this kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Error => "error",
            FaultKind::Drop => "drop",
            FaultKind::Delay(_) => "delay",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Truncate => "truncate",
            FaultKind::Kill => "kill",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Operation the rule matches.
    pub op: FaultOp,
    /// World rank the rule matches (`None` = any rank).
    pub rank: Option<usize>,
    /// 1-based count of matching calls at which the rule fires.
    pub call: u64,
    /// Message tag filter for p2p rules (`None` = any tag).
    pub tag: Option<Tag>,
    /// The fault to apply.
    pub kind: FaultKind,
}

/// A seeded schedule of faults; see the module docs for the spec grammar.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The rules, matched in order; each fires at most once.
    pub rules: Vec<FaultRule>,
    /// Seed for the deterministic choice of which payload element a
    /// `corrupt` rule poisons.
    pub seed: u64,
}

impl FaultRule {
    /// Render the rule back into the spec grammar (one clause), so a
    /// postmortem can quote exactly what `scripts/fault_matrix.sh` armed.
    pub fn spec(&self) -> String {
        let mut out = format!("op={},kind={}", self.op.name(), self.kind.name());
        if let FaultKind::Delay(ms) = self.kind {
            out.push_str(&format!(",delay_ms={ms}"));
        }
        if let Some(r) = self.rank {
            out.push_str(&format!(",rank={r}"));
        }
        out.push_str(&format!(",call={}", self.call));
        if let Some(t) = self.tag {
            out.push_str(&format!(",tag={t}"));
        }
        out
    }
}

impl FaultPlan {
    /// Render the plan back into the spec grammar (clauses joined with
    /// `;`, seed last).
    pub fn spec(&self) -> String {
        let mut clauses: Vec<String> = self.rules.iter().map(FaultRule::spec).collect();
        if self.seed != 0 {
            clauses.push(format!("seed={}", self.seed));
        }
        clauses.join(";")
    }

    /// Parse the `RSPARSE_FAULTS` spec grammar.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = seed.trim().parse().map_err(|_| format!("bad seed '{seed}'"))?;
                continue;
            }
            let mut op = None;
            let mut kind_name: Option<&str> = None;
            let mut rank = None;
            let mut call = 1u64;
            let mut tag = None;
            let mut delay_ms = 100u64;
            for pair in clause.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("expected key=value, got '{pair}'"))?;
                let (k, v) = (k.trim(), v.trim());
                match k {
                    "op" => op = Some(FaultOp::parse(v)?),
                    "kind" => kind_name = Some(v),
                    "rank" => {
                        rank = if v == "*" {
                            None
                        } else {
                            Some(v.parse().map_err(|_| format!("bad rank '{v}'"))?)
                        }
                    }
                    "call" => call = v.parse().map_err(|_| format!("bad call '{v}'"))?,
                    "tag" => tag = Some(v.parse().map_err(|_| format!("bad tag '{v}'"))?),
                    "delay_ms" => {
                        delay_ms = v.parse().map_err(|_| format!("bad delay_ms '{v}'"))?
                    }
                    other => return Err(format!("unknown fault key '{other}'")),
                }
            }
            let op = op.ok_or_else(|| format!("rule '{clause}' is missing op="))?;
            let kind = match kind_name.ok_or_else(|| format!("rule '{clause}' is missing kind="))? {
                "error" => FaultKind::Error,
                "drop" => FaultKind::Drop,
                "delay" => FaultKind::Delay(delay_ms),
                "corrupt" => FaultKind::Corrupt,
                "truncate" => FaultKind::Truncate,
                "kill" => FaultKind::Kill,
                other => return Err(format!("unknown fault kind '{other}'")),
            };
            if call == 0 {
                return Err("call counts are 1-based; call=0 never fires".into());
            }
            if matches!(kind, FaultKind::Drop | FaultKind::Truncate) && op != FaultOp::Send {
                return Err(format!("kind={kind:?} is only meaningful for op=send"));
            }
            plan.rules.push(FaultRule { op, rank, call, tag, kind });
        }
        Ok(plan)
    }

    /// The plan `RSPARSE_FAULTS` spells, if it is set and not blank — read
    /// by [`crate::Universe::run`] at each launch. A malformed spec is
    /// reported on stderr and ignored rather than poisoning every launch.
    pub(crate) fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var("RSPARSE_FAULTS").ok().filter(|s| !s.trim().is_empty())?;
        FaultPlan::parse(&spec)
            .map_err(|e| eprintln!("rcomm: ignoring malformed RSPARSE_FAULTS: {e}"))
            .ok()
    }
}

/// A rule that fired on this call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fired {
    /// What the rule does.
    pub kind: FaultKind,
    /// Matching-call count at which the rule fired.
    pub call: u64,
    /// Picks the element a `corrupt` poisons.
    seed: u64,
}

impl Fired {
    /// Apply a payload fault (`corrupt`, `truncate`) to `value`; the other
    /// kinds leave it alone.
    pub(crate) fn apply<T: Any>(self, value: &mut T) {
        match self.kind {
            FaultKind::Corrupt => corrupt_payload(value, self.seed, self.call),
            FaultKind::Truncate => truncate_payload(value),
            _ => false,
        };
    }
}

/// A plan armed for one launch, with its per-rule matching-call counters
/// and one-shot fuses. The universe owns it; nothing outlives the launch.
pub(crate) struct Armed {
    pub plan: FaultPlan,
    hits: Vec<AtomicU64>,
    fired: Vec<AtomicBool>,
}

impl Armed {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let n = plan.rules.len();
        Armed {
            plan,
            hits: (0..n).map(|_| AtomicU64::new(0)).collect(),
            fired: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Indices (into `plan.rules`) of rules whose fuse has burned — the
    /// faults that actually fired.
    pub(crate) fn fired_rule_ids(&self) -> Vec<usize> {
        (0..self.fired.len()).filter(|&i| self.fired[i].load(Ordering::Relaxed)).collect()
    }

    /// Consult the plan for `(op, world_rank, tag)`. Advances matching
    /// rules' call counters and fires at most one rule.
    pub(crate) fn check(&self, op: FaultOp, world_rank: usize, tag: Option<Tag>) -> Option<Fired> {
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if rule.op != op || rule.rank.is_some_and(|r| r != world_rank) {
                continue;
            }
            if rule.tag.is_some() && rule.tag != tag {
                continue;
            }
            let n = self.hits[i].fetch_add(1, Ordering::Relaxed) + 1;
            if n != rule.call || self.fired[i].swap(true, Ordering::Relaxed) {
                continue;
            }
            probe::incr(probe::Counter::FaultsInjected);
            probe::emit(probe::EventKind::Fault {
                rule: i as u32,
                op: rule.op.name(),
                kind: rule.kind.name(),
            });
            // Mix the rule index into the seed so two corrupt rules poison
            // independent elements.
            let seed = splitmix64(self.plan.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            return Some(Fired { kind: rule.kind, call: n, seed });
        }
        None
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn poison_slice(v: &mut [f64], seed: u64, call: u64) -> bool {
    if v.is_empty() {
        return false;
    }
    let idx = (splitmix64(seed ^ call) % v.len() as u64) as usize;
    v[idx] = f64::NAN;
    true
}

/// Poison one seeded element of an `f64`-bearing payload (scalar,
/// `Vec<f64>`, or `Arc<Vec<f64>>`). Returns whether anything changed;
/// payloads of other types pass through untouched.
fn corrupt_payload<T: Any>(value: &mut T, seed: u64, call: u64) -> bool {
    let any = value as &mut dyn Any;
    if let Some(x) = any.downcast_mut::<f64>() {
        *x = f64::NAN;
        return true;
    }
    if let Some(v) = any.downcast_mut::<Vec<f64>>() {
        return poison_slice(v, seed, call);
    }
    if let Some(a) = any.downcast_mut::<Arc<Vec<f64>>>() {
        let inner: &mut Vec<f64> = Arc::make_mut(a);
        return poison_slice(inner, seed, call);
    }
    false
}

/// Drop the last element of a `Vec<f64>`/`Arc<Vec<f64>>` payload. Returns
/// whether anything changed.
fn truncate_payload<T: Any>(value: &mut T) -> bool {
    let any = value as &mut dyn Any;
    if let Some(v) = any.downcast_mut::<Vec<f64>>() {
        return v.pop().is_some();
    }
    if let Some(a) = any.downcast_mut::<Arc<Vec<f64>>>() {
        return Arc::make_mut(a).pop().is_some();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        let p = FaultPlan::parse(
            "op=send,rank=2,call=3,tag=7001,kind=drop; op=allreduce,kind=corrupt; seed=42",
        )
        .unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.rules.len(), 2);
        assert_eq!(
            p.rules[0],
            FaultRule {
                op: FaultOp::Send,
                rank: Some(2),
                call: 3,
                tag: Some(7001),
                kind: FaultKind::Drop,
            }
        );
        assert_eq!(p.rules[1].rank, None);
        assert_eq!(p.rules[1].call, 1);
        assert_eq!(p.rules[1].kind, FaultKind::Corrupt);
    }

    #[test]
    fn grammar_rejects_nonsense() {
        assert!(FaultPlan::parse("kind=error").is_err(), "missing op");
        assert!(FaultPlan::parse("op=send").is_err(), "missing kind");
        assert!(FaultPlan::parse("op=warp,kind=error").is_err());
        assert!(FaultPlan::parse("op=send,kind=vaporize").is_err());
        assert!(FaultPlan::parse("op=send,kind=error,call=0").is_err());
        assert!(FaultPlan::parse("op=recv,kind=drop").is_err(), "drop is send-only");
        assert!(FaultPlan::parse("op=allreduce,kind=truncate").is_err());
        assert!(FaultPlan::parse("op=send,kind=error,rank=x").is_err());
        assert!(FaultPlan::parse("gibberish").is_err());
    }

    #[test]
    fn kill_is_valid_on_any_op() {
        for spec in [
            "op=allreduce,rank=2,call=4,kind=kill",
            "op=send,rank=1,tag=7001,kind=kill",
            "op=alltoall,rank=1,call=1,kind=kill",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(plan.rules[0].kind, FaultKind::Kill);
            let reparsed = FaultPlan::parse(&plan.spec()).unwrap();
            assert_eq!(plan, reparsed, "kill spec '{spec}' must round-trip");
        }
    }

    #[test]
    fn spec_rendering_round_trips_through_the_parser() {
        for spec in [
            "op=allreduce,rank=2,call=2,kind=corrupt;seed=11",
            "op=send,rank=1,tag=7001,call=1,kind=truncate",
            "op=recv,rank=2,tag=7001,call=1,kind=delay,delay_ms=50",
            "op=send,rank=2,call=3,tag=7001,kind=drop;op=allreduce,kind=corrupt;seed=42",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            let rendered = plan.spec();
            let reparsed = FaultPlan::parse(&rendered).unwrap();
            assert_eq!(plan, reparsed, "spec '{spec}' -> '{rendered}' did not round-trip");
        }
    }

    #[test]
    fn fired_rules_are_reported_by_id() {
        let plan =
            FaultPlan::parse("op=alltoall,rank=0,kind=error;op=barrier,rank=0,kind=error").unwrap();
        let out = crate::Universe::run_with_faults(1, Some(plan.clone()), |c| {
            assert_eq!(c.fault_plan(), Some(&plan));
            assert!(c.fired_rule_ids().is_empty());
            // Fire only the second rule.
            assert!(c.barrier().is_err());
            c.fired_rule_ids()
        });
        assert_eq!(out, vec![vec![1]]);
        let out = crate::Universe::run_with_faults(1, None, |c| {
            (c.fault_plan().cloned(), c.fired_rule_ids())
        });
        assert_eq!(out, vec![(None, vec![])]);
    }

    #[test]
    fn empty_spec_is_an_empty_plan() {
        let p = FaultPlan::parse("").unwrap();
        assert!(p.rules.is_empty());
        let p = FaultPlan::parse(" ; ;seed=7; ").unwrap();
        assert!(p.rules.is_empty());
        assert_eq!(p.seed, 7);
    }

    #[test]
    fn corruption_is_deterministic_and_typed() {
        let mut v = vec![1.0f64; 8];
        assert!(corrupt_payload(&mut v, 1, 1));
        let mut w = vec![1.0f64; 8];
        assert!(corrupt_payload(&mut w, 1, 1));
        let nan_at = |s: &[f64]| s.iter().position(|x| x.is_nan());
        assert_eq!(nan_at(&v), nan_at(&w), "same seed, same element");

        let mut s = 3.5f64;
        assert!(corrupt_payload(&mut s, 1, 1));
        assert!(s.is_nan());

        let mut a = Arc::new(vec![1.0f64; 4]);
        assert!(corrupt_payload(&mut a, 9, 9));
        assert!(a.iter().any(|x| x.is_nan()));

        let mut other = 5i64;
        assert!(!corrupt_payload(&mut other, 1, 1), "non-f64 payloads pass through");

        let mut t = vec![1.0f64; 3];
        assert!(truncate_payload(&mut t));
        assert_eq!(t.len(), 2);
        assert!(!truncate_payload(&mut 7u32));
    }
}
