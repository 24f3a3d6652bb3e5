//! A no-new-deps failpoint registry for chaos testing the serving stack.
//!
//! Production code is sprinkled with **named sites** — index build, plan
//! compilation, the bottom-up sweep, the paging path — that call
//! [`check`] (fallible paths) or [`checkpoint`] (infallible paths). With no
//! plan installed both are a single relaxed atomic load, so the hooks cost
//! nothing in production. A test installs a [`FaultPlan`] via [`install`],
//! which arms the registry and returns a [`FaultGuard`]; while the guard is
//! alive, hits on planned sites inject a typed error ([`Injected`]) or a
//! panic, on a deterministic schedule ([`Trigger`]).
//!
//! The registry is **global** (hooks live in the bottom of the crate stack
//! and cannot thread a handle through every call), so [`install`] also
//! serialises: a second `install` blocks until the first guard drops. Tests
//! that inject faults therefore never interleave, which keeps hit counting
//! deterministic even under a multi-threaded test harness.
//!
//! Plans can also be described as text — `"engine.compile=error@1"`,
//! `"server.page=panic@3,core.bottom_up=panic"` — via [`FaultPlan::parse`]
//! and the `ANYK_FAULTS` environment variable ([`FaultPlan::from_env`]),
//! so a chaos job can drive the same schedules without recompiling.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The failpoint sites compiled into the workspace, bottom of the stack
/// first. Kept in one place so a chaos suite can iterate over every site.
///
/// * `storage.index_build` — inside `HashIndex::build` (infallible path:
///   error rules are promoted to panics, see [`checkpoint`]).
/// * `core.bottom_up` — start of the bottom-up DP sweep (infallible path).
/// * `core.patch` — start of `tdp::apply_patch`, before the instance is
///   touched (infallible path). Reached only when a plan is delta-refreshed.
/// * `engine.compile` — start of plan preparation (fallible).
/// * `engine.refresh` — start of a plan's delta refresh (fallible). Reached
///   only by ingestion over a cached, refreshable plan.
/// * `engine.page` — per answer pulled inside a cursor page fill
///   (infallible path; a panic here lands mid-stream, mid-page).
/// * `server.open` — session admission, before a cursor is built (fallible).
/// * `server.page` — entry of the service's paging path (fallible).
/// * `net.accept` — after a TCP connection is accepted, before it is handed
///   to a worker (fallible: a fired rule drops the connection).
/// * `net.read` — per socket read inside the server's frame decoder
///   (fallible: a fired rule becomes an I/O error and drops the connection).
/// * `net.write` — per response write on the server side (fallible: ditto).
pub const SITES: [&str; 11] = [
    "storage.index_build",
    "core.bottom_up",
    "core.patch",
    "engine.compile",
    "engine.refresh",
    "engine.page",
    "server.open",
    "server.page",
    "net.accept",
    "net.read",
    "net.write",
];

/// The subset of [`SITES`] hit only by the TCP transport
/// (`anyk_server::net`); in-process serving never reaches them.
pub const NET_SITES: [&str; 3] = ["net.accept", "net.read", "net.write"];

/// What a matched failpoint does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return [`Injected`] from [`check`] (promoted to a panic at
    /// [`checkpoint`]-only sites, which have no error channel).
    Error,
    /// Panic with a recognisable message. Exercises panic isolation.
    Panic,
}

/// When a rule fires, counted per site from 1 while the plan is installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Every hit.
    Always,
    /// The `n`-th hit only (1-based); earlier and later hits pass through.
    Nth(u64),
    /// Every hit from the `n`-th on (1-based).
    From(u64),
}

impl Trigger {
    fn fires(self, hit: u64) -> bool {
        match self {
            Trigger::Always => true,
            Trigger::Nth(n) => hit == n,
            Trigger::From(n) => hit >= n,
        }
    }
}

/// A set of failpoint rules: at most one per site (the first rule added for
/// a site wins). Build with the fluent methods or [`FaultPlan::parse`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<(String, FaultAction, Trigger)>,
}

impl FaultPlan {
    /// An empty plan (no site fires).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule injecting [`Injected`] at `site` on `trigger`.
    pub fn error(mut self, site: &str, trigger: Trigger) -> Self {
        self.rules
            .push((site.to_string(), FaultAction::Error, trigger));
        self
    }

    /// Add a rule panicking at `site` on `trigger`.
    pub fn panic(mut self, site: &str, trigger: Trigger) -> Self {
        self.rules
            .push((site.to_string(), FaultAction::Panic, trigger));
        self
    }

    /// True when the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    fn rule_for(&self, site: &str) -> Option<(FaultAction, Trigger)> {
        self.rules
            .iter()
            .find(|(s, _, _)| s == site)
            .map(|&(_, a, t)| (a, t))
    }

    /// Parse a comma-separated rule list:
    /// `site=action[@n[+]]` where `action` is `error` or `panic`, `@n`
    /// fires on the n-th hit only, and `@n+` from the n-th hit on (no `@`
    /// means every hit). Example:
    /// `engine.compile=error@1,server.page=panic@3+`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for rule in text.split(',').map(str::trim).filter(|r| !r.is_empty()) {
            let (site, rest) = rule
                .split_once('=')
                .ok_or_else(|| format!("fault rule `{rule}` is missing `=action`"))?;
            let (action_text, trigger) = match rest.split_once('@') {
                None => (rest, Trigger::Always),
                Some((a, n)) => {
                    let (digits, from) = match n.strip_suffix('+') {
                        Some(d) => (d, true),
                        None => (n, false),
                    };
                    let n: u64 = digits
                        .parse()
                        .map_err(|_| format!("fault rule `{rule}` has a bad hit count"))?;
                    if n == 0 {
                        return Err(format!("fault rule `{rule}` hit counts are 1-based"));
                    }
                    (
                        a,
                        if from {
                            Trigger::From(n)
                        } else {
                            Trigger::Nth(n)
                        },
                    )
                }
            };
            let action = match action_text.trim() {
                "error" => FaultAction::Error,
                "panic" => FaultAction::Panic,
                other => return Err(format!("unknown fault action `{other}` in `{rule}`")),
            };
            plan.rules.push((site.trim().to_string(), action, trigger));
        }
        Ok(plan)
    }

    /// The plan described by the `ANYK_FAULTS` environment variable, if set.
    /// `Some(Err(..))` when set but malformed — callers should surface that
    /// loudly rather than silently running without faults.
    pub fn from_env() -> Option<Result<Self, String>> {
        std::env::var("ANYK_FAULTS").ok().map(|v| Self::parse(&v))
    }
}

/// The typed error a fired `Error` rule injects at a [`check`] site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injected {
    /// The failpoint site that fired.
    pub site: &'static str,
}

impl std::fmt::Display for Injected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at failpoint `{}`", self.site)
    }
}

impl std::error::Error for Injected {}

struct Active {
    plan: FaultPlan,
    /// Per-site hit counters, (site, count); sites are few, linear scan.
    hits: Vec<(String, u64)>,
}

/// Fast path: true only while a plan is installed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// The installed plan and its hit counters.
static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);
/// Serialises fault-using tests; held by the [`FaultGuard`].
static SERIAL: Mutex<()> = Mutex::new(());

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // A poisoned registry lock only means a test panicked while holding it
    // (e.g. a deliberate `Panic` action unwinding through `check`); the data
    // is a plan + counters and is always structurally consistent.
    r.unwrap_or_else(|p| p.into_inner())
}

/// Arm the registry with `plan` until the returned guard drops.
///
/// Blocks while another guard is alive (fault-using tests serialise), so
/// hit counting is deterministic. Counters start at zero on every install.
#[must_use = "faults disarm when the guard drops"]
pub fn install(plan: FaultPlan) -> FaultGuard {
    let serial = relock(SERIAL.lock());
    *relock(ACTIVE.lock()) = Some(Active {
        plan,
        hits: Vec::new(),
    });
    ARMED.store(true, Ordering::SeqCst);
    FaultGuard { _serial: serial }
}

/// Keeps the installed [`FaultPlan`] armed; disarms on drop.
pub struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// How many times `site` has been hit since this plan was installed
    /// (whether or not a rule fired) — lets tests assert a hook is wired.
    pub fn hits(&self, site: &str) -> u64 {
        relock(ACTIVE.lock())
            .as_ref()
            .and_then(|a| a.hits.iter().find(|(s, _)| s == site))
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *relock(ACTIVE.lock()) = None;
    }
}

/// Hit the failpoint `site` on a fallible path. Returns `Err(Injected)`
/// when an armed `Error` rule fires, panics when a `Panic` rule fires,
/// and is a no-op (one relaxed load) otherwise.
pub fn check(site: &'static str) -> Result<(), Injected> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let fired = {
        let mut guard = relock(ACTIVE.lock());
        let Some(active) = guard.as_mut() else {
            return Ok(());
        };
        let hit = match active.hits.iter_mut().find(|(s, _)| s == site) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                active.hits.push((site.to_string(), 1));
                1
            }
        };
        match active.plan.rule_for(site) {
            Some((action, trigger)) if trigger.fires(hit) => Some((action, hit)),
            _ => None,
        }
        // The registry lock is released here, before any unwind, so a
        // `Panic` rule can't poison it for the guard's own teardown.
    };
    match fired {
        None => Ok(()),
        Some((FaultAction::Error, _)) => Err(Injected { site }),
        Some((FaultAction::Panic, hit)) => {
            panic!("injected panic at failpoint `{site}` (hit {hit})")
        }
    }
}

/// Hit the failpoint `site` on an **infallible** path: a fired `Error` rule
/// is promoted to a panic (there is no error channel to inject into).
pub fn checkpoint(site: &'static str) {
    if let Err(injected) = check(site) {
        panic!(
            "injected fault at failpoint `{}` (error promoted to panic on an infallible path)",
            injected.site
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plans_pass_through() {
        // Hold the guard so no concurrently running test can arm a plan.
        let guard = install(FaultPlan::new());
        assert!(check("engine.compile").is_ok());
        checkpoint("core.bottom_up");
        assert_eq!(guard.hits("core.bottom_up"), 1);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let guard = install(FaultPlan::new().error("engine.compile", Trigger::Nth(2)));
        assert!(check("engine.compile").is_ok());
        assert_eq!(
            check("engine.compile"),
            Err(Injected {
                site: "engine.compile"
            })
        );
        assert!(check("engine.compile").is_ok());
        assert_eq!(guard.hits("engine.compile"), 3);
        assert_eq!(guard.hits("server.page"), 0);
    }

    #[test]
    fn from_trigger_fires_repeatedly_and_unplanned_sites_pass() {
        let _guard = install(FaultPlan::new().error("server.page", Trigger::From(2)));
        assert!(check("server.page").is_ok());
        assert!(check("server.page").is_err());
        assert!(check("server.page").is_err());
        assert!(check("engine.compile").is_ok(), "no rule for this site");
    }

    #[test]
    fn panic_rules_panic_and_the_registry_survives() {
        {
            let _guard = install(FaultPlan::new().panic("engine.page", Trigger::Always));
            let caught = std::panic::catch_unwind(|| check("engine.page"));
            assert!(caught.is_err());
        }
        // Disarmed again after the guard dropped, even though a panic
        // unwound through `check`.
        assert!(check("engine.page").is_ok());
    }

    #[test]
    fn parse_round_trips_the_documented_grammar() {
        let plan =
            FaultPlan::parse("engine.compile=error@1, server.page=panic@3+,core.bottom_up=panic")
                .unwrap();
        assert_eq!(
            plan.rule_for("engine.compile"),
            Some((FaultAction::Error, Trigger::Nth(1)))
        );
        assert_eq!(
            plan.rule_for("server.page"),
            Some((FaultAction::Panic, Trigger::From(3)))
        );
        assert_eq!(
            plan.rule_for("core.bottom_up"),
            Some((FaultAction::Panic, Trigger::Always))
        );
        assert!(FaultPlan::parse("nope").is_err());
        assert!(FaultPlan::parse("a=explode").is_err());
        assert!(FaultPlan::parse("a=error@0").is_err());
        assert!(FaultPlan::parse("a=error@x").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }
}
