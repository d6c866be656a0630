//! Targeted crash injection at atomic-step boundaries (§5 of the paper).
//!
//! The paper's crash-recovery testing methodology observes that inserts and structure
//! modification operations in the studied indexes consist of a *small number of
//! ordered atomic steps* (fewer than five), so it is sufficient to simulate a crash
//! after each atomic store rather than at every instruction. A simulated crash simply
//! returns from the operation mid-way "without cleaning up any state, leaving the
//! index in a partially modified state".
//!
//! Index implementations in this workspace call [`site`] with a stable name at every
//! such boundary (e.g. `"art.path_split.after_new_node"`). The crash-test harness arms
//! one of several modes:
//!
//! * [`arm_nth`] — crash at the n-th site hit (deterministic enumeration of crash
//!   states across a workload),
//! * [`arm_at_site`] — crash at the k-th hit of one named site,
//! * [`arm_count_only`] — never crash, just count site hits (used to size the
//!   enumeration).
//!
//! A triggered crash unwinds the current operation by panicking with a [`CrashPanic`]
//! payload; the harness catches the unwind, treats the process as "restarted", calls
//! the index's recovery hook (lock re-initialisation), and continues the workload.
//! Only one crash fires per arming.
//!
//! Arming and counters are per [`crate::Domain`]: a site consults the arming of
//! the calling thread's domain, so crash tests in separate domains run at once.

use crate::Domain;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// Panic payload identifying a simulated crash. Carries the name of the crash site
/// that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPanic(pub &'static str);

const MODE_OFF: u8 = 0;
const MODE_NTH: u8 = 1;
const MODE_SITE: u8 = 2;
const MODE_COUNT: u8 = 3;

/// A domain's crash arming, changed under its lock together with the mode.
#[derive(Default)]
pub(crate) struct Armed {
    hits: u64,
    /// The hit to crash at, or the hits of `target` left before the crash, by
    /// mode.
    param: u64,
    target: Option<&'static str>,
    crashed: bool,
    last_crash_site: Option<&'static str>,
    /// Hits per site name while accounting is on; kept across armings.
    named: Option<HashMap<&'static str, u64>>,
}

/// Run `f` on the arming of the calling thread's domain, under its lock.
fn armed<R>(f: impl FnOnce(&Domain, &mut Armed) -> R) -> R {
    crate::domain::with(|d| f(d, &mut d.crash.lock()))
}

/// Arm `mode` with a fresh hit count; the per-name accounting carries over.
fn arm(mode: u8, param: u64, target: Option<&'static str>) {
    armed(|d, s| {
        *s = Armed { param, target, named: s.named.take(), ..Armed::default() };
        d.crash_mode.store(mode, Ordering::SeqCst);
    });
}

/// Disarm crash injection entirely (the default).
pub fn disarm() {
    arm(MODE_OFF, 0, None);
}

/// Arm a crash at the `n`-th crash-site hit (1-based) from now on.
pub fn arm_nth(n: u64) {
    arm(MODE_NTH, n.max(1), None);
}

/// Arm a crash at the `hit`-th (1-based) execution of the named site.
pub fn arm_at_site(name: &'static str, hit: u64) {
    arm(MODE_SITE, hit.max(1), Some(name));
}

/// Count site hits without ever crashing.
pub fn arm_count_only() {
    arm(MODE_COUNT, 0, None);
}

/// Total crash-site hits since the last arming.
pub fn sites_hit() -> u64 {
    armed(|_, s| s.hits)
}

/// Whether a simulated crash has fired since the last arming.
pub fn has_crashed() -> bool {
    armed(|_, s| s.crashed)
}

/// Name of the site at which the last simulated crash fired, if any.
pub fn last_crash_site() -> Option<&'static str> {
    armed(|_, s| s.last_crash_site)
}

/// Start (or restart) per-name site-hit accounting with empty counters.
///
/// While enabled, every site hit under *any* armed mode (including
/// [`arm_count_only`]) is tallied by name. Accounting survives [`disarm`] and
/// re-arming, so a test harness can accumulate coverage across many crash states;
/// call [`stop_named_counts`] to turn it off again. The §5 coverage report is built
/// from these counters.
pub fn start_named_counts() {
    armed(|_, s| s.named = Some(HashMap::new()));
}

/// Stop per-name accounting and drop the counters.
pub fn stop_named_counts() {
    armed(|_, s| s.named = None);
}

/// Snapshot of the per-name site-hit counters (empty if accounting is off).
#[must_use]
pub fn named_counts() -> Vec<(&'static str, u64)> {
    armed(|_, s| s.named.iter().flatten().map(|(k, v)| (*k, *v)).collect())
}

/// Hits recorded for one named site since [`start_named_counts`] (0 if accounting
/// is off or the site never fired).
#[must_use]
pub fn named_count(name: &str) -> u64 {
    armed(|_, s| s.named.as_ref().and_then(|m| m.get(name).copied()).unwrap_or(0))
}

/// Declare a crash site. Index code calls this between the ordered atomic steps of an
/// insert or structure-modification operation. If crash injection is armed and this
/// hit is selected, the function does not return: it unwinds with a [`CrashPanic`]
/// payload, leaving the index in the partially-modified state the operation had built
/// so far.
#[inline]
pub fn site(name: &'static str) {
    if crate::domain::with(|d| d.crash_mode.load(Ordering::Relaxed)) != MODE_OFF {
        site_slow(name);
    }
}

#[inline(never)]
fn site_slow(name: &'static str) {
    let (hit, fire) = armed(|d, s| {
        if let Some(map) = s.named.as_mut() {
            *map.entry(name).or_insert(0) += 1;
        }
        s.hits += 1;
        let fire = match d.crash_mode.load(Ordering::Relaxed) {
            MODE_NTH => s.hits == s.param,
            MODE_SITE if s.target == Some(name) => {
                s.param -= 1;
                s.param == 0
            }
            _ => false,
        };
        if fire {
            d.crash_mode.store(MODE_OFF, Ordering::SeqCst);
            (s.crashed, s.last_crash_site) = (true, Some(name));
        }
        (s.hits, fire)
    });
    obs::event::emit("crash.site", name, hit, 0);
    if fire {
        obs::event::emit("crash.fire", name, 0, 0);
        std::panic::panic_any(CrashPanic(name));
    }
}

/// Run `f`, catching a simulated crash. Returns `Ok(v)` if `f` completed, or
/// `Err(site_name)` if a [`CrashPanic`] unwound out of it. Other panics are resumed.
pub fn catch_crash<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> Result<T, &'static str> {
    match std::panic::catch_unwind(f) {
        Ok(v) => Ok(v),
        Err(payload) => match payload.downcast::<CrashPanic>() {
            Ok(cp) => Err(cp.0),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

/// Install, once per process, a panic hook that silences the default "thread
/// panicked" message for simulated crashes while delegating every other panic to
/// the hook it replaced. Later calls do nothing.
pub fn install_quiet_hook() {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_do_nothing() {
        let _d = crate::Domain::new().enter();
        disarm();
        site("a");
        site("b");
        assert!(!has_crashed());
        assert_eq!(sites_hit(), 0);
    }

    #[test]
    fn nth_mode_crashes_exactly_once_at_nth_hit() {
        let _d = crate::Domain::new().enter();
        install_quiet_hook();
        arm_nth(3);
        let r = catch_crash(|| {
            site("s1");
            site("s2");
            site("s3");
            site("s4");
            42
        });
        assert_eq!(r, Err("s3"));
        assert!(has_crashed());
        assert_eq!(last_crash_site(), Some("s3"));
        // After firing, further sites are inert.
        let r2 = catch_crash(|| {
            site("s5");
            7
        });
        assert_eq!(r2, Ok(7));
        disarm();
    }

    #[test]
    fn count_only_mode_counts() {
        let _d = crate::Domain::new().enter();
        arm_count_only();
        for _ in 0..10 {
            site("x");
        }
        assert_eq!(sites_hit(), 10);
        assert!(!has_crashed());
        disarm();
    }

    #[test]
    fn at_site_mode_targets_named_site() {
        let _d = crate::Domain::new().enter();
        install_quiet_hook();
        arm_at_site("target", 2);
        let r = catch_crash(|| {
            site("other");
            site("target");
            site("other");
            site("target"); // 2nd hit of "target" -> crash
            1
        });
        assert_eq!(r, Err("target"));
        disarm();
    }

    #[test]
    fn named_counts_accumulate_across_armings() {
        let _d = crate::Domain::new().enter();
        install_quiet_hook();
        start_named_counts();
        arm_count_only();
        site("alpha");
        site("alpha");
        site("beta");
        disarm();
        // Accounting must survive disarm + re-arm (coverage accumulates over states).
        arm_nth(1);
        let r = catch_crash(|| site("beta"));
        assert_eq!(r, Err("beta"));
        assert_eq!(named_count("alpha"), 2);
        assert_eq!(named_count("beta"), 2);
        assert_eq!(named_count("gamma"), 0);
        let mut all = named_counts();
        all.sort_unstable();
        assert_eq!(all, vec![("alpha", 2), ("beta", 2)]);
        stop_named_counts();
        arm_count_only();
        site("alpha");
        assert_eq!(named_count("alpha"), 0, "accounting is off");
        assert!(named_counts().is_empty());
        disarm();
    }

    #[test]
    fn catch_crash_propagates_other_panics() {
        let _d = crate::Domain::new().enter();
        disarm();
        let res = std::panic::catch_unwind(|| {
            let _ = catch_crash(|| -> u32 { panic!("real bug") });
        });
        assert!(res.is_err());
    }

    #[test]
    fn the_quiet_hook_installs_once_and_passes_other_panics_on() {
        let _d = crate::Domain::new().enter();
        install_quiet_hook();
        install_quiet_hook();
        let res = std::panic::catch_unwind(|| {
            let _ = catch_crash(|| -> u32 { panic!("real bug") });
        });
        let payload = res.expect_err("a non-crash panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"real bug"));
        arm_nth(1);
        assert_eq!(catch_crash(|| site("quiet")), Err("quiet"));
    }
}
