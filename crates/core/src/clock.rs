//! The workspace clock: every deadline in the pipeline reads time here.
//!
//! `docs/DETERMINISM.md` Rule 3 used to name wall-clock deadlines as the
//! one sanctioned determinism leak: a `--timeout` verdict depended on
//! machine speed, so timeout behavior could never be golden-pinned. This
//! module closes that leak. Code that needs "now" holds a [`ClockHandle`]
//! and calls [`ClockHandle::now`]; code that performs a unit of search
//! work (a solver conflict, a simulation cycle, a structural probe) calls
//! [`ClockHandle::tick`]. Under the default `WallClock` a tick is free
//! and `now` is the real monotonic clock — behavior is bit-identical to
//! the pre-clock tree. Under a [`VirtualClock`] time advances **only**
//! via ticks and explicit [`VirtualClock::advance`] calls, so a deadline
//! fires at an exact, machine-independent point in the search.
//!
//! The [`Instant`] type here is repo-local (nanoseconds since an
//! arbitrary process epoch) rather than `std::time::Instant`, following
//! the tokio-test/maybenot idiom: a plain integer instant can be
//! fabricated, compared, and serialized by tests, which the opaque std
//! type cannot. `std::time::Instant::now` is called in exactly one place
//! in the workspace — `WallClock`'s implementation below — and CI
//! greps to keep it that way.
//!
//! The full pipeline walkthrough and crate map live in
//! `docs/ARCHITECTURE.md` at the repository root; the thread-count
//! independence rules are codified in `docs/DETERMINISM.md`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

pub(crate) use std::time::Duration;

/// A repo-local monotonic instant: nanoseconds since the clock's epoch.
///
/// Unlike `std::time::Instant` this type is transparent — tests can
/// build one with [`Instant::from_nanos`] and assert on exact values —
/// and total: the epoch ([`Instant::EPOCH`]) is a real, comparable
/// origin. All arithmetic saturates instead of panicking, so a deadline
/// computed as `now + huge_timeout` pins to the far future rather than
/// aborting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instant {
    nanos: u64,
}

impl Instant {
    /// The clock origin (`t = 0`).
    pub const EPOCH: Instant = Instant { nanos: 0 };

    /// The far future: no deadline placed here ever expires.
    pub(crate) const FAR_FUTURE: Instant = Instant { nanos: u64::MAX };

    /// An instant `nanos` nanoseconds after the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        Instant { nanos }
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Time elapsed from `earlier` to `self`, saturating to zero when
    /// `earlier` is actually later (matching
    /// `std::time::Instant::duration_since` post-1.60 semantics).
    pub fn duration_since(self, earlier: Instant) -> Duration {
        Duration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }

    /// Time elapsed from `earlier` to `self`, or `None` when `earlier`
    /// is later than `self`.
    pub fn checked_duration_since(self, earlier: Instant) -> Option<Duration> {
        self.nanos
            .checked_sub(earlier.nanos)
            .map(Duration::from_nanos)
    }

    /// `self + duration`, or `None` on overflow of the nanosecond range.
    pub(crate) fn checked_add(self, duration: Duration) -> Option<Instant> {
        u64::try_from(duration.as_nanos())
            .ok()
            .and_then(|d| self.nanos.checked_add(d))
            .map(Instant::from_nanos)
    }

    /// `self - duration`, or `None` when the result would precede the
    /// epoch.
    pub(crate) fn checked_sub(self, duration: Duration) -> Option<Instant> {
        u64::try_from(duration.as_nanos())
            .ok()
            .and_then(|d| self.nanos.checked_sub(d))
            .map(Instant::from_nanos)
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    /// Saturates at `Instant::FAR_FUTURE` instead of panicking: a
    /// deadline that overflows is a deadline that never fires.
    fn add(self, rhs: Duration) -> Instant {
        self.checked_add(rhs).unwrap_or(Instant::FAR_FUTURE)
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    /// Saturates at [`Instant::EPOCH`] instead of panicking.
    fn sub(self, rhs: Duration) -> Instant {
        self.checked_sub(rhs).unwrap_or(Instant::EPOCH)
    }
}

impl SubAssign<Duration> for Instant {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:?}", Duration::from_nanos(self.nanos))
    }
}

/// A source of [`Instant`]s plus an optional work-driven advance hook.
///
/// Implementations must be monotonic: successive [`Clock::now`] calls
/// never go backwards. [`Clock::tick`] is the bridge between search
/// effort and time — wall clocks ignore it, virtual clocks convert it
/// to nanoseconds at their configured rate.
pub trait Clock: fmt::Debug + Send + Sync {
    /// The current instant on this clock.
    fn now(&self) -> Instant;

    /// Credits `units` units of work (solver conflicts, simulation
    /// cycles, structural probes) to the clock. The default is a no-op,
    /// which is correct for real clocks — time passes on its own.
    fn tick(&self, units: u64) {
        let _ = units;
    }
}

/// The default clock: `std::time::Instant` measured against a lazily
/// initialized process-wide epoch. [`Clock::tick`] is a no-op.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WallClock;

fn wall_epoch() -> std::time::Instant {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    *EPOCH.get_or_init(std::time::Instant::now)
}

impl Clock for WallClock {
    fn now(&self) -> Instant {
        // The only `Instant::now` outside this call is the epoch
        // initialization above; `u64` nanoseconds hold ~584 years.
        let elapsed = std::time::Instant::now().duration_since(wall_epoch());
        Instant::from_nanos(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX))
    }
}

/// A deterministic clock advanced only by [`Clock::tick`] and
/// [`VirtualClock::advance`]: the same search performs the same ticks,
/// reads the same instants, and times out at the same point — on any
/// machine, at any `--threads`.
///
/// The conflict→time rate is fixed at construction: a clock built with
/// [`VirtualClock::with_tick`]`(r)` advances `r` nanoseconds per work
/// unit, so e.g. `with_tick(1_000_000)` makes each solver conflict cost
/// one virtual millisecond and a 50 ms budget expire at exactly the 50th
/// conflict. A rate of zero ([`VirtualClock::new`]) freezes time under
/// ticks; only manual `advance` moves it.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
    nanos_per_tick: u64,
}

impl VirtualClock {
    /// A virtual clock at the epoch whose ticks are free (rate 0).
    pub fn new() -> Arc<Self> {
        Self::with_tick(0)
    }

    /// A virtual clock at the epoch advancing `nanos_per_tick`
    /// nanoseconds per unit of ticked work.
    pub fn with_tick(nanos_per_tick: u64) -> Arc<Self> {
        Arc::new(VirtualClock {
            nanos: AtomicU64::new(0),
            nanos_per_tick,
        })
    }

    /// Moves time forward by `duration`. Saturates at
    /// `Instant::FAR_FUTURE`; never moves time backwards.
    pub fn advance(&self, duration: Duration) {
        self.advance_nanos(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    fn advance_nanos(&self, nanos: u64) {
        // fetch_update, not fetch_add: the saturating edge must not wrap
        // time back to the epoch.
        let _ = self
            .nanos
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_add(nanos))
            });
    }

    /// A [`ClockHandle`] viewing this clock.
    pub fn handle(self: &Arc<Self>) -> ClockHandle {
        ClockHandle::new(self.clone())
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Instant {
        Instant::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    fn tick(&self, units: u64) {
        if self.nanos_per_tick != 0 {
            self.advance_nanos(units.saturating_mul(self.nanos_per_tick));
        }
    }
}

/// A cheap, shareable reference to a [`Clock`] — the slot type every
/// budget, solver, and daemon carries. Cloning shares the underlying
/// clock, so a virtual clock installed at the budget layer is the same
/// clock every nested solver reads.
#[derive(Clone)]
pub struct ClockHandle(Arc<dyn Clock>);

impl ClockHandle {
    /// A handle on the process `WallClock` — the default everywhere.
    /// All wall handles share one clock instance, so they compare equal
    /// under [`ClockHandle::same_clock`].
    pub fn wall() -> Self {
        static WALL: OnceLock<Arc<dyn Clock>> = OnceLock::new();
        ClockHandle(WALL.get_or_init(|| Arc::new(WallClock)).clone())
    }

    /// A handle on an arbitrary clock implementation.
    pub(crate) fn new(clock: Arc<dyn Clock>) -> Self {
        ClockHandle(clock)
    }

    /// The current instant on the underlying clock.
    pub fn now(&self) -> Instant {
        self.0.now()
    }

    /// Credits `units` of work to the underlying clock (no-op on wall
    /// clocks).
    pub fn tick(&self, units: u64) {
        self.0.tick(units)
    }

    /// True when both handles view the same clock instance. Used by
    /// equality on budget types: two budgets are interchangeable only if
    /// their deadlines read the same time source.
    pub fn same_clock(&self, other: &ClockHandle) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Default for ClockHandle {
    fn default() -> Self {
        ClockHandle::wall()
    }
}

impl fmt::Debug for ClockHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClockHandle({:?})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_algebra() {
        let a = Instant::from_nanos(100);
        let b = Instant::from_nanos(350);
        assert_eq!(b.duration_since(a), Duration::from_nanos(250));
        assert_eq!(a.duration_since(b), Duration::ZERO);
        assert_eq!(b.checked_duration_since(a), Some(Duration::from_nanos(250)));
        assert_eq!(a.checked_duration_since(b), None);
        assert_eq!(a + Duration::from_nanos(250), b);
        assert_eq!(b - Duration::from_nanos(250), a);
        assert_eq!(b - a, Duration::from_nanos(250));
    }

    #[test]
    fn instant_saturates_instead_of_panicking() {
        assert_eq!(
            Instant::FAR_FUTURE + Duration::from_secs(1),
            Instant::FAR_FUTURE
        );
        assert_eq!(Instant::EPOCH - Duration::from_secs(1), Instant::EPOCH);
        assert_eq!(Instant::EPOCH.checked_sub(Duration::from_nanos(1)), None);
        assert_eq!(
            Instant::FAR_FUTURE.checked_add(Duration::from_nanos(1)),
            None
        );
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock;
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        c.tick(1_000_000); // no-op on wall clocks
        assert!(c.now() >= b);
    }

    #[test]
    fn virtual_clock_advances_by_rate_and_by_hand() {
        let vc = VirtualClock::with_tick(1_000);
        assert_eq!(vc.now(), Instant::EPOCH);
        vc.tick(3);
        assert_eq!(vc.now(), Instant::from_nanos(3_000));
        vc.advance(Duration::from_nanos(7));
        assert_eq!(vc.now(), Instant::from_nanos(3_007));
        let frozen = VirtualClock::new();
        frozen.tick(1_000_000);
        assert_eq!(frozen.now(), Instant::EPOCH, "rate 0 freezes ticks");
    }

    #[test]
    fn handle_shares_one_clock() {
        let vc = VirtualClock::with_tick(10);
        let h1 = vc.handle();
        let h2 = h1.clone();
        h1.tick(5);
        assert_eq!(h2.now(), Instant::from_nanos(50));
        assert!(h1.same_clock(&h2));
        assert!(!h1.same_clock(&ClockHandle::wall()));
    }
}
