//! Step keys: which linear stamp a cached object belongs to, and the one rule
//! that decides which keys the step-keyed caches keep.
//!
//! Two caches are keyed by the linear part of a stamp: the Newton cache's
//! numeric factor sets ([`crate::newton::LinearCache`]) and the companion
//! cache's linear-matrix snapshots (`mna::StampCaches`). Both hold an active
//! entry and [`PARKED_SETS`] parked ones, and both keep them by the same
//! [`KeyedSlots`].

use crate::mna::StampInput;

/// Parked entries each step-keyed cache keeps beside its active one: five in
/// all. After every source corner a transient run climbs a step ladder
/// (`h, 2h, 4h, 8h`, now and then a longer rung), and the next corner asks
/// again for rungs the last one left; an LRU stops missing on a ladder only
/// once it holds the ladder and more, so the misses fall with every entry:
/// `power_grid(32,32)` serial factors 376, 375, 374, 89, 44 and 17 times
/// with one to six sets. Five is where the benchmark's memory bound stops the
/// factor sets (DESIGN.md "Why four parked sets" has the table and what the
/// fifth cost and the sixth would); a companion snapshot is the matrix's
/// values alone, a fraction of a factor set.
pub(crate) const PARKED_SETS: usize = 4;

/// Relative distance within which two leading integration coefficients are
/// one step: `2^-36`. The step of a point is `t_new − t_old`, so the same
/// nominal step carries the time axis's roundoff, and its `a0` comes back a
/// few ulps off after every source corner — 1e-13 to 2e-12 relative on the
/// suite's grids. Distinct steps sit far outside: BE and TRAP at one `h`
/// differ by 2x, lattice rungs by `√rmax`, LTE-controlled steps almost never
/// come within 1e-11 of each other.
pub(crate) const TWIN_REL: f64 = 1.0 / (1u64 << 36) as f64;

/// Relative distance within which a key no twin holds may take the factor
/// set of another transient key: `2^-4`. Chord Newton tolerates stale
/// factors (an inexact Newton method); a set whose `a0` lies this near
/// changes each companion conductance by at most a sixteenth, and its chord
/// steps still contract. Only the factor sets take such a key
/// ([`KeyedSlots::near`]), and only where a refactorization costs several
/// solves (`newton::NEAR_MIN_WEIGHT`). `2^-4` is the widest power of two at
/// which the serial 32x32 grid takes no near set and keeps every bit; at
/// `2^-3` it does, and the pipelined grid is no faster (EXPERIMENTS.md E33).
pub(crate) const NEAR_REL: f64 = 1.0 / 16.0;

/// Key identifying which assembled *linear* matrix (node shunts, resistors,
/// sources, reactive companion conductances) a cached object corresponds to.
/// Everything else a linear stamp's matrix entries depend on is compile-time
/// constant; the RHS (time, history, `source_scale`) is always re-emitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinKey {
    /// DC stamp (capacitors open, inductors short).
    dc: bool,
    /// The leading integration coefficient `a0` (the only coefficient that
    /// reaches matrix entries: `geq = c*a0`, `leq = l*a0`).
    a0: f64,
    /// Bit pattern of the continuation node shunt.
    gshunt: u64,
    /// `UIC` initial-condition stamp.
    ic: bool,
}

impl LinKey {
    /// The key the given stamp inputs select.
    pub(crate) fn of(input: &StampInput<'_>) -> Self {
        LinKey {
            dc: input.coeffs.is_none(),
            a0: input.coeffs.map_or(0.0, |c| c.a0),
            gshunt: input.gshunt.to_bits(),
            ic: input.ic_mode,
        }
    }

    /// Whether `self` and `other` are one step: the same analysis mode and
    /// shunt bits, and `a0` values within [`TWIN_REL`] of each other. A
    /// cached object of one serves the other; the matrix it belongs to
    /// differs from the other's by at most that much in each companion
    /// conductance.
    pub(crate) fn twin(self, other: LinKey) -> bool {
        self.dc == other.dc
            && self.ic == other.ic
            && self.gshunt == other.gshunt
            && (self.a0 - other.a0).abs() <= TWIN_REL * self.a0.abs().max(other.a0.abs())
    }

    /// How far `other`'s `a0` lies from `self`'s, relative to the larger of
    /// the two, where both are transient stamps of the same flags and lie
    /// within [`NEAR_REL`] of each other; `None` otherwise, and always for a
    /// DC key.
    fn near(self, other: LinKey) -> Option<f64> {
        let same = !self.dc && !other.dc && self.ic == other.ic && self.gshunt == other.gshunt;
        let (gap, scale) = ((self.a0 - other.a0).abs(), self.a0.abs().max(other.a0.abs()));
        (same && gap <= NEAR_REL * scale).then(|| gap / scale)
    }
}

/// Which [`LinKey`] each entry of a step-keyed cache — the active one and
/// [`PARKED_SETS`] parked ones — belongs to, and the one rule that moves
/// them: *keep the entries of the keys most recently used*. The cache that
/// owns it stores the entries and trades them as [`KeyedSlots::turn`] says.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct KeyedSlots {
    /// Key of the entry in use. `None` while it belongs to no key (nothing
    /// computed yet, or computed along a path the caller abandoned).
    active: Option<LinKey>,
    /// Key of the entry parked in each slot; `None` while the slot holds
    /// nothing usable.
    parked: [Option<LinKey>; PARKED_SETS],
    /// The recency order: `clock` as it read when each slot last took the
    /// entry that was active. The lowest belongs to the least recently
    /// active.
    parked_at: [u64; PARKED_SETS],
    /// Counts the trades.
    clock: u64,
}

/// What a key finds in a [`KeyedSlots`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyTurn {
    /// The active entry belongs to this key or its twin.
    Hit,
    /// The entry parked in this slot does: trade places and reuse it.
    ParkedHit(usize),
    /// None does, and the active entry is worth keeping: trade places with
    /// this slot so the entry computed next overwrites what it held — an
    /// empty slot first, else the least recently active entry.
    Park(usize),
    /// None does, and the active entry's key is gone: compute over it.
    Miss,
}

impl KeyedSlots {
    /// The rule: twin keys are one key, least recently active out.
    pub(crate) fn turn(&self, key: LinKey) -> KeyTurn {
        let is = |held: Option<LinKey>| held.is_some_and(|k| k.twin(key));
        if is(self.active) {
            KeyTurn::Hit
        } else if let Some(slot) = self.parked.iter().position(|&k| is(k)) {
            KeyTurn::ParkedHit(slot)
        } else if self.active.is_some() {
            let oldest = (0..PARKED_SETS)
                .min_by_key(|&s| (self.parked[s].is_some(), self.parked_at[s]))
                .expect("PARKED_SETS is not zero");
            KeyTurn::Park(oldest)
        } else {
            KeyTurn::Miss
        }
    }

    /// For a key [`KeyedSlots::turn`] found no twin for: the entry of the
    /// key nearest it within [`NEAR_REL`] ([`KeyTurn::Hit`] for the active
    /// one, [`KeyTurn::ParkedHit`] for a parked one; the active one, then the
    /// lowest slot, on a tie), or `None`. The entry keeps its own key, so
    /// keys never drift. Only the factor sets ask: a linear stamp must be
    /// exact, so the companion cache keeps to `turn`.
    pub(crate) fn near(&self, key: LinKey) -> Option<KeyTurn> {
        let gap = |held: Option<LinKey>| held.and_then(|k| k.near(key));
        let active = gap(self.active).map(|d| (d, KeyTurn::Hit));
        let parked = (0..PARKED_SETS)
            .filter_map(|s| gap(self.parked[s]).map(|d| (d, KeyTurn::ParkedHit(s))));
        active.into_iter().chain(parked).min_by(|a, b| a.0.total_cmp(&b.0)).map(|(_, turn)| turn)
    }

    /// The active entry traded places with the one in `turn`'s slot
    /// ([`KeyTurn::ParkedHit`] or [`KeyTurn::Park`]). After a park the entry
    /// now active is the one about to be overwritten, so it has no key.
    pub(crate) fn swapped(&mut self, turn: KeyTurn) {
        let (KeyTurn::ParkedHit(slot) | KeyTurn::Park(slot)) = turn else {
            return;
        };
        std::mem::swap(&mut self.active, &mut self.parked[slot]);
        if matches!(turn, KeyTurn::Park(_)) {
            self.active = None;
        }
        self.clock += 1;
        self.parked_at[slot] = self.clock;
    }

    /// The active entry now holds what `key` selects.
    pub(crate) fn filled(&mut self, key: LinKey) {
        self.active = Some(key);
    }

    /// The active entry was computed along a path the caller abandoned. The
    /// parked ones were not.
    pub(crate) fn clear_active(&mut self) {
        self.active = None;
    }

    /// Every parked entry is gone (the factor sets' plan was replaced).
    pub(crate) fn clear_parked(&mut self) {
        self.parked = [None; PARKED_SETS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::{IntegCoeffs, Method};

    /// The key of a transient step of size `h` under `method`.
    fn step(method: Method, h: f64) -> LinKey {
        LinKey { dc: false, a0: IntegCoeffs::new(method, h, h).a0, gshunt: 0, ic: false }
    }

    #[test]
    fn a_step_s_roundoff_twins_along_the_time_axis_are_one_key() {
        // `t + h − t` for one `h` at every point of a 24 ns axis: the step a
        // point takes after a source corner, with the axis's roundoff.
        for method in [Method::BackwardEuler, Method::Trapezoidal, Method::Gear2] {
            for h in [1.25e-11, 2.5e-11, 1e-10, 3.125e-10] {
                let nominal = step(method, h);
                let mut moved = 0;
                for k in 0..=2400 {
                    let t = f64::from(k) * 1e-11;
                    let twin_h = (t + h) - t;
                    moved += usize::from(twin_h != h);
                    let twin = step(method, twin_h);
                    assert!(twin.twin(nominal) && nominal.twin(twin), "{method:?} {h:e} at {t:e}");
                }
                assert!(moved > 1000, "{method:?} {h:e}: only {moved} steps moved");
            }
        }
    }

    #[test]
    fn other_steps_other_methods_and_other_stamps_are_other_keys() {
        let h = 2.5e-11;
        let trap = step(Method::Trapezoidal, h);
        for other in [h * 2f64.sqrt(), h * 2.0, h / 2f64.sqrt(), h / 2.0, h * (1.0 + 1e-9)] {
            assert!(!step(Method::Trapezoidal, other).twin(trap), "{other:e}");
        }
        assert!(!step(Method::BackwardEuler, h).twin(trap));
        let dc = LinKey { dc: true, a0: 0.0, gshunt: 0, ic: false };
        assert!(dc.twin(dc));
        assert!(!LinKey { ic: true, ..dc }.twin(dc));
        assert!(!LinKey { gshunt: 1e-9f64.to_bits(), ..dc }.twin(dc));
        assert!(!LinKey { gshunt: 1e-9f64.to_bits(), ..trap }.twin(trap));
        assert!(!dc.twin(trap) && !trap.twin(dc));
    }

    /// The key of a trapezoidal step of `h` picoseconds.
    fn ps(h: f64) -> LinKey {
        step(Method::Trapezoidal, h * 1e-12)
    }

    /// Slots holding `parked` (in slot order), then `active`, as a run of
    /// keys leaves them; an active `None` is a point rejected after them.
    fn holding(parked: &[LinKey], active: Option<LinKey>) -> KeyedSlots {
        let mut keys = KeyedSlots::default();
        for &k in parked.iter().chain([&active.unwrap_or(ps(1e4))]) {
            keys.swapped(keys.turn(k));
            keys.filled(k);
        }
        if active.is_none() {
            keys.clear_active();
        }
        keys
    }

    #[test]
    fn a_key_no_twin_holds_takes_the_nearest_set_and_the_companion_turn_does_not() {
        let keys = holding(&[ps(60.0), ps(66.0), ps(75.0)], Some(ps(57.0)));
        // `turn`, which the companion cache keeps to, still parks ...
        assert_eq!(keys.turn(ps(64.0)), KeyTurn::Park(3));
        assert_eq!(holding(&[ps(66.0)], None).turn(ps(64.0)), KeyTurn::Miss);
        // ... where `near` finds the nearest set, active or parked.
        assert_eq!(keys.near(ps(64.0)), Some(KeyTurn::ParkedHit(1)));
        assert_eq!(keys.near(ps(58.0)), Some(KeyTurn::Hit));
        assert_eq!(keys.near(ps(72.0)), Some(KeyTurn::ParkedHit(2)));
        assert_eq!((keys.near(ps(90.0)), keys.near(ps(45.0))), (None, None));
        // An abandoned active set is no candidate.
        let rejected = holding(&[ps(75.0)], None);
        assert_eq!(
            (rejected.near(ps(58.0)), rejected.near(ps(74.0))),
            (None, Some(KeyTurn::ParkedHit(0)))
        );
    }

    #[test]
    fn the_near_bound_holds_on_both_sides() {
        // Relative to the larger `a0`: `a0 (1 - NEAR_REL)` and
        // `a0 / (1 - NEAR_REL)` lie on the bound, a hair further beyond it.
        let held = ps(25.0);
        let (below, above) = (held.a0 * (1.0 - NEAR_REL), held.a0 / (1.0 - NEAR_REL));
        for (a0, near) in [(below, true), (below * (1.0 - 1e-12), false)]
            .into_iter()
            .chain([(above * (1.0 - 1e-12), true), (above * (1.0 + 1e-12), false)])
        {
            let other = LinKey { a0, ..held };
            assert_eq!(holding(&[], Some(held)).near(other).is_some(), near, "{a0:e}");
            assert_eq!(holding(&[], Some(other)).near(held).is_some(), near, "{a0:e}");
        }
    }

    #[test]
    fn a_near_key_must_match_the_flags_and_is_never_a_dc_key() {
        let (trap, keys) = (ps(64.0), holding(&[], Some(ps(66.0))));
        assert!(keys.near(trap).is_some());
        for other in [LinKey { ic: true, ..trap }, LinKey { gshunt: 1e-9f64.to_bits(), ..trap }] {
            assert_eq!(keys.near(other), None);
        }
        // DC keys all carry `a0 = 0`: a DC key is near nothing, and a DC set
        // serves no near key.
        let dc = LinKey { dc: true, a0: 0.0, gshunt: 0, ic: false };
        assert_eq!(holding(&[], Some(dc)).near(dc), None);
        assert_eq!(holding(&[], Some(LinKey { dc: true, ..trap })).near(trap), None);
        assert_eq!(keys.near(LinKey { dc: true, ..ps(66.0) }), None);
    }

    /// Key number `k` (0..8): eight steps spaced an octave apart. Its twin
    /// `k + 10` is the same step a few ulps off.
    fn key(k: u8) -> LinKey {
        let h = 1e-11 * f64::from(1u32 << (k % 10));
        let h = if k >= 10 { (3.7e-9 + h) - 3.7e-9 } else { h };
        step(Method::Trapezoidal, h)
    }

    proptest::proptest! {
        /// [`KeyedSlots`] against the textbook list: the keys entries are
        /// held for, most recently active first, five at most, a twin being
        /// its key; the front is the active entry's (`None` once its point
        /// was rejected). Any mix of uses of a key (0..8, or its twin 10..18),
        /// rejected points (8) and dropped parked entries (9) takes both to
        /// the same keys by the same kind of turn.
        #[test]
        fn keyed_slots_are_an_lru_of_five_over_twin_keys(
            ops in proptest::collection::vec((0u8..10, 0u8..2), 0..200),
        ) {
            assert!(key(13) != key(3) && key(13).twin(key(3)), "key 13 is a twin of key 3");
            let mut keys = KeyedSlots::default();
            let mut lru: Vec<Option<u8>> = Vec::new();
            for (op, twin) in ops {
                match op {
                    8 => {
                        keys.clear_active();
                        lru.iter_mut().take(1).for_each(|front| *front = None);
                    }
                    9 => {
                        keys.clear_parked();
                        lru.truncate(1);
                    }
                    k => {
                        let want = match lru.iter().position(|&held| held == Some(k)) {
                            Some(0) => KeyTurn::Hit,
                            Some(_) => KeyTurn::ParkedHit(0),
                            None if lru.first().copied().flatten().is_some() => KeyTurn::Park(0),
                            None => KeyTurn::Miss,
                        };
                        lru.retain(|&held| held != Some(k));
                        if lru.first() == Some(&None) {
                            lru.remove(0);
                        }
                        lru.insert(0, Some(k));
                        lru.truncate(1 + PARKED_SETS);

                        let asked = key(if twin == 1 { k + 10 } else { k });
                        let turn = keys.turn(asked);
                        // The same kind of turn, whichever slot.
                        proptest::prop_assert!(
                            std::mem::discriminant(&turn) == std::mem::discriminant(&want),
                            "{turn:?} where the list says {want:?}"
                        );
                        keys.swapped(turn);
                        if matches!(turn, KeyTurn::Park(_) | KeyTurn::Miss) {
                            keys.filled(asked);
                        }
                    }
                }
                let same = |held: Option<LinKey>, k: Option<u8>| match (held, k) {
                    (Some(h), Some(k)) => h.twin(key(k)),
                    (h, k) => h.is_none() && k.is_none(),
                };
                proptest::prop_assert!(same(keys.active, lru.first().copied().flatten()));
                let mut parked: Vec<u8> = lru.iter().skip(1).map(|k| k.unwrap()).collect();
                parked.sort_unstable();
                let held: Vec<u8> = (0..8)
                    .filter(|&k| keys.parked.iter().any(|&p| same(p, Some(k))))
                    .collect();
                proptest::prop_assert_eq!(&held, &parked);
                proptest::prop_assert_eq!(keys.parked.iter().flatten().count(), held.len());
            }
        }
    }
}
