//! How the perf gate's ratios are timed: alternating pairs and their median.

use std::cell::{Cell, RefCell};
use wavepipe_bench::{alternating_pairs, median, PAIRS};

#[test]
fn pairs_alternate_which_side_runs_first_and_the_median_takes_the_middle() {
    // Each side's "wall time" is the tick at which it ran.
    let (order, clock) = (RefCell::new(String::new()), Cell::new(0));
    let side = |name| {
        order.borrow_mut().push(name);
        clock.set(clock.get() + 1);
        clock.get()
    };
    let pairs = alternating_pairs(|| side('a'), || side('b'));
    assert_eq!(PAIRS, 5);
    assert_eq!(order.into_inner(), "abbaabbaab");
    assert_eq!(pairs, [(1.0, 2.0), (4.0, 3.0), (5.0, 6.0), (8.0, 7.0), (9.0, 10.0)]);
    assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
}
