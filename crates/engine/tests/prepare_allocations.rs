//! What a cold delta prepare asks of the allocator. Compile writes every
//! plan array once, at its final size: the number of allocations must not
//! depend on the input size, and the bytes requested per input tuple stay
//! under a fixed bound. A per-join-key allocation, a decision list that
//! grows by doubling, or a second copy of the successor CSR fails one of
//! the two.
//!
//! The allocator counts per thread, so the tests of this binary may run in
//! parallel; each measures only the prepare it makes on its own thread.

use anyk_engine::PreparedQuery;
use anyk_query::{QueryBuilder, QuerySpec, RankingFunction};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Forwards to the system allocator, counting this thread's allocations
/// (a `realloc` included) and the bytes they request.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Rows per relation of the path-4 inputs.
const SIZES: [usize; 3] = [2_000, 8_000, 32_000];

/// Allocations and bytes requested by one cold delta prepare of the path-4
/// query over `n` rows per relation: a fresh database, so every index is
/// built inside the prepare.
fn prepare(n: usize) -> (u64, u64) {
    let db = Arc::new(anyk_datagen::uniform::path_or_star_database(
        4,
        n,
        &mut anyk_datagen::rng(11),
    ));
    let spec = QuerySpec::from_query(
        &QueryBuilder::path(4).build(),
        RankingFunction::SumAscending,
    );
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let plan = PreparedQuery::from_spec_delta(db, &spec).expect("path-4 prepares");
    let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    assert!(plan.supports_refresh() && plan.count_answers() > 0);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn a_prepare_allocates_as_often_at_every_input_size() {
    let counts: Vec<u64> = SIZES.iter().map(|&n| prepare(n).0).collect();
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "allocations per prepare at n = {SIZES:?}: {counts:?}"
    );
}

/// Bytes requested per input tuple (four relations of `n` rows). The
/// measured figure is about 104 at every size in `SIZES`. A prepare that
/// also keeps a list of its decisions, a second CSR and one vector per join
/// key requests about 237.
const MAX_BYTES_PER_TUPLE: f64 = 128.0;

#[test]
fn a_prepare_requests_a_bounded_number_of_bytes_per_input_tuple() {
    for n in SIZES {
        let per_tuple = prepare(n).1 as f64 / (4 * n) as f64;
        assert!(
            per_tuple < MAX_BYTES_PER_TUPLE,
            "n = {n}: {per_tuple:.1} bytes requested per input tuple"
        );
    }
}
