//! Static thread-safety assertions: the concurrent engine only works if
//! its building blocks are `Send` (movable into worker threads) and, for
//! everything shared behind an `Arc`, `Sync`. These asserts are the
//! compile-time contract — if a future change sneaks an `Rc` or a bare
//! `Cell` back into one of these types, this file stops compiling rather
//! than letting the worker pool become unsound.

use mix_buffer::{
    BufferNavigator, BufferStats, ConcurrentPrefetcher, FaultyWrapper, FragmentCache,
    MetricsRegistry, OverlapGauge, SlowWrapper, SourceHealth, TraceSink, TreeWrapper,
};
use mix_core::{Engine, SourceRegistry, TraceLog, VirtualDocument, VNode};
use mix_nav::HandleTable;

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn engine_stack_is_send() {
    // Owned by one thread at a time, movable between threads.
    assert_send::<Engine>();
    assert_send::<SourceRegistry>();
    assert_send::<BufferNavigator<TreeWrapper>>();
    assert_send::<BufferNavigator<SlowWrapper<TreeWrapper>>>();
    assert_send::<BufferNavigator<FaultyWrapper<TreeWrapper>>>();
    assert_send::<BufferNavigator<ConcurrentPrefetcher<TreeWrapper>>>();
    assert_send::<VNode>();
    // An engine registered as another engine's source (Figure 1).
    assert_send::<HandleTable<Engine>>();
}

#[test]
fn shared_observability_is_send_and_sync() {
    // Cloned into prefetch workers and parallel exchange tasks; every
    // clone may be read or written from any thread concurrently.
    assert_send_sync::<VirtualDocument>();
    assert_send_sync::<FragmentCache>();
    assert_send_sync::<MetricsRegistry>();
    assert_send_sync::<TraceSink>();
    assert_send_sync::<TraceLog>();
    assert_send_sync::<SourceHealth>();
    assert_send_sync::<BufferStats>();
    assert_send_sync::<OverlapGauge>();
}
