//! Exhaustive schedule exploration of the pool's coordination
//! protocols (`ivm_parallel::model`), via the schedule explorer of
//! `ivm_race`.
//!
//! These tests pin the acceptance bar: the error-selection and shutdown
//! models each cover at least 280 distinct interleavings (three spawned
//! workers plus the caller's own chunk 0), the exploration is
//! bit-identical across runs, and the harness actually catches a
//! schedule-dependence bug in either model when handed one.

use ivm_parallel::model::{FirstErrorModel, Selection, ShutdownModel};
use ivm_race::explore::{replay, Explorer, Model, ScheduleBug, Status};

/// try_map's protocol: two failing chunks in different positions (the
/// caller's chunk 0 among them), so a racy selection could surface
/// either error depending on the schedule.
fn error_model() -> FirstErrorModel {
    FirstErrorModel {
        chunks: vec![
            vec![Ok(10), Err(17)],
            vec![Ok(20), Ok(21)],
            vec![Ok(30), Err(63)],
            vec![Ok(40), Ok(41)],
        ],
        selection: Selection::InputOrder,
    }
}

/// map_chunks' shutdown: the caller's chunk plus three workers; the
/// first worker panics mid-chunk.
fn shutdown_model() -> ShutdownModel {
    ShutdownModel {
        steps_per_chunk: vec![2, 3, 2, 2],
        panics: vec![(1, 1)],
        selection: Selection::InputOrder,
    }
}

#[test]
fn first_error_selection_holds_under_all_interleavings() {
    let model = error_model();
    let stats = Explorer::default()
        .explore(&model)
        .expect("input-order selection must be schedule independent");
    assert!(
        stats.interleavings >= 280,
        "exhaustive coverage too small: {stats:?}"
    );
    assert_eq!(model.oracle(), Err(17), "earliest error in input order");
}

#[test]
fn shutdown_joins_every_worker_under_all_interleavings() {
    let model = shutdown_model();
    let stats = Explorer::default()
        .explore(&model)
        .expect("scope shutdown must never leak a worker or lose a panic");
    assert!(
        stats.interleavings >= 280,
        "exhaustive coverage too small: {stats:?}"
    );
}

#[test]
fn panic_in_the_callers_chunk_waits_for_every_worker() {
    let model = ShutdownModel {
        panics: vec![(0, 0), (2, 1)],
        ..shutdown_model()
    };
    let stats = Explorer::default()
        .explore(&model)
        .expect("the caller's own panic must still drain the scope");
    assert!(stats.interleavings >= 280, "{stats:?}");
    assert_eq!(model.expected_panic(), Some(0));
}

#[test]
fn clean_shutdown_without_panics_is_also_covered() {
    let model = ShutdownModel {
        steps_per_chunk: vec![2, 2, 2, 2],
        panics: vec![],
        selection: Selection::InputOrder,
    };
    let stats = Explorer::default().explore(&model).expect("clean path");
    assert!(stats.interleavings >= 280, "{stats:?}");
    assert_eq!(model.expected_panic(), None);
}

#[test]
fn exploration_is_deterministic_across_runs() {
    for model in [error_model(), error_model()] {
        let a = Explorer::default().explore(&model).unwrap();
        let b = Explorer::default().explore(&model).unwrap();
        assert_eq!(a, b, "two explorations of the same model must agree");
    }
    let a = Explorer::default().explore(&shutdown_model()).unwrap();
    let b = Explorer::default().explore(&shutdown_model()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn harness_catches_completion_order_bug_with_replayable_counterexample() {
    let model = FirstErrorModel {
        selection: Selection::CompletionOrder,
        ..error_model()
    };
    let ScheduleBug { schedule, message } = Explorer::default()
        .explore(&model)
        .expect_err("completion-order selection is schedule dependent");
    assert!(message.contains("schedule-dependent"), "{message}");
    // The counterexample is a complete, replayable schedule.
    replay(&model, &schedule).expect("counterexample must replay");
}

#[test]
fn harness_catches_completion_order_panic_selection() {
    let model = ShutdownModel {
        panics: vec![(1, 2), (3, 0)],
        selection: Selection::CompletionOrder,
        ..shutdown_model()
    };
    let ScheduleBug { schedule, message } = Explorer::default()
        .explore(&model)
        .expect_err("re-raising the earliest panic on the wall clock is schedule dependent");
    assert!(message.contains("schedule-dependent"), "{message}");
    replay(&model, &schedule).expect("counterexample must replay");
}

#[test]
fn model_semantics_match_the_real_pool() {
    // The model's oracle and the real try_map agree on the same inputs,
    // at several widths — tying the abstraction back to the code it
    // models.
    let items: Vec<Result<u64, u64>> = vec![
        Ok(10),
        Err(17),
        Ok(20),
        Ok(21),
        Ok(30),
        Err(63),
        Ok(40),
        Ok(41),
    ];
    let expected = error_model().oracle();
    for threads in [1, 2, 3, 8] {
        let got = ivm_parallel::Pool::new(threads).try_map(&items, |item| *item);
        assert_eq!(got, expected, "threads={threads}");
    }
}

#[test]
fn blocked_threads_never_step() {
    // The caller runs its own chunk 0 first, then must be Blocked until
    // worker 1 finishes — the join-order constraint that makes
    // input-order selection sound.
    let model = error_model();
    let mut state = model.init();
    let caller = 0;
    assert_eq!(model.status(&state, caller), Status::Runnable);
    model.step(&mut state, caller); // Ok(10)
    model.step(&mut state, caller); // Err(17): chunk 0 short-circuits
    assert_eq!(model.status(&state, caller), Status::Blocked);
    model.step(&mut state, 1);
    model.step(&mut state, 1);
    assert_eq!(model.status(&state, caller), Status::Runnable);
}
