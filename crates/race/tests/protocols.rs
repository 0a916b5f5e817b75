//! Gate acceptance for the model checker: the serve protocol model
//! explores its whole interleaving floor, its seeded shutdown
//! lost-wakeup foil is caught, and the counterexample replays to the
//! reported deadlock.

use ivm_race::{replays_to_deadlock, Explorer, ServeFoil, ServeModel};

fn serve(foil: ServeFoil) -> ServeModel {
    ServeModel { sessions: 2, foil }
}

#[test]
fn the_serve_model_explores_its_interleaving_floor() {
    let stats = Explorer::default()
        .explore(&serve(ServeFoil::None))
        .unwrap();
    assert!(stats.interleavings >= 704, "{stats:?}");
}

#[test]
fn the_lost_wakeup_foil_yields_a_replayable_deadlock() {
    let model = serve(ServeFoil::SkipSocketShutdown);
    let bug = Explorer::default()
        .explore(&model)
        .expect_err("lost wakeup must be caught");
    assert!(bug.message.contains("deadlock"), "{bug}");
    assert!(replays_to_deadlock(&model, &bug.schedule).unwrap());
}

#[test]
fn protocol_exploration_statistics_are_deterministic() {
    let a = Explorer::default()
        .explore(&serve(ServeFoil::None))
        .unwrap();
    let b = Explorer::default()
        .explore(&serve(ServeFoil::None))
        .unwrap();
    assert_eq!(a, b);
}
