//! Pins the error-handling contract: every public error enum in the
//! workspace implements `std::error::Error + Send + Sync + 'static`, so
//! all of them box into `Box<dyn Error + Send + Sync>` and cross thread
//! boundaries (the bc-serve worker pool relies on this).

use std::error::Error;

use bundle_charging::core::contracts::ContractViolation;
use bundle_charging::core::{ConfigError, ExecError, FaultModelError, PlanError, SortieError};
use bundle_charging::des::{DesError, ScenarioError};
use bundle_charging::serve::ServeError;

/// Compile-time check that `E` satisfies the full contract.
fn assert_error_contract<E: Error + Send + Sync + 'static>() {}

#[test]
fn every_public_error_enum_is_a_full_error() {
    assert_error_contract::<ConfigError>();
    assert_error_contract::<PlanError>();
    assert_error_contract::<ExecError>();
    assert_error_contract::<SortieError>();
    assert_error_contract::<FaultModelError>();
    assert_error_contract::<ContractViolation>();
    assert_error_contract::<DesError>();
    assert_error_contract::<ScenarioError>();
    assert_error_contract::<ServeError>();
}

#[test]
fn errors_box_and_cross_threads() {
    let boxed: Box<dyn Error + Send + Sync> = Box::new(ServeError::Shed {
        queued: 4,
        capacity: 4,
    });
    let handle = std::thread::spawn(move || boxed.to_string());
    let msg = handle.join().expect("thread");
    assert!(
        msg.contains("shed"),
        "display should mention shedding: {msg}"
    );
}

#[test]
fn wrapped_plan_errors_expose_a_source() {
    let err = ServeError::Plan(PlanError::Unassigned { sensor: 3 });
    let source = err.source().expect("ServeError::Plan carries a source");
    assert!(source.is::<PlanError>() || source.to_string().contains("3"));
}
