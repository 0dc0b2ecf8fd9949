//! A `RemoveSensor` request plans only on the revision it creates: the
//! mutation repairs an empty plan, so nothing is planned on the revision
//! it replaces.
//!
//! Service workers emit to the process-wide recorder (a thread-local one
//! would not reach them), so this file holds a single test and runs as
//! its own binary, where no other test can emit into the recorder.

use std::sync::Arc;

use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{PlanError, PlannerConfig};
use bundle_charging::geom::Aabb;
use bundle_charging::obs::{self, recorders::StatsRecorder};
use bundle_charging::serve::{PlanRequest, PlanService, ServeConfig, ServeError};
use bundle_charging::wsn::deploy;

#[test]
fn remove_sensor_plans_only_the_new_revision() {
    let recorder = Arc::new(StatsRecorder::new());
    obs::install(recorder.clone());
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let svc = PlanService::start(cfg).expect("valid config");
    let net = deploy::uniform(40, Aabb::square(300.0), 2.0, 5);
    let id = svc.register(net, PlannerConfig::paper_sim(10.0));

    let resp = svc
        .call(PlanRequest::remove_sensor(id, Algorithm::Sc, 0))
        .expect("replan");
    assert_eq!(resp.revision, 1);
    assert_eq!(resp.plan.num_charging_stops(), 39);
    let after_replan = recorder.snapshot();

    // An out-of-range sensor is the planner's typed error, and plans
    // nothing either.
    let err = svc
        .call(PlanRequest::remove_sensor(id, Algorithm::Sc, 10_000))
        .expect_err("sensor out of range");
    drop(svc);
    obs::uninstall();
    assert_eq!(
        err,
        ServeError::Plan(PlanError::SensorOutOfBounds {
            sensor: 10_000,
            len: 39
        })
    );

    assert_eq!(
        after_replan.span_count("plan.run"),
        1,
        "one SC plan, on revision 1"
    );
    assert_eq!(
        after_replan.counter("plan.build.candidates"),
        0,
        "SC needs no candidates"
    );
    let end = recorder.snapshot();
    assert_eq!(
        end.span_count("plan.run"),
        1,
        "a rejected replan plans nothing"
    );
    assert_eq!(end.counter("serve.replans"), 1);
}
