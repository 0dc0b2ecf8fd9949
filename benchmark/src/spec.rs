//! The benchmark's vocabulary: workload names and the metrics each run
//! emits. `BENCHMARK.json` at the repository root declares the same
//! sets (with the regression bounds); a unit test keeps the two equal.

/// The four workloads, each loading a different planner layer.
pub const WORKLOADS: [&str; 4] = ["plan-dense", "plan-sparse", "serve-open", "campaign"];

/// One metric: its name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Metrics of an untraced run, emitted by every workload. `setup_s` and
/// `cpu_ms` are process CPU time; `cpu_ms` is per unit operation, which
/// depends on the workload (one plan, one served request, one campaign
/// sweep). The README defines each.
pub const END_TO_END: &[MetricSpec] = &[
    lower("setup_s", "s"),
    lower("cpu_ms", "ms"),
    lower("energy_j", "J"),
    higher("slo_ratio", "ratio"),
    lower("peak_rss_mb", "MB"),
];

/// Metrics of a traced run, emitted by every workload; a layer the
/// workload does not exercise reads 0. Counts and times are per unit
/// operation unless the name says otherwise.
pub const PER_LAYER: &[MetricSpec] = &[
    lower("wsn.deploy_s", "s"),
    lower("context.candidate_builds", "count"),
    lower("context.matrix_builds", "count"),
    lower("context.power_table_builds", "count"),
    higher("context.hit_ratio", "ratio"),
    lower("candidates.build_s", "s"),
    lower("candidates.count", "count"),
    higher("candidates.speedup", "ratio"),
    lower("cover.s", "s"),
    lower("cover.bundles", "count"),
    lower("order.s", "s"),
    lower("order.stops", "count"),
    lower("tighten.s", "s"),
    lower("tighten.rounds", "count"),
    lower("tighten.gs_evals", "count"),
    lower("tighten.relocations", "count"),
    higher("tighten.anchors_pruned", "count"),
    higher("tighten.relocation_ratio", "ratio"),
    higher("plan.stage_coverage", "ratio"),
    lower("serve.latency_ms.tail", "ms"),
    lower("serve.latency_ms.full_p50", "ms"),
    lower("serve.latency_ms.degraded_p50", "ms"),
    lower("serve.latency_ms.sc_p50", "ms"),
    lower("serve.latency_ms.css_p50", "ms"),
    lower("serve.latency_ms.bc_p50", "ms"),
    lower("serve.latency_ms.bcopt_p50", "ms"),
    lower("serve.service_ms_p50", "ms"),
    lower("serve.shed", "count"),
    lower("serve.deadline", "count"),
    lower("serve.failed", "count"),
    lower("serve.rung_s", "s"),
    lower("serve.rungs_per_request", "ratio"),
    lower("serve.retries", "count"),
    higher("serve.dedup_hits", "count"),
    lower("serve.rebuilds", "count"),
    lower("serve.replans", "count"),
    lower("serve.gen_late_ms_p99", "ms"),
    higher("serve.max_rps", "1/s"),
    higher("serve.ladder.slo_20rps", "ratio"),
    higher("serve.ladder.slo_40rps", "ratio"),
    higher("serve.ladder.slo_60rps", "ratio"),
    higher("serve.ladder.slo_80rps", "ratio"),
    higher("serve.ladder.slo_100rps", "ratio"),
    lower("des.run_s", "s"),
    lower("des.self_s", "s"),
    lower("des.plan_s", "s"),
    higher("des.seed_coverage", "ratio"),
    lower("des.events_processed", "count"),
    lower("des.events_scheduled", "count"),
    lower("des.unprocessed_ratio", "ratio"),
    lower("des.rounds", "count"),
    lower("des.replans", "count"),
    higher("des.queue.calendar_events_per_s", "1/s"),
    higher("des.queue.heap_events_per_s", "1/s"),
    higher("des.queue.calendar_vs_heap", "ratio"),
    higher("campaign.parallel_efficiency", "ratio"),
    lower("obs.trace_overhead_ratio", "ratio"),
];

/// The spec of a metric by name, in either list.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_benchcheck::json::{parse, Json};
    use std::collections::BTreeSet;

    /// Whether `s` is a legal metric or workload name: 1 to 64
    /// characters from `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(s: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok_char)
    }

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
        match v.get(key) {
            Some(Json::Str(s)) => s,
            other => panic!("{key}: expected a string, got {other:?}"),
        }
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(items)) => items,
            other => panic!("{key}: expected an array, got {other:?}"),
        }
    }

    fn declared_metrics(doc: &Json, key: &str) -> BTreeSet<(String, String, bool)> {
        entries(doc, key)
            .iter()
            .map(|m| {
                let better = str_field(m, "better");
                assert!(better == "higher" || better == "lower", "{better}");
                (
                    str_field(m, "name").to_owned(),
                    str_field(m, "unit").to_owned(),
                    better == "higher",
                )
            })
            .collect()
    }

    fn emitted(list: &[MetricSpec]) -> BTreeSet<(String, String, bool)> {
        list.iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.higher_is_better))
            .collect()
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let unique: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("a/b"));
    }

    #[test]
    fn emitted_sets_equal_the_declared_sets() {
        let doc = declared();
        assert_eq!(declared_metrics(&doc, "end_to_end"), emitted(END_TO_END));
        assert_eq!(declared_metrics(&doc, "per_layer"), emitted(PER_LAYER));
        let workloads: BTreeSet<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| str_field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.into_iter().collect());
    }

    #[test]
    fn default_run_length_is_run_seconds() {
        match declared().get("run_seconds") {
            Some(Json::Num(s)) => assert_eq!(*s, crate::DEFAULT_SECONDS as f64),
            other => panic!("run_seconds: {other:?}"),
        }
    }

    #[test]
    fn declared_bounds_are_within_the_contract() {
        let doc = declared();
        for m in entries(&doc, "end_to_end") {
            match m.get("bound") {
                Some(Json::Num(b)) => assert!((0.0..=0.25).contains(b), "{b}"),
                other => panic!("bound: {other:?}"),
            }
        }
    }
}
