//! Text-mode experiment runner: regenerates every table and figure of the
//! paper's evaluation (Section 7) as plain-text tables.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p asrs-bench --bin experiments -- [--all] [--fig8] [--fig9]
//!     [--fig10] [--fig11] [--table1] [--fig12] [--table2] [--fig13] [--scale <f>]
//! ```
//!
//! With no flags, every experiment runs at its default (laptop-friendly)
//! cardinality.  `--scale` multiplies every cardinality, so the sweeps can
//! be pushed towards the paper's sizes on bigger machines.  Any other
//! argument prints the valid experiment names and exits with status 2.
//!
//! Every measured search goes through `AsrsEngine::submit`; where a figure
//! compares specific backends, the request pins one with
//! `QueryRequest::with_backend` — the API's escape hatch from the cost
//! model.  The sweep-line baseline is timed by calling
//! `SweepBase::search` directly.

use asrs_baseline::{OptimalEnclosure, SweepBase};
use asrs_bench::{format_duration, unit_query_size, Table, Workload};
use asrs_core::{AsrsEngine, Backend, QueryRequest, SearchConfig};
use std::time::Instant;

struct Options {
    scale: f64,
    run: Vec<String>,
}

/// Every name `--<name>` may select; `all` selects them all.
const EXPERIMENTS: [&str; 9] = [
    "all", "fig8", "fig9", "fig10", "fig11", "table1", "fig12", "table2", "fig13",
];

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut scale = 1.0;
    let mut run = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--scale needs a numeric argument")?;
            }
            other => match other.strip_prefix("--") {
                Some(name) if EXPERIMENTS.contains(&name) => run.push(name.to_string()),
                _ => {
                    return Err(format!(
                        "unknown argument: {other} (experiments: --{})",
                        EXPERIMENTS.join(", --")
                    ))
                }
            },
        }
    }
    Ok(Options { scale, run })
}

fn enabled(opts: &Options, name: &str) -> bool {
    opts.run.is_empty() || opts.run.iter().any(|r| r == "all") || opts.run.iter().any(|r| r == name)
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(100)
}

/// Figure 8: runtime vs query rectangle size, DS-Search vs Base.
fn fig8(scale: f64) {
    for workload in [Workload::Tweet, Workload::PoiSyn] {
        let n = scaled(20_000, scale);
        let base_n = scaled(5_000, scale);
        let dataset = workload.dataset(n, 42);
        let base_dataset = workload.dataset(base_n, 42);
        let aggregator = workload.aggregator(&dataset);
        let base_aggregator = workload.aggregator(&base_dataset);
        let engine = AsrsEngine::builder(dataset.clone(), aggregator)
            .build()
            .expect("valid configuration");
        let sweep = SweepBase::new(&base_dataset, &base_aggregator);
        let mut table = Table::new(
            &format!(
                "Figure 8 ({}): runtime vs query rectangle size (DS-Search at n={n}, Base at n={base_n})",
                workload.name()
            ),
            &["query size", "DS-Search", "Base (sweep line)"],
        );
        for k in [1.0, 4.0, 7.0, 10.0] {
            let query = workload.query(&dataset, k);
            let request = QueryRequest::similar(query).with_backend(Backend::DsSearch);
            let started = Instant::now();
            engine.submit(&request).unwrap();
            let ds_time = started.elapsed();
            let base_query = workload.query(&base_dataset, k);
            let started = Instant::now();
            sweep.search(&base_query).unwrap();
            let base_time = started.elapsed();
            table.row(vec![
                format!("{}q", k as u64),
                format_duration(ds_time),
                format_duration(base_time),
            ]);
        }
        table.print();
    }
}

/// Figure 9: DS-Search runtime vs n_col = n_row.
fn fig9(scale: f64) {
    for workload in [Workload::Tweet, Workload::PoiSyn] {
        let n = scaled(20_000, scale);
        let dataset = workload.dataset(n, 7);
        let aggregator = workload.aggregator(&dataset);
        let mut table = Table::new(
            &format!(
                "Figure 9 ({}): DS-Search runtime vs grid granularity (n={n})",
                workload.name()
            ),
            &["n_col = n_row", "q", "4q", "7q", "10q"],
        );
        for granularity in [10usize, 20, 30, 40, 50] {
            let config = SearchConfig::new()
                .with_grid(granularity, granularity)
                .unwrap();
            let engine = AsrsEngine::builder(dataset.clone(), aggregator.clone())
                .config(config)
                .build()
                .expect("valid configuration");
            let mut cells = vec![granularity.to_string()];
            for k in [1.0, 4.0, 7.0, 10.0] {
                let query = workload.query(&dataset, k);
                let request = QueryRequest::similar(query).with_backend(Backend::DsSearch);
                let started = Instant::now();
                engine.submit(&request).unwrap();
                cells.push(format_duration(started.elapsed()));
            }
            table.row(cells);
        }
        table.print();
    }
}

/// Figure 10: scalability of DS-Search vs Base (query size 10q).
fn fig10(scale: f64) {
    for workload in [Workload::Tweet, Workload::PoiSyn] {
        let mut table = Table::new(
            &format!(
                "Figure 10 ({}): runtime vs number of objects (query size 10q)",
                workload.name()
            ),
            &["objects", "DS-Search", "Base (sweep line)"],
        );
        for base_n in [1_000usize, 4_000, 7_000, 10_000] {
            let n = scaled(base_n, scale);
            let dataset = workload.dataset(n, 11);
            let aggregator = workload.aggregator(&dataset);
            let engine = AsrsEngine::builder(dataset.clone(), aggregator)
                .build()
                .expect("valid configuration");
            let query = workload.query(&dataset, 10.0);
            let request = QueryRequest::similar(query.clone()).with_backend(Backend::DsSearch);
            let started = Instant::now();
            engine.submit(&request).unwrap();
            let ds_time = started.elapsed();
            let (sweep_ds, sweep_agg) = (engine.dataset(), engine.aggregator());
            let sweep = SweepBase::new(&sweep_ds, &sweep_agg);
            let started = Instant::now();
            sweep.search(&query).unwrap();
            let base_time = started.elapsed();
            table.row(vec![
                n.to_string(),
                format_duration(ds_time),
                format_duration(base_time),
            ]);
        }
        table.print();
    }
}

/// Figure 11 + Table 1: GI-DS vs DS-Search across index granularities,
/// plus the fraction of index cells searched and the index sizes.
fn fig11_table1(scale: f64) {
    for workload in [Workload::Tweet, Workload::PoiSyn] {
        let n = scaled(100_000, scale);
        let dataset = workload.dataset(n, 3);
        let aggregator = workload.aggregator(&dataset);
        let plain_engine = AsrsEngine::builder(dataset.clone(), aggregator.clone())
            .build()
            .expect("valid configuration");
        let mut runtime_table = Table::new(
            &format!(
                "Figure 11 ({}): runtime vs grid-index granularity (n={n})",
                workload.name()
            ),
            &[
                "query size",
                "DS-Search",
                "64-GI-DS",
                "128-GI-DS",
                "256-GI-DS",
            ],
        );
        let mut ratio_table = Table::new(
            &format!(
                "Table 1 ({}): ratio of index cells searched and index size (n={n})",
                workload.name()
            ),
            &["granularity", "q", "4q", "7q", "10q", "index size"],
        );
        // One engine per index granularity, each forcing GI-DS so the
        // sweep measures the index, not the planner's choice.
        let engines: Vec<(usize, AsrsEngine)> = [64usize, 128, 256]
            .iter()
            .map(|&g| {
                let engine = AsrsEngine::builder(dataset.clone(), aggregator.clone())
                    .build_index(g, g)
                    .build()
                    .expect("non-empty dataset");
                (g, engine)
            })
            .collect();
        let mut ratios: Vec<Vec<String>> = engines
            .iter()
            .map(|(g, engine)| {
                let index = engine.index().expect("index built");
                vec![
                    format!("{g}x{g}"),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    format!("{:.1} MB", index.memory_bytes() as f64 / (1024.0 * 1024.0)),
                ]
            })
            .collect();
        for (ki, k) in [1.0, 4.0, 7.0, 10.0].iter().enumerate() {
            let query = workload.query(&dataset, *k);
            let started = Instant::now();
            plain_engine
                .submit(&QueryRequest::similar(query.clone()).with_backend(Backend::DsSearch))
                .unwrap();
            let mut row = vec![
                format!("{}q", *k as u64),
                format_duration(started.elapsed()),
            ];
            for (ii, (_, engine)) in engines.iter().enumerate() {
                let request = QueryRequest::similar(query.clone()).with_backend(Backend::GiDs);
                let started = Instant::now();
                let response = engine.submit(&request).unwrap();
                row.push(format_duration(started.elapsed()));
                let ratio = response.stats.index_search_ratio().unwrap_or(0.0);
                ratios[ii][ki + 1] = format!("{:.1}%", ratio * 100.0);
            }
            runtime_table.row(row);
        }
        for row in ratios {
            ratio_table.row(row);
        }
        runtime_table.print();
        ratio_table.print();
    }
}

/// Figure 12 + Table 2: the approximate solution — runtime vs δ and
/// cardinality, and the approximation quality d_app / d_opt, asserted to
/// stay within the (1+δ) guarantee in every cell.
fn fig12_table2(scale: f64) {
    for workload in [Workload::Tweet, Workload::PoiSyn] {
        let mut runtime_table = Table::new(
            &format!(
                "Figure 12 ({}): runtime of the approximate solution vs delta",
                workload.name()
            ),
            &[
                "objects",
                "delta=0.1",
                "delta=0.2",
                "delta=0.3",
                "delta=0.4",
            ],
        );
        let mut quality_table = Table::new(
            &format!(
                "Table 2 ({}): approximation quality d_app / d_opt",
                workload.name()
            ),
            &[
                "objects",
                "delta=0.1",
                "delta=0.2",
                "delta=0.3",
                "delta=0.4",
            ],
        );
        for base_n in [50_000usize, 100_000, 150_000] {
            let n = scaled(base_n, scale);
            let dataset = workload.dataset(n, 5);
            let aggregator = workload.aggregator(&dataset);
            let engine = AsrsEngine::builder(dataset.clone(), aggregator)
                .build_index(128, 128)
                .build()
                .expect("non-empty dataset");
            let query = workload.query(&dataset, 10.0);
            let exact = engine
                .submit(&QueryRequest::similar(query.clone()).with_backend(Backend::GiDs))
                .unwrap();
            let exact_distance = exact.best().expect("best region").distance;
            let mut runtime_row = vec![n.to_string()];
            let mut quality_row = vec![n.to_string()];
            for delta in [0.1, 0.2, 0.3, 0.4] {
                let request =
                    QueryRequest::approximate(query.clone(), delta).with_backend(Backend::GiDs);
                let started = Instant::now();
                let approx = engine.submit(&request).unwrap();
                runtime_row.push(format_duration(started.elapsed()));
                let approx_distance = approx.best().expect("best region").distance;
                assert!(
                    approx_distance <= (1.0 + delta) * exact_distance + 1e-9,
                    "{} n={n} δ={delta}: d_app {approx_distance} exceeds (1+δ)·d_opt {exact_distance}",
                    workload.name()
                );
                let quality = if exact_distance > 0.0 {
                    approx_distance / exact_distance
                } else {
                    1.0
                };
                quality_row.push(format!("{quality:.5}"));
            }
            runtime_table.row(runtime_row);
            quality_table.row(quality_row);
        }
        runtime_table.print();
        quality_table.print();
    }
}

/// Figure 13: MaxRS — the count reduction on DS-Search and on GI-DS vs
/// Optimal Enclosure.  One count engine with a 128 × 128 index serves
/// both pinned backends; GI-DS ranks its cells by a count summary laid on
/// that grid per request.
fn fig13(scale: f64) {
    let count_engine = |dataset: &asrs_data::Dataset| {
        let aggregator = asrs_aggregator::CompositeAggregator::builder(dataset.schema())
            .count(asrs_aggregator::Selection::All)
            .build()
            .expect("count works on every schema");
        AsrsEngine::builder(dataset.clone(), aggregator)
            .build_index(128, 128)
            .build()
            .expect("valid configuration")
    };
    // One row: the time of each pinned backend (the better of two runs, so
    // neither pays the generation's first location-index build) and of OE,
    // all agreeing.
    let row = |label: String, engine: &AsrsEngine, dataset: &asrs_data::Dataset, size| {
        let mut cells = vec![label];
        let mut counts = Vec::new();
        for backend in [Backend::DsSearch, Backend::GiDs] {
            let request = QueryRequest::max_rs(size).with_backend(backend);
            let mut best = std::time::Duration::MAX;
            for _ in 0..2 {
                let started = Instant::now();
                let response = engine.submit(&request).unwrap();
                best = best.min(started.elapsed());
                counts.push(response.max_rs().expect("max-rs outcome").count);
            }
            cells.push(format_duration(best));
        }
        let started = Instant::now();
        let oe = OptimalEnclosure::new(dataset, size).search().unwrap();
        cells.push(format_duration(started.elapsed()));
        assert_eq!(counts, [oe.count; 4], "every MaxRS solver must agree");
        cells
    };
    let n = scaled(100_000, scale);
    let dataset = asrs_bench::tweet_dataset(n, 17);
    let engine = count_engine(&dataset);
    let unit = unit_query_size(&dataset);
    let mut size_table = Table::new(
        &format!("Figure 13a: MaxRS runtime vs query rectangle size (n={n})"),
        &["query size", "DS-Search", "GI-DS", "OE"],
    );
    for k in [1.0, 10.0, 20.0, 30.0] {
        size_table.row(row(
            format!("{}q", k as u64),
            &engine,
            &dataset,
            unit.scaled(k),
        ));
    }
    size_table.print();

    let mut scale_table = Table::new(
        "Figure 13b: MaxRS runtime vs number of objects (query size 10q)",
        &["objects", "DS-Search", "GI-DS", "OE"],
    );
    for base_n in [25_000usize, 50_000, 100_000, 200_000] {
        let n = scaled(base_n, scale);
        let dataset = asrs_bench::tweet_dataset(n, 29);
        let size = unit_query_size(&dataset).scaled(10.0);
        scale_table.row(row(n.to_string(), &count_engine(&dataset), &dataset, size));
    }
    scale_table.print();
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("experiments: {message}");
            std::process::exit(2);
        }
    };
    println!(
        "# ASRS experiment runner (scale factor {:.2})\n",
        opts.scale
    );
    if enabled(&opts, "fig8") {
        fig8(opts.scale);
    }
    if enabled(&opts, "fig9") {
        fig9(opts.scale);
    }
    if enabled(&opts, "fig10") {
        fig10(opts.scale);
    }
    if enabled(&opts, "fig11") || enabled(&opts, "table1") {
        fig11_table1(opts.scale);
    }
    if enabled(&opts, "fig12") || enabled(&opts, "table2") {
        fig12_table2(opts.scale);
    }
    if enabled(&opts, "fig13") {
        fig13(opts.scale);
    }
    println!("done.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn known_experiments_and_scale_are_accepted() {
        let opts = parse("--fig8 --table2 --all --scale 0.01").unwrap();
        assert_eq!(opts.run, ["fig8", "table2", "all"]);
        assert_eq!(opts.scale, 0.01);
        assert!(parse("").unwrap().run.is_empty());
    }

    #[test]
    fn unknown_experiments_are_rejected_with_the_valid_list() {
        for line in [
            "--fig14",
            "--fig08",
            "--fig8 --figure9",
            "fig8",
            "--scale x",
        ] {
            assert!(parse(line).is_err(), "{line:?} must be rejected");
        }
        let message = parse("--fig14").err().unwrap();
        assert!(message.contains("--fig14"), "{message}");
        assert!(message.contains("--fig13"), "{message}");
    }
}
