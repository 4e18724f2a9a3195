//! The workload-model artifacts (§4): Table 1 and Figures 3 and 6–9,
//! computed from the synthetic production trace without a ring.

use std::fmt::{self, Write};

use toto_fleet::{FleetExecutor, FleetTask, NullObserver};
use toto_models::createdrop::CreateDropModel;
use toto_models::training::{train_hourly_table, train_steady_state, HourlyObservation};
use toto_simcore::rng::DetRng;
use toto_simcore::time::{DayKind, SimDuration, SimTime};
use toto_spec::EditionKind;
use toto_stats::binning::EqualProbabilityBins;
use toto_stats::describe::five_number_summary;
use toto_stats::dist::{Distribution, Normal};
use toto_stats::dtw::dtw_distance;
use toto_stats::error::rmse;
use toto_stats::kde::GaussianKde;
use toto_telemetry::synth::{RegionProfile, SynthConfig, TraceGenerator};

use super::{completed, push_table, Study};

/// Table 1: features used by the create and drop models (§4.1.3), printed
/// together with the resulting model-count arithmetic (2 x 24 x 2 = 96
/// Create DB models and 96 Drop DB models).
pub(super) fn tab01(_: &Study, out: &mut String) -> fmt::Result {
    out.push_str("Table 1 — features used for create and drop models\n\n");
    let rows = vec![
        vec!["Temporal".to_string(), "Weekend vs. Weekday".to_string()],
        vec!["Temporal".to_string(), "Hours".to_string()],
        vec![
            "Database Edition".to_string(),
            "Standard/GP vs. Premium/BC".to_string(),
        ],
    ];
    push_table(out, &["Features", "Values"], &rows);
    let day_kinds = 2;
    let hours = 24;
    let editions = 2;
    writeln!(
        out,
        "model count: {day_kinds} day kinds x {hours} hours x {editions} editions = {} Create DB models and {} Drop DB models",
        day_kinds * hours * editions,
        day_kinds * hours * editions
    )
}

/// Figure 3: (a) daily local-store database fraction per cluster for two
/// regions (dispersion box plots); (b) average CPU vs memory utilization
/// of non-idle databases over a daytime window.
pub(super) fn fig03(_: &Study, out: &mut String) -> fmt::Result {
    out.push_str("Figure 3(a) — daily % of DBs that are local-store, per cluster\n\n");
    let mut rows = Vec::new();
    for region in [RegionProfile::region1(), RegionProfile::region2()] {
        let name = region.name.clone();
        let gen = TraceGenerator::new(SynthConfig { seed: 42, region });
        let fractions: Vec<f64> = gen
            .local_store_fractions(60, 7)
            .iter()
            .map(|f| f * 100.0)
            .collect();
        let s = five_number_summary(&fractions);
        rows.push(vec![name, s.render()]);
    }
    push_table(out, &["region", "box plot (percent)"], &rows);

    out.push_str("Figure 3(b) — average CPU vs memory utilization (idle removed)\n\n");
    let gen = TraceGenerator::new(SynthConfig {
        seed: 42,
        region: RegionProfile::region1(),
    });
    let pts = gen.utilization_scatter(5000);
    // Render the scatter as a coarse 2D histogram.
    let mut grid = [[0u32; 10]; 10];
    for (cpu, mem) in &pts {
        let x = ((cpu / 10.0) as usize).min(9);
        let y = ((mem / 10.0) as usize).min(9);
        grid[y][x] += 1;
    }
    out.push_str("      CPU%  0-10 10-20 ... 90-100 (columns), Memory% rows top=90-100\n");
    for y in (0..10).rev() {
        let row: Vec<String> = (0..10).map(|x| format!("{:>5}", grid[y][x])).collect();
        writeln!(out, "{:>3}% | {}", y * 10, row.join(" "))?;
    }
    let low = pts.iter().filter(|(c, _)| *c < 25.0).count();
    writeln!(
        out,
        "\n{:.1}% of databases sit below 25% CPU — the low-utilization mass that",
        low as f64 / pts.len() as f64 * 100.0
    )?;
    out.push_str("motivates resource-level (not TPC-x) benchmarking (§2).\n");
    Ok(())
}

/// The region-1 trace generator Figures 6–8 train and validate on.
fn region1_seed7() -> TraceGenerator {
    TraceGenerator::new(SynthConfig {
        seed: 7,
        region: RegionProfile::region1(),
    })
}

/// Figure 6: dispersion box plots of creates per hour-of-day, for
/// Standard/GP weekday/weekend (a, b) and Premium/BC weekday/weekend
/// (c, d), from the synthetic production trace.
pub(super) fn fig06(_: &Study, out: &mut String) -> fmt::Result {
    let gen = region1_seed7();
    for (panel, edition, day) in [
        ("a", EditionKind::StandardGp, DayKind::Weekday),
        ("b", EditionKind::StandardGp, DayKind::Weekend),
        ("c", EditionKind::PremiumBc, DayKind::Weekday),
        ("d", EditionKind::PremiumBc, DayKind::Weekend),
    ] {
        writeln!(
            out,
            "Figure 6({panel}) — {edition} {day:?} creates per hour of day\n"
        )?;
        let trace = gen.hourly_creates(edition, 8);
        let mut rows = Vec::new();
        for hour in 0..24 {
            let values: Vec<f64> = trace
                .iter()
                .filter(|o| o.time.day_kind() == day && o.time.hour_of_day() == hour)
                .map(|o| o.value)
                .collect();
            if values.is_empty() {
                continue;
            }
            let s = five_number_summary(&values);
            rows.push(vec![format!("{hour:02}"), s.render()]);
        }
        push_table(out, &["hour", "box plot (creates/hour)"], &rows);
    }
    Ok(())
}

/// Figure 7: dispersion of K-S p-values across the hourly-normal model
/// fits, Standard/GP (a) and Premium/BC (b), for weekday/weekend creates
/// and drops. The paper's criterion: all but a few p-values exceed the
/// α = 0.05 significance line, so the normality hypothesis stands.
pub(super) fn fig07(_: &Study, out: &mut String) -> fmt::Result {
    let gen = region1_seed7();
    out.push_str("Figure 7 — K-S p-value dispersion of hourly-normal fits (α = 0.05)\n\n");
    let mut rows = Vec::new();
    for edition in EditionKind::ALL {
        for (label, obs) in [
            ("create", gen.hourly_creates(edition, 8)),
            ("drop", gen.hourly_drops(edition, 8)),
        ] {
            let (_table, report) = train_hourly_table(&obs);
            for day in DayKind::ALL {
                let ps: Vec<f64> = report
                    .cell_ks
                    .iter()
                    .filter(|((d, _), r)| *d == day.index() && r.is_some())
                    .map(|(_, r)| r.unwrap().p_value)
                    .collect();
                let s = five_number_summary(&ps);
                let accepted = ps.iter().filter(|p| **p > 0.05).count();
                rows.push(vec![
                    format!("{edition} {label} {day:?}"),
                    s.render(),
                    format!("{accepted}/{} cells > 0.05", ps.len()),
                ]);
            }
        }
    }
    push_table(
        out,
        &["model family", "p-value box plot", "accepted"],
        &rows,
    );
    Ok(())
}

/// One of Figure 8's 100 model executions: samples a week of hourly
/// Standard/GP creates and drops under this run's fixed seed. Pure
/// function of `(model, run)`, so the fleet can run all 100 on any
/// number of threads with identical output.
struct SampleRun<'m> {
    model: &'m CreateDropModel,
    run: u64,
}

impl FleetTask for SampleRun<'_> {
    type Output = (Vec<f64>, Vec<f64>);

    fn label(&self) -> String {
        format!("sample-run-{:03}", self.run)
    }

    fn seed(&self) -> u64 {
        1000 + self.run
    }

    fn run(&self) -> (Vec<f64>, Vec<f64>) {
        let mut rng = DetRng::seed_from_u64(self.seed());
        let edition = EditionKind::StandardGp;
        (0..7 * 24)
            .map(|h| {
                let t = SimTime::ZERO + SimDuration::from_hours(h);
                let creates = self.model.sample_creates(edition, t, &mut rng) as f64;
                let drops = self.model.sample_drops(edition, t, &mut rng) as f64;
                (creates, drops)
            })
            .unzip()
    }
}

/// Figure 8's inputs: the production trace and 100 executions of the
/// Create/Drop models trained on it.
pub(super) struct Fig08 {
    creates: Vec<HourlyObservation>,
    drops: Vec<HourlyObservation>,
    sim_creates: Vec<Vec<f64>>,
    sim_drops: Vec<Vec<f64>>,
}

impl Fig08 {
    /// Train on 8 weeks of Standard/GP creates and drops, then run the
    /// 100 model executions (seeds 1000..1100) on `executor`.
    pub(super) fn run(executor: FleetExecutor) -> Result<Fig08, String> {
        let gen = region1_seed7();
        let edition = EditionKind::StandardGp;
        let creates = gen.hourly_creates(edition, 8);
        let drops = gen.hourly_drops(edition, 8);
        let (create_table, _) = train_hourly_table(&creates);
        let (drop_table, _) = train_hourly_table(&drops);
        let model = CreateDropModel::new(
            [create_table.clone(), create_table],
            [drop_table.clone(), drop_table],
        );
        let tasks: Vec<SampleRun> = (0..100)
            .map(|run| SampleRun { model: &model, run })
            .collect();
        let (sim_creates, sim_drops) = completed(executor.run(&tasks, &NullObserver))?
            .into_iter()
            .map(|(_, series)| series)
            .unzip();
        Ok(Fig08 {
            creates,
            drops,
            sim_creates,
            sim_drops,
        })
    }
}

fn minmax(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// Figure 8: region-level validation of the Create/Drop DB models — the
/// trained models are executed 100 times and compared with the production
/// trace: (a) net creates, (b) creates, (c) drops. The paper's check: the
/// simulated envelope brackets the trace and the mean of the 100 runs
/// nearly overlaps it.
pub(super) fn fig08(study: &Study, out: &mut String) -> fmt::Result {
    let f = &study.fig08;
    let runs = f.sim_creates.len() as f64;
    out.push_str("Figure 8 — production trace vs 100 simulated runs (daily totals)\n\n");
    let mut rows = Vec::new();
    for day in 0..7 {
        let hours = day * 24..(day + 1) * 24;
        let prod_c: f64 = f.creates[hours.clone()].iter().map(|o| o.value).sum();
        let prod_d: f64 = f.drops[hours.clone()].iter().map(|o| o.value).sum();
        let sims_c: Vec<f64> = f
            .sim_creates
            .iter()
            .map(|run| run[hours.clone()].iter().sum::<f64>())
            .collect();
        let sims_d: Vec<f64> = f
            .sim_drops
            .iter()
            .map(|run| run[hours.clone()].iter().sum::<f64>())
            .collect();
        let mean_c = sims_c.iter().sum::<f64>() / runs;
        let mean_d = sims_d.iter().sum::<f64>() / runs;
        let (min_c, max_c) = minmax(&sims_c);
        let (min_d, max_d) = minmax(&sims_d);
        rows.push(vec![
            format!("{day}"),
            format!("{prod_c:.0}"),
            format!("{mean_c:.0} [{min_c:.0},{max_c:.0}]"),
            format!("{prod_d:.0}"),
            format!("{mean_d:.0} [{min_d:.0},{max_d:.0}]"),
            format!("{:.0}", prod_c - prod_d),
            format!("{:.0}", mean_c - mean_d),
        ]);
    }
    push_table(
        out,
        &[
            "day",
            "prod creates",
            "sim creates mean [min,max]",
            "prod drops",
            "sim drops mean [min,max]",
            "prod net",
            "sim net mean",
        ],
        &rows,
    );
    // The envelope should bracket the trace on most days.
    out.push_str("(trace day totals are from the training region; the mean of 100 runs\n");
    out.push_str(" should track them closely, as in the paper's Figure 8)\n");
    Ok(())
}

fn accumulate_with(
    rng: &mut DetRng,
    periods: usize,
    period_secs: u64,
    mut delta: impl FnMut(SimTime, &mut DetRng) -> f64,
) -> Vec<f64> {
    let mut v = 100.0f64;
    (0..periods)
        .map(|i| {
            let t = SimTime::from_secs(i as u64 * period_secs);
            v = (v + delta(t, rng)).max(0.0);
            v
        })
        .collect()
}

/// Figure 9: steady-state disk usage — the hourly-normal model's
/// cumulative disk usage vs the production trace over two weeks, plus the
/// §4.2.2 model-selection comparison (hourly normal vs KDE vs customized
/// binning) under DTW and RMSE.
pub(super) fn fig09(_: &Study, out: &mut String) -> fmt::Result {
    let gen = TraceGenerator::new(SynthConfig {
        seed: 11,
        region: RegionProfile::region1(),
    });
    // Two weeks of 20-minute deltas from a steady-state database.
    let periods = 14 * 24 * 3;
    let trace = gen.disk_delta_trace(12, periods); // db 12 is steady-state
    let production = TraceGenerator::accumulate(100.0, &trace);

    // Train the hourly-normal model on the deltas.
    let observations: Vec<HourlyObservation> = trace
        .deltas
        .iter()
        .enumerate()
        .map(|(i, d)| HourlyObservation {
            time: SimTime::from_secs(i as u64 * trace.period_secs),
            value: *d,
        })
        .collect();
    let (table, _) = train_steady_state(&observations);

    // Each candidate model's cumulative usage, drawn from one stream in a
    // fixed order: hourly normal, KDE, customized binning.
    let kde = GaussianKde::fit(&trace.deltas).expect("non-empty trace");
    let bins = EqualProbabilityBins::fit(&trace.deltas, 10).expect("non-empty trace");
    let candidates = |rng: &mut DetRng| -> [Vec<f64>; 3] {
        let period = trace.period_secs;
        [
            accumulate_with(rng, periods, period, |t, rng| {
                let (mu, sigma) = table.cell(t.day_kind().index(), t.hour_of_day() as usize);
                Normal::new(mu, sigma).sample(rng)
            }),
            accumulate_with(rng, periods, period, |_, rng| kde.sample(rng)),
            accumulate_with(rng, periods, period, |_, rng| bins.sample(rng)),
        ]
    };

    // Seed 99 draws the displayed curves; the selection metrics below
    // average many seeds.
    let shown = candidates(&mut DetRng::seed_from_u64(99));
    out.push_str("Figure 9 — cumulative disk usage, production vs models (GB)\n\n");
    let days = (0..14).step_by(2).map(|day| (day, day * 72));
    let rows: Vec<Vec<String>> = days
        .chain([(14, periods - 1)])
        .map(|(day, idx)| {
            let usage = std::iter::once(&production).chain(&shown);
            std::iter::once(day.to_string())
                .chain(usage.map(|series| format!("{:.1}", series[idx])))
                .collect()
        })
        .collect();
    let headers = ["day", "production", "hourly normal", "KDE", "binning"];
    push_table(out, &headers, &rows);

    out.push_str(
        "model selection (§4.2.2), averaged over 25 simulation seeds — lower is better:\n\n",
    );
    let mut scores = [(0.0f64, 0.0f64); 3];
    let seeds = 25;
    for seed in 0..seeds {
        let series = candidates(&mut DetRng::seed_from_u64(500 + seed));
        for (score, usage) in scores.iter_mut().zip(&series) {
            score.0 += dtw_distance(&production, usage) / seeds as f64;
            score.1 += rmse(&production, usage) / seeds as f64;
        }
    }
    let rows: Vec<Vec<String>> = ["hourly normal", "KDE", "customized binning"]
        .iter()
        .zip(scores)
        .map(|(name, (dtw, rm))| vec![name.to_string(), format!("{dtw:.1}"), format!("{rm:.2}")])
        .collect();
    push_table(out, &["model", "avg DTW", "avg RMSE"], &rows);
    Ok(())
}
