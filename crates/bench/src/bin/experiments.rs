//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments <target> [options]
//!
//! targets:
//!   figs      Figures 3, 4, 5 and 6 (one shared parameter sweep)
//!   fig3      Communication                (avg notifications per tagset)
//!   fig4      Processing load              (Gini across Calculators)
//!   fig5      Jaccard error + coverage     (vs centralized baseline)
//!   fig6      Repartitions by cause
//!   fig7      Tagset connectivity          (window sizes 2/5/10/20 min)
//!   fig8      Communication over time      (default config, per algorithm)
//!   fig9      Load over time               (default config, per algorithm)
//!   theory    Section 5 analytic models
//!   ablation  DS vs DS+SCL hybrid (the §8.3 outlook, implemented)
//!   sketch    the §2 sketch-overhead argument, quantified
//!   all       Everything above
//!
//! options:
//!   --duration <secs>   event-time length per run        (default 240)
//!   --period <secs>     report period & window W         (default 20)
//!   --seed <n>          workload seed                    (default 42)
//!   --threaded          run on the threaded runtime      (default sim)
//!   --fig7-minutes <m>  stream length for fig7           (default 30)
//!   --out <dir>         also write JSON reports          (default results)
//!   --no-out            write no JSON reports
//!   --quick             shorthand for --duration 120 --fig7-minutes 42
//! ```

use setcorr_bench::harness::{self, Grid, Scale};
use setcorr_topology::RunMode;
use std::io::Write;

/// Every target, as the usage line and the unknown-target error print it.
const TARGETS: &str = "figs|fig3..fig9|theory|ablation|sketch|all";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: experiments <{TARGETS}> [options]");
        std::process::exit(2);
    }
    let target = args[0].clone();
    let mut scale = Scale::default();
    let mut out_dir = Some("results".to_string());

    let mut i = 1;
    while i < args.len() {
        let take_value = |i: &mut usize| -> String {
            let flag = &args[*i];
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("missing value for option {flag}");
                    std::process::exit(2);
                })
                .clone()
        };
        match args[i].as_str() {
            "--duration" => scale.duration_secs = take_value(&mut i).parse().expect("secs"),
            "--period" => scale.period_secs = take_value(&mut i).parse().expect("secs"),
            "--seed" => scale.seed = take_value(&mut i).parse().expect("seed"),
            "--fig7-minutes" => scale.fig7_minutes = take_value(&mut i).parse().expect("minutes"),
            "--threaded" => scale.mode = RunMode::Threaded,
            "--quick" => {
                scale.duration_secs = 120;
                scale.fig7_minutes = 42;
            }
            "--out" => out_dir = Some(take_value(&mut i)),
            "--no-out" => out_dir = None,
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let needs_grid = matches!(
        target.as_str(),
        "figs" | "fig3" | "fig4" | "fig5" | "fig6" | "fig8" | "fig9" | "all"
    );
    let grid = needs_grid.then(|| {
        eprintln!(
            "running the Figures 3-6 grid ({} runs, {}s event time each)...",
            harness::grid_points().len(),
            scale.duration_secs
        );
        Grid::compute(scale.clone(), true)
    });

    let mut rendered: Vec<(String, String)> = Vec::new();
    match target.as_str() {
        "fig3" => rendered.push(("fig3".into(), harness::fig3(grid.as_ref().unwrap()))),
        "fig4" => rendered.push(("fig4".into(), harness::fig4(grid.as_ref().unwrap()))),
        "fig5" => rendered.push(("fig5".into(), harness::fig5(grid.as_ref().unwrap()))),
        "fig6" => rendered.push(("fig6".into(), harness::fig6(grid.as_ref().unwrap()))),
        "figs" => {
            let g = grid.as_ref().unwrap();
            rendered.push(("fig3".into(), harness::fig3(g)));
            rendered.push(("fig4".into(), harness::fig4(g)));
            rendered.push(("fig5".into(), harness::fig5(g)));
            rendered.push(("fig6".into(), harness::fig6(g)));
        }
        "fig7" => rendered.push(("fig7".into(), harness::fig7(&scale))),
        "ablation" => rendered.push(("ablation".into(), harness::ablation(&scale))),
        "sketch" => rendered.push(("sketch".into(), harness::sketch_overhead(&scale))),
        "fig8" => {
            let (f8, _) = harness::fig8_fig9(grid.as_ref().unwrap());
            rendered.push(("fig8".into(), f8));
        }
        "fig9" => {
            let (_, f9) = harness::fig8_fig9(grid.as_ref().unwrap());
            rendered.push(("fig9".into(), f9));
        }
        "theory" => rendered.push(("theory".into(), harness::theory())),
        "all" => {
            let g = grid.as_ref().unwrap();
            rendered.push(("fig3".into(), harness::fig3(g)));
            rendered.push(("fig4".into(), harness::fig4(g)));
            rendered.push(("fig5".into(), harness::fig5(g)));
            rendered.push(("fig6".into(), harness::fig6(g)));
            rendered.push(("fig7".into(), harness::fig7(&scale)));
            let (f8, f9) = harness::fig8_fig9(g);
            rendered.push(("fig8".into(), f8));
            rendered.push(("fig9".into(), f9));
            rendered.push(("theory".into(), harness::theory()));
            rendered.push(("ablation".into(), harness::ablation(&scale)));
            rendered.push(("sketch".into(), harness::sketch_overhead(&scale)));
        }
        other => {
            eprintln!("unknown target {other}; targets: {TARGETS}");
            std::process::exit(2);
        }
    }

    for (_, text) in &rendered {
        println!("{text}");
    }

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir).expect("create output dir");
        if let Some(g) = &grid {
            let rows: Vec<String> = g
                .reports()
                .iter()
                .map(|r| format!("  {}", r.to_json()))
                .collect();
            let json = format!("[\n{}\n]\n", rows.join(",\n"));
            std::fs::write(format!("{dir}/grid.json"), json).expect("write grid.json");
        }
        for (name, text) in &rendered {
            let mut f =
                std::fs::File::create(format!("{dir}/{name}.txt")).expect("create figure file");
            f.write_all(text.as_bytes()).expect("write figure");
        }
        eprintln!("wrote {}/", dir);
    }
}
