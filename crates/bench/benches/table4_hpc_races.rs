//! Table IV — data races reported in HPC benchmarks.
//!
//! miniFE and LULESH are race-free; HPCCG carries the benign-but-UB
//! same-value write both tools report; AMG2013 carries 14 races of which
//! ARCHER reports only 4 (shadow-cell eviction hides the rest), and at
//! the 40³ size both ARCHER configurations run out of memory on the
//! model node while SWORD completes.

use sword_bench::{fmt_races, mini_node, Table};
use sword_workloads::hpc::{amg_workload, AMG_SIZES};
use sword_workloads::{hpc_workloads, RunConfig, Workload};

fn main() {
    let cfg = RunConfig { threads: 6, size: 0 };
    let node = mini_node();
    let mut table = Table::new(
        "Table IV: HPC data races reported (OOM = killed by node memory)",
        &["benchmark", "archer", "archer-low", "sword"],
    );

    let fixed: Vec<Box<dyn Workload>> =
        hpc_workloads().into_iter().filter(|w| !w.spec().name.starts_with("AMG")).collect();
    for w in &fixed {
        let spec = w.spec();
        let archer = sword_bench::run_archer(w.as_ref(), &cfg, false, Some(node.available()));
        let archer_low = sword_bench::run_archer(w.as_ref(), &cfg, true, Some(node.available()));
        let sword = sword_bench::run_sword(w.as_ref(), &cfg, &format!("t4-{}", spec.name));
        table.row(&[
            spec.name.to_string(),
            fmt_races(archer.races, archer.stats.oom),
            fmt_races(archer_low.races, archer_low.stats.oom),
            sword.analysis.race_count().to_string(),
        ]);
    }
    for n in AMG_SIZES {
        let w = amg_workload(n);
        let archer = sword_bench::run_archer(&w, &cfg, false, Some(node.available()));
        let archer_low = sword_bench::run_archer(&w, &cfg, true, Some(node.available()));
        let sword = sword_bench::run_sword(&w, &cfg, &format!("t4-amg{n}"));
        table.row(&[
            w.spec().name.to_string(),
            fmt_races(archer.races, archer.stats.oom),
            fmt_races(archer_low.races, archer_low.stats.oom),
            sword.analysis.race_count().to_string(),
        ]);
        if n == 40 {
            assert!(archer.stats.oom, "archer must OOM at AMG_40");
            assert_eq!(sword.analysis.race_count(), 14, "sword completes AMG_40 with 14");
        } else {
            assert!(!archer.stats.oom, "archer fits at AMG_{n}");
            assert_eq!(archer.races, 4, "archer sees 4 at AMG_{n}");
            assert_eq!(sword.analysis.race_count(), 14);
        }
    }
    println!("{}", table.render());
}
