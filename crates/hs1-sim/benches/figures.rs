//! Regenerates the figures in [`hs1_sim::figures::FIGURES`]:
//! `cargo bench --bench figures -- fig7_slotting fig_knee` runs those two
//! and writes `bench_results/<name>.csv` for each.

use hs1_sim::figures::FIGURES;

fn main() {
    // cargo appends `--bench`; every other argument names a figure.
    let names: Vec<String> = std::env::args().skip(1).filter(|a| a != "--bench").collect();
    let picked: Vec<_> =
        names.iter().filter_map(|n| FIGURES.iter().find(|f| f.name == n)).collect();
    if picked.is_empty() || picked.len() != names.len() {
        eprintln!("usage: cargo bench --bench figures -- <figure>...");
        for fig in &FIGURES {
            eprintln!("  {:<18}{}", fig.name, fig.title);
        }
        std::process::exit(2);
    }
    for fig in picked {
        fig.regenerate();
    }
}
