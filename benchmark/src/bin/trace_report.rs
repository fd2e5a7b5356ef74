//! `trace_report [DIR]` — the layer-separation report over the span and
//! layer files a traced run left in `benchmark/out`.

fn main() -> std::process::ExitCode {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "benchmark/out".into());
    match holix_benchmark::trace_report::run(std::path::Path::new(&dir)) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            std::process::ExitCode::FAILURE
        }
    }
}
