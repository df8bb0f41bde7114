fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cds_gate_bench::cli::main(&args));
}
