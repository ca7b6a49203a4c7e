fn main() {
    std::process::exit(stair_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
