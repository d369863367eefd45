//! The `ledger` binary: the command line plus the counting allocator.

use epidemic_ledger::alloc::CountingAlloc;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    epidemic_ledger::cli::main(&args)
}
