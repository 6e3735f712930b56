//! Runs every experiment and prints all tables.
fn main() {
    println!("{}", stack_bench::figure4().render());
    println!("{}", stack_bench::figure9().render());
    println!(
        "{}",
        stack_bench::render_figure16(&stack_bench::figure16(1))
    );
    let prev = stack_bench::prevalence(60, 0x57ac4);
    println!("{}", prev.render_figure17());
    println!("{}", prev.render_figure18());
    println!("-- §6.3 precision --");
    for row in stack_bench::sec63_precision() {
        println!(
            "{:<10} {:>3} reports  ({} urgent, {} time bombs)",
            row.system, row.reports, row.urgent, row.time_bombs
        );
    }
    let c = stack_bench::sec66_completeness();
    println!(
        "-- §6.6 completeness: {}/{} (paper: 7/10) --",
        c.found, c.total
    );
}
