//! Five-minute tour: pick a map *at runtime* by spec string, plan a
//! conflict-free access, simulate it through a reusable measurement
//! session, and check the latency is the theoretical minimum.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cfva::core::mapping::MapSpec;
use cfva::core::plan::Strategy;
use cfva::VectorSpec;
use cfva_bench::runner::BatchRunner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's running example: a matched memory of M = T = 8
    // modules (t = 3) with the XOR map shifted by s = 3, and a vector
    // of 64 elements with stride 12 starting at address 16. The map is
    // named by a registry spec string — swap it for any other
    // registered scheme (`interleaved:m=3`, `skewed:m=3,d=1`,
    // `custom-gf2:matrix=@my_map.gf2`, ...) without recompiling.
    let spec: MapSpec = "xor-matched:t=3,s=3".parse()?;
    let vec = VectorSpec::new(16, 12, 64)?;
    println!("map spec: {spec}");
    println!("access:   {vec} (stride {} => {})", 12, vec.stride());

    // One session owns the planner, the memory system, and the plan
    // scratch; every measurement below reuses them.
    let mut session = BatchRunner::from_spec(&spec)?;
    let mem = session.mem();
    println!("memory:   {mem}");

    // In order (what every pre-1992 machine did): the access conflicts.
    let stats = session
        .measure(&vec, Strategy::Canonical)
        .expect("canonical always plans");
    println!("\nin-order access:      {stats}");

    // The paper's out-of-order replay: conflict free, minimum latency.
    let stats = session
        .measure(&vec, Strategy::ConflictFree)
        .expect("family 2 is inside the window");
    println!("out-of-order replay:  {stats}");
    println!(
        "minimum possible:     T + L + 1 = {} cycles",
        mem.t_cycles() + vec.len() + 1
    );
    assert_eq!(stats.latency, mem.t_cycles() + vec.len() + 1);

    // The first few requests, showing the reordering.
    let replay = session.planner().plan(&vec, Strategy::ConflictFree)?;
    assert!(replay.is_conflict_free(mem.t_cycles()));
    println!("\nfirst 8 requests of the replay order:");
    for entry in replay.iter().take(8) {
        println!(
            "  element {:>2}  address {:>4}  module {}",
            entry.element(),
            vec.element_addr(entry.element()),
            entry.module()
        );
    }
    Ok(())
}
