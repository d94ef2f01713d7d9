//! Personnel records with a secondary index (§3.6).
//!
//! Employee records (primary key = employee id) carry a department as a
//! secondary attribute. The secondary index is itself a TSB-tree of
//! `<timestamp, secondary key, primary key>` entries, inheriting the
//! timestamp of each primary change, so questions like "who was in
//! Engineering on date T?" and "how many people were in Sales at year end?"
//! are answered from the secondary index alone.
//!
//! Run with: `cargo run -p tsb-examples --example personnel_history`

use tsb_core::{EngineHandle, Key, SecondaryIndex, Timestamp, TsbConfig, TsbOptions};

const DEPARTMENTS: &[&str] = &["engineering", "sales", "support"];

fn record(name: &str, dept: &str, salary: u32) -> Vec<u8> {
    format!("name={name};dept={dept};salary={salary}").into_bytes()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let people = TsbOptions::in_memory()
        .config(TsbConfig::default())
        .open()?;
    let mut by_dept = SecondaryIndex::new_in_memory(TsbConfig::default())?;

    // --- hire 90 employees across three departments -----------------------------
    println!("hiring 90 employees...");
    for emp in 0..90u64 {
        let dept = DEPARTMENTS[(emp % 3) as usize];
        let ts = people.insert(
            Key::from_u64(emp),
            record(
                &format!("employee-{emp}"),
                dept,
                50_000 + (emp as u32) * 100,
            ),
        )?;
        by_dept.insert_entry(&Key::from(dept), &Key::from_u64(emp), ts)?;
    }
    let after_hiring = people.now().prev();

    // --- a reorganization moves every third engineer into sales -----------------
    println!("reorganization: engineers 0,6,12,... move to sales");
    let mut moved = 0u64;
    for emp in (0..90u64).filter(|e| e % 3 == 0 && e % 2 == 0) {
        let ts = people.insert(
            Key::from_u64(emp),
            record(&format!("employee-{emp}"), "sales", 55_000),
        )?;
        by_dept.record_change(
            Some(&Key::from("engineering")),
            Some(&Key::from("sales")),
            &Key::from_u64(emp),
            ts,
        )?;
        moved += 1;
    }
    let after_reorg = people.now().prev();

    // --- one resignation ----------------------------------------------------------
    let leaver = 7u64;
    let ts = people.delete(Key::from_u64(leaver))?;
    by_dept.record_change(Some(&Key::from("sales")), None, &Key::from_u64(leaver), ts)?;

    // --- department head-counts through time ---------------------------------------
    println!("\nhead-count by department:");
    println!(
        "{:<14} {:>10} {:>12} {:>8}",
        "department", "after hire", "after reorg", "now"
    );
    for dept in DEPARTMENTS {
        let d = Key::from(*dept);
        println!(
            "{:<14} {:>10} {:>12} {:>8}",
            dept,
            by_dept.count_as_of(&d, after_hiring)?,
            by_dept.count_as_of(&d, after_reorg)?,
            by_dept.count_as_of(&d, Timestamp::MAX)?,
        );
    }
    assert_eq!(
        by_dept.count_as_of(&Key::from("engineering"), after_hiring)?,
        30
    );
    assert_eq!(
        by_dept.count_as_of(&Key::from("engineering"), after_reorg)?,
        30 - moved as usize
    );

    // --- who was in engineering right after hiring? ----------------------------------
    let engineers_then = by_dept.primaries_as_of(&Key::from("engineering"), after_hiring)?;
    println!(
        "\nengineering after hiring: {} people",
        engineers_then.len()
    );

    // --- cross-check one employee's own history ---------------------------------------
    let emp0_history = people.versions(&Key::from_u64(0))?;
    println!(
        "employee 0 has {} record versions (hire + reorg)",
        emp0_history.len()
    );
    assert_eq!(emp0_history.len(), 2);

    people.verify()?;
    by_dept.verify()?;
    println!("\nprimary and secondary structures verified");
    Ok(())
}
