//! Seeded inputs: LEF/DEF files generated through `pao_testgen`'s public
//! case structs, and legal ECO move batches over a parsed placement.
//!
//! The workload seed only ever reaches the program as generated text:
//! it is mixed into the case's own RNG seed (seed 0 reproduces the
//! repository's canonical case), and the program reads the files.

use pao_core::{EcoMove, EcoTarget};
use pao_design::Design;
use pao_geom::{Dbu, Point};
use pao_ptest::Rng;
use pao_tech::Tech;
use pao_testgen::{ScaleCase, SuiteCase};
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// A generated design: a suite case or a tiled scale case.
#[derive(Debug, Clone)]
pub enum Case {
    /// One `ispd18s`/`aes14` case, generated in memory.
    Suite(SuiteCase),
    /// A tiled scale case, streamed straight to disk.
    Scale(ScaleCase),
}

/// Mixes the workload seed into a case seed; seed 0 is the identity.
fn mix(case_seed: u64, seed: u64) -> u64 {
    case_seed.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl Case {
    /// The suite case `name` under workload `seed`.
    pub fn suite(name: &str, seed: u64) -> Case {
        let mut c = pao_testgen::case_by_name(name).expect("known suite case");
        c.seed = mix(c.seed, seed);
        Case::Suite(c)
    }

    /// The scale case `name` under workload `seed`.
    pub fn scale(name: &str, seed: u64) -> Case {
        let mut c = pao_testgen::scaled_case_by_name(name).expect("known scale case");
        c.tile.seed = mix(c.tile.seed, seed);
        Case::Scale(c)
    }

    /// The case name.
    pub fn name(&self) -> &str {
        match self {
            Case::Suite(c) => &c.name,
            Case::Scale(c) => &c.name,
        }
    }

    /// Writes `<name>.lef` and `<name>.def` into the current directory.
    pub fn write(&self) -> std::io::Result<Files> {
        let files = Files {
            lef: PathBuf::from(format!("{}.lef", self.name())),
            def: PathBuf::from(format!("{}.def", self.name())),
        };
        match self {
            Case::Suite(c) => {
                let (tech, design) = pao_testgen::generate(c);
                std::fs::write(&files.lef, pao_tech::lef::write_lef(&tech))?;
                std::fs::write(&files.def, pao_design::def::write_def(&design, &tech))?;
            }
            Case::Scale(c) => {
                let tech = pao_testgen::scaled_tech(c);
                std::fs::write(&files.lef, pao_tech::lef::write_lef(&tech))?;
                let mut out = BufWriter::new(std::fs::File::create(&files.def)?);
                pao_testgen::write_scaled_def(&tech, c, &mut out)?;
                out.flush()?;
            }
        }
        Ok(files)
    }
}

/// The LEF/DEF pair of one generated case.
#[derive(Debug, Clone)]
pub struct Files {
    /// Technology LEF.
    pub lef: PathBuf,
    /// Placed design DEF.
    pub def: PathBuf,
}

/// One row's occupancy: every cell covering the row as
/// `(xlo, xhi, component, movable)`, sorted by x. Multi-row cells
/// occupy each row they cover but never move.
struct RowOcc {
    y: Dbu,
    lo: Dbu,
    hi: Dbu,
    step: Dbu,
    cells: Vec<(Dbu, Dbu, u32, bool)>,
}

/// Generates small legal ECO batches: single-row cells shifted by whole
/// sites into free space on their own row. The mover tracks every move
/// it emits, so consecutive batches stay legal.
pub struct Mover {
    rows: Vec<RowOcc>,
    names: Vec<String>,
    rng: Rng,
}

impl Mover {
    /// Indexes the placement of `design` by row.
    pub fn new(tech: &Tech, design: &Design, seed: u64) -> Mover {
        let mut rows: Vec<RowOcc> = design
            .rows
            .iter()
            .map(|r| RowOcc {
                y: r.origin.y,
                lo: r.origin.x,
                hi: r.origin.x + r.step * Dbu::from(r.num_sites),
                step: r.step,
                cells: Vec::new(),
            })
            .collect();
        let heights: Vec<Dbu> = design.rows.iter().map(|r| r.height).collect();
        let mut by_y: HashMap<Dbu, Vec<usize>> = HashMap::new();
        for (i, r) in rows.iter().enumerate() {
            by_y.entry(r.y).or_default().push(i);
        }
        let mut ys: Vec<Dbu> = by_y.keys().copied().collect();
        ys.sort_unstable();
        for (ci, c) in design.components().iter().enumerate() {
            if !c.is_placed || c.master_in(tech).is_none() {
                continue;
            }
            let b = c.bbox(tech);
            let first = ys.partition_point(|&y| y < b.ylo());
            for &y in ys[first..].iter().take_while(|&&y| y < b.yhi()) {
                for &ri in &by_y[&y] {
                    let r = &mut rows[ri];
                    if b.xlo() < r.hi && r.lo < b.xhi() {
                        let movable = !c.is_fixed
                            && b.ylo() == y
                            && b.height() == heights[ri]
                            && b.xlo() == c.location.x
                            && r.lo <= b.xlo()
                            && b.xhi() <= r.hi;
                        r.cells.push((b.xlo(), b.xhi(), ci as u32, movable));
                    }
                }
            }
        }
        rows.retain(|r| r.cells.iter().any(|c| c.3));
        for r in &mut rows {
            r.cells.sort_unstable();
        }
        let names = design
            .components()
            .iter()
            .map(|c| c.name.to_string())
            .collect();
        Mover {
            rows,
            names,
            rng: Rng::new(seed ^ 0xEC0_5EED),
        }
    }

    /// One move: a random movable cell shifts 1–3 sites into free space
    /// beside it. `None` when no cell can move.
    fn next_move(&mut self) -> Option<EcoMove> {
        for _ in 0..1000 {
            let ri = self.rng.gen_range(0..self.rows.len());
            let row = &self.rows[ri];
            let i = self.rng.gen_range(0..row.cells.len());
            let (xlo, xhi, ci, movable) = row.cells[i];
            if !movable {
                continue;
            }
            let left = xlo - if i == 0 { row.lo } else { row.cells[i - 1].1 };
            let right = if i + 1 == row.cells.len() {
                row.hi
            } else {
                row.cells[i + 1].0
            } - xhi;
            let shifts: Vec<Dbu> = (1..=3)
                .flat_map(|s| [-s, s])
                .map(|s| s * row.step)
                .filter(|&dx| left + dx >= 0 && right - dx >= 0)
                .collect();
            if shifts.is_empty() {
                continue;
            }
            let dx = shifts[self.rng.gen_range(0..shifts.len())];
            let y = row.y;
            self.rows[ri].cells[i] = (xlo + dx, xhi + dx, ci, true);
            return Some(EcoMove {
                inst: self.names[ci as usize].clone(),
                target: EcoTarget::Abs(Point { x: xlo + dx, y }),
            });
        }
        None
    }

    /// A batch of `n` moves.
    pub fn batch(&mut self, n: usize) -> Vec<EcoMove> {
        (0..n).filter_map(|_| self.next_move()).collect()
    }
}

/// The `eco_update` request line for `moves`.
pub fn eco_request(id: u64, moves: &[EcoMove]) -> String {
    let items: Vec<String> = moves
        .iter()
        .map(|m| match m.target {
            EcoTarget::Abs(p) => format!(
                "{{\"inst\":{},\"x\":{},\"y\":{}}}",
                pao_obs::json::quote(&m.inst),
                p.x,
                p.y
            ),
            EcoTarget::Delta(d) => format!(
                "{{\"inst\":{},\"dx\":{},\"dy\":{}}}",
                pao_obs::json::quote(&m.inst),
                d.x,
                d.y
            ),
        })
        .collect();
    format!(
        "{{\"id\":{id},\"method\":\"eco_update\",\"params\":{{\"moves\":[{}]}}}}",
        items.join(",")
    )
}
