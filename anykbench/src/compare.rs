//! `anykbench compare <a.json> <b.json> [<a2.json> <b2.json> ...]`: result
//! files of the parent (`a`) and of the change (`b`), in alternating pairs.
//! For every (workload, end-to-end metric) it prints both medians, the ratio
//! with its base, the bound and a verdict, and exits non-zero on any
//! `regressed` verdict or a higher failure rate.

use crate::json::Json;
use crate::stats;
use crate::tables::{Better, EndToEnd, END_TO_END, WORKLOADS};
use std::process::ExitCode;

/// Pairs the guide's gain rule needs.
const PAIRS_FOR_A_CLAIM: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Within,
    Regressed,
    /// The parent's own runs spread wider than the bound and the two sides
    /// overlap: neither "unchanged" nor "worse" can be said.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judge one (workload, metric) from the paired runs of both sides.
pub fn judge(a: &[f64], b: &[f64], m: &EndToEnd) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let worse = worsening(med_a, med_b, m.better);
    let better_than = |x: f64, y: f64| worsening(y, x, m.better) < 0.0;
    let (q1, q3) = stats::quartiles(a);
    let spread = if a.len() >= 2 { (q3 - q1).abs() } else { 0.0 };
    if a.len() >= 2 && spread / med_a.abs() > m.bound {
        // Too noisy to gate on, unless the sides do not even overlap.
        let disjoint_better = b.iter().all(|&y| a.iter().all(|&x| better_than(y, x)));
        return if disjoint_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > m.bound {
        return Verdict::Regressed;
    }
    let pairs = a.len().min(b.len());
    let improved = if pairs >= PAIRS_FOR_A_CLAIM {
        // Win at least nine tenths of the pairs (ties count for neither)
        // and move the median by more than the parent's own quartile
        // distance.
        let wins = a.iter().zip(b).filter(|(&x, &y)| better_than(y, x)).count();
        wins * 10 >= pairs * 9 && (med_b - med_a).abs() > spread && worse < 0.0
    } else {
        // Too few pairs for the rule: only a gain beyond the bound shows.
        -worse > m.bound
    };
    if improved {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// The metric's value in each file's untraced run of `workload`.
fn values(files: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            untraced_run(f, workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Failed ÷ attempted over every run of every file.
fn fail_rate(files: &[Json]) -> f64 {
    let (mut failed, mut attempted) = (0.0, 0.0);
    for run in files
        .iter()
        .flat_map(|f| f.get("runs").and_then(Json::as_arr).unwrap_or(&[]))
    {
        failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
    }
    if attempted > 0.0 {
        failed / attempted
    } else {
        1.0
    }
}

fn untraced_run<'a>(file: &'a Json, workload: &str) -> Option<&'a Json> {
    file.get("runs")?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace").and_then(Json::as_f64) == Some(0.0)
    })
}

pub fn run(paths: &[String]) -> ExitCode {
    if paths.is_empty() || !paths.len().is_multiple_of(2) {
        eprintln!("compare takes result files in pairs: <parent.json> <change.json> ...");
        return ExitCode::from(2);
    }
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (i, path) in paths.iter().enumerate() {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text));
        match parsed {
            Ok(json) => {
                if json.get("comparable").and_then(Json::as_bool) != Some(true) {
                    eprintln!("{path}: not comparable (a --quick run?)");
                    return ExitCode::from(2);
                }
                if i % 2 == 0 { &mut a } else { &mut b }.push(json);
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let pairs = a.len();
    println!(
        "{pairs} pair(s); ratio = change / parent; a gain needs {PAIRS_FOR_A_CLAIM} pairs \
         (fewer: only a move beyond the bound shows)"
    );
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "ratio", "bound"
    );
    let mut regressed = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(&a, w.name, m.name), values(&b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{:<14} {:<20} missing on one side", w.name, m.name);
                regressed += 1;
                continue;
            }
            let verdict = judge(&va, &vb, m);
            regressed += usize::from(verdict == Verdict::Regressed);
            let (med_a, med_b) = (stats::median(&va), stats::median(&vb));
            println!(
                "{:<14} {:<20} {:>14.4} {:>14.4} {:>8.4} {:>6}  {}",
                w.name,
                m.name,
                med_a,
                med_b,
                med_b / med_a,
                m.bound,
                verdict.as_str()
            );
        }
    }
    let (fa, fb) = (fail_rate(&a), fail_rate(&b));
    println!("fail rate: parent {fa}, change {fb}");
    if regressed > 0 || fb > fa {
        println!(
            "{regressed} regressed; fail rate {}",
            if fb > fa { "rose" } else { "held" }
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "page_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "pages_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn single_pair_uses_the_bound_both_ways() {
        assert_eq!(judge(&[1.0], &[1.05], &LOWER), Verdict::Within);
        assert_eq!(judge(&[1.0], &[1.2], &LOWER), Verdict::Regressed);
        assert_eq!(judge(&[1.0], &[0.8], &LOWER), Verdict::Improved);
        assert_eq!(judge(&[1000.0], &[850.0], &HIGHER), Verdict::Regressed);
        assert_eq!(judge(&[1000.0], &[1200.0], &HIGHER), Verdict::Improved);
    }

    #[test]
    fn ten_pairs_apply_the_nine_tenths_rule() {
        let a: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * f64::from(i)).collect();
        // Every pair wins and the medians differ by far more than the
        // parent's quartile distance: a gain, though inside the bound.
        let b: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        assert_eq!(judge(&a, &b, &LOWER), Verdict::Improved);
        // Only eight of ten pairs win.
        let mut mixed = b.clone();
        mixed[0] = a[0] * 1.01;
        mixed[1] = a[1] * 1.01;
        assert_eq!(judge(&a, &mixed, &LOWER), Verdict::Within);
        // Wins every pair but by less than the parent's own spread.
        let tiny: Vec<f64> = a.iter().map(|x| x - 0.0001).collect();
        assert_eq!(judge(&a, &tiny, &LOWER), Verdict::Within);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_disjoint() {
        let a = [1.0, 1.3, 0.8, 1.4, 0.7, 1.2];
        let b = [1.1, 1.25, 0.9, 1.5, 0.75, 1.3];
        assert_eq!(judge(&a, &b, &LOWER), Verdict::Unresolved);
        let far_better = [0.3, 0.35, 0.32, 0.31, 0.33, 0.34];
        assert_eq!(judge(&a, &far_better, &LOWER), Verdict::Improved);
    }
}
