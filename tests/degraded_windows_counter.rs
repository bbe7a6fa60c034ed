//! `core.degraded_windows_total` counts windows, not scheme evaluations:
//! it rises exactly once per prepared degraded window, however many
//! schemes score it. Its own test binary, so no other test touches the
//! process-global counter while this one reads it.

mod common;

use common::{fixture, with_dead_row, ALL_SCHEMES};
use mpdf_core::scheme::PreparedWindow;
use mpdf_eval::workload::{score_campaign_all, CaseData, WindowRecord};

fn degraded_total() -> u64 {
    mpdf_obs::metrics::counter("core.degraded_windows_total").get()
}

#[test]
fn degraded_windows_count_once_per_prepared_window() {
    let (profile, config, clean, _) = fixture();
    let mut reduced = clean.clone();
    reduced[3] = with_dead_row(&reduced[3], 1);
    let sparse: Vec<_> = clean.iter().step_by(4).cloned().collect();

    // One shared preparation scored by all four schemes: one count.
    let before = degraded_total();
    let prepared = PreparedWindow::new(&profile, &reduced, &config).unwrap();
    for scheme in ALL_SCHEMES {
        scheme.score_prepared(&prepared).unwrap();
    }
    assert_eq!(degraded_total() - before, 1);

    // A clean window never counts.
    let before = degraded_total();
    PreparedWindow::new(&profile, &clean, &config).unwrap();
    assert_eq!(degraded_total() - before, 0);

    // Window-major campaign scoring: one degraded (scored) and one
    // beyond-budget (aborted) window under four schemes count 2, not 8.
    let case = CaseData {
        case_id: 1,
        profile,
        windows: [clean, reduced, sparse]
            .into_iter()
            .map(|packets| WindowRecord {
                packets,
                human: None,
            })
            .collect(),
    };
    let before = degraded_total();
    let scored = score_campaign_all(&[case], &ALL_SCHEMES, &config).unwrap();
    assert_eq!(degraded_total() - before, 2);
    assert!(scored.iter().all(|s| s.len() == 2));
}
