//! Window fixtures shared by the prepared-window test binaries.

use mpdf_core::scheme::RssiBaseline;
use mpdf_rfmath::Complex64;
use mpdf_wifi::CsiPacket;
use multipath_hd::prelude::*;

/// Every scheme the pipeline ships: the paper's three plus the RSSI
/// ablation comparator.
pub const ALL_SCHEMES: [&dyn DetectionScheme; 4] = [
    &Baseline,
    &RssiBaseline,
    &SubcarrierWeighting,
    &SubcarrierAndPathWeighting,
];

/// A calibrated classroom link, the config it was calibrated under
/// (saturation screening on, at `sat` amplitude), and a 25-packet window
/// with a person near the link.
pub fn fixture() -> (CalibrationProfile, DetectorConfig, Vec<CsiPacket>, f64) {
    let env = mpdf_eval::scenario::classroom();
    let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
    let mut rx = CsiReceiver::new(link, 77).unwrap();
    let calibration = rx.capture_static(None, 120).unwrap();
    let window = rx
        .capture_static(Some(&HumanBody::new(Vec2::new(4.0, 3.4))), 25)
        .unwrap();
    // A rail far above every captured amplitude: nothing clips unless a
    // test pins a sample to it.
    let peak = calibration
        .iter()
        .chain(&window)
        .flat_map(|p| (0..p.antennas()).flat_map(move |a| p.antenna_row(a)))
        .map(|h| h.norm())
        .fold(0.0, f64::max);
    let sat = 10.0 * peak;
    let mut config = DetectorConfig::default();
    config.quarantine.saturation_amp = sat;
    let profile = CalibrationProfile::build(&calibration, &config).unwrap();
    (profile, config, window, sat)
}

/// Rebuilds `p` with each listed `(antenna, subcarrier)` sample replaced.
pub fn with_samples(p: &CsiPacket, samples: &[(usize, usize)], value: Complex64) -> CsiPacket {
    let mut data: Vec<Complex64> = (0..p.antennas())
        .flat_map(|a| p.antenna_row(a).iter().copied())
        .collect();
    for &(a, k) in samples {
        data[a * p.subcarriers() + k] = value;
    }
    CsiPacket::new(p.antennas(), p.subcarriers(), data, p.seq, p.timestamp)
}

/// Rebuilds `p` with antenna `dead`'s row overwritten by NaN.
pub fn with_dead_row(p: &CsiPacket, dead: usize) -> CsiPacket {
    let row: Vec<(usize, usize)> = (0..p.subcarriers()).map(|k| (dead, k)).collect();
    with_samples(p, &row, Complex64::new(f64::NAN, 0.0))
}
