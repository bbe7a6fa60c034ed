//! Bit-identity of the simulator in the default test run: the CRC-64 of
//! every packet bit a tiny two-case campaign captures, clean and under
//! the chaos fault preset, is pinned. Any change to the channel model,
//! the CFR evaluation, the impairments or the fault layer that moves a
//! single bit fails here, in debug builds too (the full `repro all`
//! golden digest runs only in release).

use mpdf_core::profile::DetectorConfig;
use mpdf_eval::scenario::five_cases;
use mpdf_eval::workload::{run_campaign, CampaignConfig};
use mpdf_fleet::log::crc64;
use mpdf_wifi::FaultModel;

/// CRC-64 over every captured window: case id, label, then per packet
/// its shape, sequence number, timestamp and sample bit patterns.
fn capture_digest(faults: FaultModel) -> u64 {
    let cfg = CampaignConfig {
        calibration_packets: 120,
        episodes_per_position: 1,
        negative_windows: 4,
        detector: DetectorConfig {
            window: 10,
            ..DetectorConfig::default()
        },
        threads: 2,
        faults,
        ..CampaignConfig::default()
    };
    let data = run_campaign(&five_cases()[..2], &cfg).expect("campaign");
    let mut bytes = Vec::new();
    for case in &data {
        bytes.extend_from_slice(&(case.case_id as u64).to_le_bytes());
        for w in &case.windows {
            bytes.push(u8::from(w.human.is_some()));
            for p in &w.packets {
                bytes.extend_from_slice(&(p.antennas() as u64).to_le_bytes());
                bytes.extend_from_slice(&(p.subcarriers() as u64).to_le_bytes());
                bytes.extend_from_slice(&p.seq.to_le_bytes());
                bytes.extend_from_slice(&p.timestamp.to_bits().to_le_bytes());
                for a in 0..p.antennas() {
                    for h in p.antenna_row(a) {
                        bytes.extend_from_slice(&h.re.to_bits().to_le_bytes());
                        bytes.extend_from_slice(&h.im.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }
    crc64(&bytes)
}

#[test]
fn clean_campaign_capture_bits_are_pinned() {
    assert_eq!(
        format!("{:016x}", capture_digest(FaultModel::none())),
        "545dafba8e4528e2"
    );
}

#[test]
fn chaos_campaign_capture_bits_are_pinned() {
    assert_eq!(
        format!("{:016x}", capture_digest(FaultModel::chaos())),
        "e676a8549e5aa180"
    );
}
