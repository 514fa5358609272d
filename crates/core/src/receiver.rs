//! The MLCC receiver: glues the credit loop (Algorithm 1) and DQM
//! (Algorithm 2) together and emits the ACK fields the DCI switch and the
//! sender consume.

use netsim::cc::{AckFields, ReceiverCc};
use netsim::packet::Packet;
use netsim::units::Time;

use crate::credit::CreditLoop;
use crate::dqm::Dqm;
use crate::params::MlccParams;

/// MLCC receiver state for one flow.
pub struct MlccReceiver {
    cross_dc: bool,
    dqm_enabled: bool,
    credit: CreditLoop,
    dqm: Dqm,
}

impl MlccReceiver {
    /// `cap_bps` bounds the dequeue/DQM rates (the receiver's access
    /// bottleneck); `rtt_c`/`rtt_d` are the cross-DC and receiver-side
    /// loop RTTs.
    pub fn new(
        p: MlccParams,
        cap_bps: u64,
        rtt_c: Time,
        rtt_d: Time,
        mtu_wire_bytes: u32,
        cross_dc: bool,
    ) -> Self {
        MlccReceiver {
            cross_dc,
            dqm_enabled: p.dqm_enabled,
            credit: CreditLoop::new(cap_bps, rtt_d),
            dqm: Dqm::new(p, rtt_c, rtt_d, mtu_wire_bytes, cap_bps),
        }
    }

    /// Completed credit rounds (diagnostics).
    pub fn rounds(&self) -> u64 {
        self.credit.rounds
    }
}

impl ReceiverCc for MlccReceiver {
    fn on_data(&mut self, pkt: &Packet, now: Time) -> AckFields {
        if !self.cross_dc {
            // Intra-DC MLCC flows run the short end-to-end INT loop: the
            // receiver just echoes the stack.
            return AckFields {
                echo_int: true,
                ..AckFields::default()
            };
        }
        let mut fields = AckFields::default();
        // Q_c: the DCI per-flow queue length rides in the DCI INT record.
        if let Some(dci_hop) = pkt.int().hops().iter().find(|h| h.is_dci) {
            self.dqm.observe_queue(dci_hop.qlen_bytes);
        }
        if let Some(round) = self
            .credit
            .on_data(pkt.int(), pkt.mlcc.c_d(), pkt.size, now)
        {
            self.dqm.on_round(round.r_credit_bps);
            fields.mlcc.set_c_r(Some(round.c_r));
            fields
                .mlcc
                .set_r_credit_bps(Some(round.r_credit_bps as u64));
        }
        // Per-packet smoothing; every ACK advertises the latest R̄_DQM.
        let r_bar = self.dqm.on_packet(self.credit.r_credit_bps());
        if self.dqm_enabled {
            fields.mlcc.set_r_dqm_bps(Some(r_bar as u64));
        }
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::int::IntHop;
    use netsim::types::{FlowId, NodeId};
    use netsim::units::{bytes_in, GBPS, MS, US};

    const CAP: u64 = 25 * GBPS;
    const RTT_C: Time = 6 * MS;
    const RTT_D: Time = 25 * US;

    fn rx(cross: bool) -> MlccReceiver {
        MlccReceiver::new(MlccParams::default(), CAP, RTT_C, RTT_D, 1048, cross)
    }

    fn pkt(ts: Time, c_d: Option<u32>, dci_q: u64, hop_q: u64, hop_tx: u64) -> Packet {
        let mut p = Packet::data(1, FlowId(0), NodeId(0), NodeId(1), 0, 1000, ts);
        p.mlcc.set_c_d(c_d);
        p.push_hop(IntHop {
            hop_id: 50,
            ts,
            qlen_bytes: dci_q,
            tx_bytes: 0,
            link_bps: 100 * GBPS,
            is_dci: true,
        });
        p.push_hop(IntHop {
            hop_id: 1,
            ts,
            qlen_bytes: hop_q,
            tx_bytes: hop_tx,
            link_bps: CAP,
            is_dci: false,
        });
        p
    }

    #[test]
    fn intra_flow_echoes_int_only() {
        let mut r = rx(false);
        let out = r.on_data(&pkt(0, Some(0), 0, 0, 0), 0);
        assert!(out.echo_int);
        assert!(out.mlcc.c_r().is_none());
        assert!(out.mlcc.r_dqm_bps().is_none());
    }

    #[test]
    fn cross_flow_advertises_dqm_every_ack() {
        let mut r = rx(true);
        let out = r.on_data(&pkt(0, None, 0, 0, 0), 0);
        assert!(out.mlcc.r_dqm_bps().is_some());
        assert!(out.mlcc.c_r().is_none(), "no round completed yet");
    }

    #[test]
    fn credit_round_emits_cr_and_rcredit() {
        let mut r = rx(true);
        let out = r.on_data(&pkt(0, Some(0), 0, 0, 0), 0);
        assert_eq!(out.mlcc.c_r(), Some(1));
        assert!(out.mlcc.r_credit_bps().is_some());
        assert_eq!(r.rounds(), 1);
    }

    #[test]
    fn dci_queue_feeds_dqm_derating() {
        let mut r = rx(true);
        // Prime round 0.
        r.on_data(&pkt(0, Some(0), 0, 0, 0), 0);
        // Round 1 closes with a 20 ms DCI queue at 25 Gbps.
        let big_q = (25e9 * 0.020 / 8.0) as u64;
        let t = RTT_D;
        let out = r.on_data(&pkt(t, Some(1), big_q, 0, bytes_in(t, CAP) / 2), t);
        let r_credit = out.mlcc.r_credit_bps().unwrap() as f64;
        // Advertised R̄_DQM should fall below R_credit as packets flow.
        let mut r_bar = f64::MAX;
        for i in 0..500u64 {
            let out = r.on_data(&pkt(t + i, Some(99), big_q, 0, 0), t + i);
            r_bar = out.mlcc.r_dqm_bps().unwrap() as f64;
        }
        assert!(
            r_bar < r_credit,
            "R̄_DQM {r_bar} must derate below R_credit {r_credit}"
        );
    }
}
