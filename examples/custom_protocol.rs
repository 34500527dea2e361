//! Define a custom communication protocol and transaction pattern, then
//! compare how the schemes cope with it.
//!
//! The protocol here is a three-type read-modify-write chain
//! `REQ ≺ UPD ≺ ACK` (a request forwarded to an updater, acknowledged
//! directly to the requester) with an unusually long update payload —
//! the kind of protocol a designer might want to evaluate before
//! committing to a number of virtual channels.
//!
//! Run with: `cargo run --release --example custom_protocol`

use mdd_sim::prelude::*;
use mdd_sim::protocol::{MsgTypeSpec, PatternSpec as Pat, ProtocolSpec as Proto};

fn custom_pattern() -> Pat {
    let proto = Proto::new(
        "RMW",
        vec![
            MsgTypeSpec::request("REQ"),
            MsgTypeSpec::request("UPD").with_length(12),
            MsgTypeSpec::reply("ACK").terminating().with_length(8),
        ],
        &[
            (0, 1), // REQ ≺ UPD
            (0, 2), // REQ ≺ ACK (fast path)
            (1, 2), // UPD ≺ ACK
        ],
        None,
    );
    let (req, upd, ack) = (MsgType(0), MsgType(1), MsgType(2));
    Pat::new(
        "RMW-mix",
        proto,
        vec![
            // 40% fast path: home acknowledges directly.
            (
                0.4,
                TransactionShape::new(vec![req, ack], vec![HopTarget::Home, HopTarget::Requester]),
            ),
            // 60% forwarded update, acknowledged by the updater.
            (
                0.6,
                TransactionShape::new(
                    vec![req, upd, ack],
                    vec![HopTarget::Home, HopTarget::Owner, HopTarget::Requester],
                ),
            ),
        ],
    )
}

fn main() {
    let pattern = custom_pattern();
    println!(
        "custom protocol {} | chain length {} | avg {:.2} messages/txn\n",
        pattern.protocol().name(),
        pattern.protocol().chain_length(),
        pattern.avg_messages_per_txn()
    );

    let dist = pattern.type_distribution();
    for (i, frac) in dist.iter().enumerate() {
        let t = MsgType(i as u8);
        let spec = pattern.protocol().spec(t);
        println!(
            "  {:>4}: {:>5.1}% of messages, {:>2} flits, {:?}",
            spec.name,
            frac * 100.0,
            spec.length_flits,
            spec.kind
        );
    }

    // SA needs chain_length x 2 = 6 VCs; run everything at 8.
    let vcs = 8;
    let mut table = Table::new(vec!["scheme", "load", "throughput", "latency"]);
    for scheme in [
        Scheme::StrictAvoidance {
            shared_adaptive: false,
        },
        Scheme::StrictAvoidance {
            shared_adaptive: true,
        },
        Scheme::DeflectiveRecovery,
        Scheme::ProgressiveRecovery,
    ] {
        for load in [0.10, 0.25] {
            let cfg = SimConfig::builder()
                .scheme(scheme)
                .pattern(pattern.clone())
                .vcs(vcs)
                .load(load)
                .windows(3_000, 8_000)
                .build()
                .expect("8 VCs suffice");
            let r = Simulator::new(cfg)
                .expect("builder already validated")
                .run();
            table.row(vec![
                scheme.label().to_string(),
                format!("{load:.2}"),
                format!("{:.4}", r.throughput),
                format!("{:.1}", r.avg_latency),
            ]);
        }
    }
    println!();
    print!("{}", table.render());
}
