//! Property: the rank×rank communication matrix is *exact* — its
//! sender-side rows reconcile, message for message and byte for byte,
//! with the per-rank `SendsPosted`/`BytesSent` counters, and (once all
//! traffic drains) its columns with the receivers'
//! `RecvsCompleted`/`BytesReceived`. The matrix is built from the same
//! always-on accounting the counters use, so any drift between the two
//! is a bookkeeping bug, not noise.

use probe::Counter;
use proptest::collection::vec;
use proptest::prelude::*;
use rcomm::Universe;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 1–8 ranks, each sending a random number of f64 messages to its
    /// ring neighbours (right, and optionally two to the right), then
    /// draining every matching receive before snapshotting its report.
    #[test]
    fn matrix_rows_and_columns_match_the_counters(
        p in 1usize..9,
        counts in vec(0usize..5, 8),
        skip in vec(0usize..3, 8),
    ) {
        let counts = counts[..p].to_vec();
        let skip = skip[..p].to_vec();
        let reports = Universe::run(p, {
            let counts = counts.clone();
            let skip = skip.clone();
            move |comm| {
                let me = comm.rank();
                let right = (me + 1) % p;
                let right2 = (me + 2) % p;
                for i in 0..counts[me] {
                    comm.send(right, 10, i as f64).unwrap();
                }
                for _ in 0..skip[me] {
                    comm.send(right2, 20, 1.0f64).unwrap();
                }
                let left = (me + p - 1) % p;
                let left2 = (me + 2 * p - 2) % p;
                for _ in 0..counts[left] {
                    let _: f64 = comm.recv(left, 10).unwrap();
                }
                for _ in 0..skip[left2] {
                    let _: f64 = comm.recv(left2, 20).unwrap();
                }
                comm.barrier().unwrap();
                probe::local_report()
            }
        });

        let matrix = probe::comm_matrix(&reports);
        prop_assert_eq!(&matrix.ranks, &(0..p).collect::<Vec<_>>());

        for rep in &reports {
            let me = rep.rank.unwrap();
            let row = matrix.ranks.iter().position(|&r| r == me).unwrap();

            // Row totals (this rank as sender) == its send counters.
            let row_msgs: u64 = matrix.msgs[row].iter().sum();
            let row_bytes: u64 = matrix.bytes[row].iter().sum();
            prop_assert_eq!(row_msgs, rep.counter(Counter::SendsPosted));
            prop_assert_eq!(row_bytes, rep.counter(Counter::BytesSent));

            // The per-peer receive map == its receive counters.
            let recv_msgs: u64 = rep.peer_recvs().values().map(|s| s.msgs).sum();
            let recv_bytes: u64 = rep.peer_recvs().values().map(|s| s.bytes).sum();
            prop_assert_eq!(recv_msgs, rep.counter(Counter::RecvsCompleted));
            prop_assert_eq!(recv_bytes, rep.counter(Counter::BytesReceived));

            // Every send was drained, so this rank's *column* (everyone
            // else's sends to it) equals its receive counters too.
            let col_msgs: u64 = matrix.msgs.iter().map(|r| r[row]).sum();
            let col_bytes: u64 = matrix.bytes.iter().map(|r| r[row]).sum();
            prop_assert_eq!(col_msgs, rep.counter(Counter::RecvsCompleted));
            prop_assert_eq!(col_bytes, rep.counter(Counter::BytesReceived));

            // And the exact payload arithmetic: f64 messages are 8 bytes.
            prop_assert_eq!(row_msgs, (counts[me] + skip[me]) as u64);
            prop_assert_eq!(row_bytes, 8 * row_msgs);
        }
    }
}
