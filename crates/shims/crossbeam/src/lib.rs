//! In-tree stand-in for the `crossbeam` crate, so the workspace builds
//! without a network registry. Only the `channel` module is provided,
//! backed by `std::sync::mpsc` — whose channels have been crossbeam-based
//! in the standard library since Rust 1.72, so `Sender` is `Sync` and the
//! semantics (unbounded, FIFO per producer) match what the comm layer
//! expects.

pub mod channel {
    pub use std::sync::mpsc::{
        Receiver, RecvError, RecvTimeoutError, SendError, Sender, TryRecvError,
    };

    /// Create an unbounded MPSC channel, mirroring
    /// `crossbeam::channel::unbounded`.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvTimeoutError, TryRecvError};
    use std::time::Duration;

    #[test]
    fn send_recv_round_trip() {
        let (tx, rx) = unbounded();
        tx.send(41usize).unwrap();
        assert_eq!(rx.recv().unwrap(), 41);
    }

    #[test]
    fn recv_timeout_times_out_when_empty() {
        let (_tx, rx) = unbounded::<u8>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
    }

    #[test]
    fn try_recv_reports_empty_and_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn sender_is_usable_from_many_threads() {
        let (tx, rx) = unbounded::<usize>();
        std::thread::scope(|s| {
            for i in 0..8 {
                let txc = tx.clone();
                s.spawn(move || txc.send(i).unwrap());
            }
        });
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }
}
